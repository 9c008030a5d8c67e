// Bit-for-bit oracles for the memory-bound layer passes: ReLU, BatchNorm2D,
// Tensor's elementwise in-place ops, ResidualBlock and Sequential.  Each
// reference below is the plain serial form of the layer: one element or one
// channel at a time, on the calling thread, copying its input before it
// works on it.  The layers run on the pool, interleave BatchNorm's channel
// sums and copy nothing they only read; every output, parameter gradient
// and running statistic must still match the reference bit for bit, at 1
// and 4 pool threads.  Also MaxPool2D on windows of -inf and NaN.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/conv.hpp"
#include "nn/layers_basic.hpp"
#include "nn/norm.hpp"
#include "nn/residual.hpp"
#include "par/pool.hpp"

namespace {

using msa::nn::BackwardObserver;
using msa::nn::BatchNorm2D;
using msa::nn::Conv2D;
using msa::nn::Layer;
using msa::tensor::Rng;
using msa::tensor::Shape;
using msa::tensor::Tensor;

class ParGuard {
 public:
  ParGuard() : saved_(msa::par::num_threads()) {}
  ~ParGuard() { msa::par::set_num_threads(saved_); }

 private:
  std::size_t saved_;
};

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// ---- references -------------------------------------------------------------

void ref_add(Tensor& y, const Tensor& x) {
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] += x[i];
}
void ref_sub(Tensor& y, const Tensor& x) {
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] -= x[i];
}
void ref_mul(Tensor& y, const Tensor& x) {
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] *= x[i];
}
void ref_scale(Tensor& y, float s) {
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] *= s;
}
void ref_axpy(Tensor& y, float alpha, const Tensor& x) {
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] += alpha * x[i];
}

class RefReLU : public Layer {
 public:
  Tensor forward(const Tensor& x, bool /*training*/) override {
    mask_ = Tensor(x.shape());
    Tensor y = x;
    for (std::size_t i = 0; i < y.numel(); ++i) {
      const bool pos = y[i] > 0.0f;
      mask_[i] = pos ? 1.0f : 0.0f;
      if (!pos) y[i] = 0.0f;
    }
    return y;
  }
  Tensor backward(const Tensor& grad_out) override {
    Tensor g = grad_out;
    ref_mul(g, mask_);
    return g;
  }
  [[nodiscard]] std::string name() const override { return "RefReLU"; }

 private:
  Tensor mask_;
};

// One channel at a time, each channel's sums in (sample, pixel) order.
class RefBatchNorm2D : public Layer {
 public:
  explicit RefBatchNorm2D(std::size_t channels)
      : channels_(channels),
        gamma_(Tensor::ones({channels})),
        beta_(Tensor::zeros({channels})),
        ggamma_(Tensor::zeros({channels})),
        gbeta_(Tensor::zeros({channels})),
        running_mean_(Tensor::zeros({channels})),
        running_var_(Tensor::ones({channels})) {}

  Tensor forward(const Tensor& x, bool training) override {
    in_shape_ = x.shape();
    const std::size_t B = x.dim(0), C = channels_, HW = x.dim(2) * x.dim(3);
    const std::size_t n = B * HW;
    Tensor y(x.shape());
    xhat_ = Tensor(x.shape());
    inv_std_.assign(C, 0.0f);
    for (std::size_t c = 0; c < C; ++c) {
      float mean, var;
      if (training) {
        double m = 0.0;
        for (std::size_t s = 0; s < B; ++s) {
          const float* plane = x.data() + (s * C + c) * HW;
          for (std::size_t i = 0; i < HW; ++i) m += plane[i];
        }
        mean = static_cast<float>(m / static_cast<double>(n));
        double v = 0.0;
        for (std::size_t s = 0; s < B; ++s) {
          const float* plane = x.data() + (s * C + c) * HW;
          for (std::size_t i = 0; i < HW; ++i) {
            const double d = plane[i] - mean;
            v += d * d;
          }
        }
        var = static_cast<float>(v / static_cast<double>(n));
        running_mean_[c] =
            (1.0f - momentum_) * running_mean_[c] + momentum_ * mean;
        running_var_[c] =
            (1.0f - momentum_) * running_var_[c] + momentum_ * var;
      } else {
        mean = running_mean_[c];
        var = running_var_[c];
      }
      const float inv_std = 1.0f / std::sqrt(var + eps_);
      inv_std_[c] = inv_std;
      for (std::size_t s = 0; s < B; ++s) {
        const float* in_plane = x.data() + (s * C + c) * HW;
        float* xh_plane = xhat_.data() + (s * C + c) * HW;
        float* out_plane = y.data() + (s * C + c) * HW;
        for (std::size_t i = 0; i < HW; ++i) {
          xh_plane[i] = (in_plane[i] - mean) * inv_std;
          out_plane[i] = gamma_[c] * xh_plane[i] + beta_[c];
        }
      }
    }
    return y;
  }

  Tensor backward(const Tensor& grad_out) override {
    const std::size_t B = in_shape_[0], C = channels_,
                      HW = in_shape_[2] * in_shape_[3];
    const auto n = static_cast<float>(B * HW);
    Tensor gx(in_shape_);
    for (std::size_t c = 0; c < C; ++c) {
      double sum_g = 0.0, sum_gx = 0.0;
      for (std::size_t s = 0; s < B; ++s) {
        const float* g_plane = grad_out.data() + (s * C + c) * HW;
        const float* xh_plane = xhat_.data() + (s * C + c) * HW;
        for (std::size_t i = 0; i < HW; ++i) {
          sum_g += g_plane[i];
          sum_gx += static_cast<double>(g_plane[i]) * xh_plane[i];
        }
      }
      ggamma_[c] += static_cast<float>(sum_gx);
      gbeta_[c] += static_cast<float>(sum_g);
      const float k = gamma_[c] * inv_std_[c] / n;
      for (std::size_t s = 0; s < B; ++s) {
        const float* g_plane = grad_out.data() + (s * C + c) * HW;
        const float* xh_plane = xhat_.data() + (s * C + c) * HW;
        float* gx_plane = gx.data() + (s * C + c) * HW;
        for (std::size_t i = 0; i < HW; ++i) {
          gx_plane[i] = k * (n * g_plane[i] - static_cast<float>(sum_g) -
                             xh_plane[i] * static_cast<float>(sum_gx));
        }
      }
    }
    return gx;
  }

  std::vector<Tensor*> params() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> grads() override { return {&ggamma_, &gbeta_}; }
  [[nodiscard]] std::string name() const override { return "RefBatchNorm2D"; }
  [[nodiscard]] const Tensor& running_mean() const { return running_mean_; }
  [[nodiscard]] const Tensor& running_var() const { return running_var_; }

 private:
  std::size_t channels_;
  float momentum_ = 0.1f, eps_ = 1e-5f;
  Tensor gamma_, beta_, ggamma_, gbeta_, running_mean_, running_var_;
  Tensor xhat_;
  std::vector<float> inv_std_;
  Shape in_shape_;
};

// Copies its argument before the first layer, in both directions.
class RefSequential : public Layer {
 public:
  void add(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
  }

  Tensor forward(const Tensor& x, bool training) override {
    Tensor h = x;
    for (auto& l : layers_) h = l->forward(h, training);
    return h;
  }
  Tensor backward(const Tensor& grad_out) override {
    Tensor g = grad_out;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
      g = (*it)->backward(g);
    }
    return g;
  }
  std::vector<Tensor*> params() override {
    std::vector<Tensor*> out;
    for (auto& l : layers_) {
      for (Tensor* p : l->params()) out.push_back(p);
    }
    return out;
  }
  std::vector<Tensor*> grads() override {
    std::vector<Tensor*> out;
    for (auto& l : layers_) {
      for (Tensor* g : l->grads()) out.push_back(g);
    }
    return out;
  }
  [[nodiscard]] std::string name() const override { return "RefSequential"; }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

// The residual block with a deep copy of x as its identity shortcut and a
// copy of the pre-activation sum kept after every forward.
class RefResidual : public Layer {
 public:
  RefResidual(std::size_t in_ch, std::size_t out_ch, std::size_t stride,
              Rng& rng) {
    main_.add(std::make_unique<Conv2D>(in_ch, out_ch, 3, stride, 1, rng,
                                       /*bias=*/false));
    main_.add(std::make_unique<RefBatchNorm2D>(out_ch));
    main_.add(std::make_unique<RefReLU>());
    main_.add(std::make_unique<Conv2D>(out_ch, out_ch, 3, 1, 1, rng,
                                       /*bias=*/false));
    main_.add(std::make_unique<RefBatchNorm2D>(out_ch));
    if (stride != 1 || in_ch != out_ch) {
      proj_ = std::make_unique<Conv2D>(in_ch, out_ch, 1, stride, 0, rng,
                                       /*bias=*/false);
      proj_bn_ = std::make_unique<RefBatchNorm2D>(out_ch);
    }
  }

  Tensor forward(const Tensor& x, bool training) override {
    Tensor main_out = main_.forward(x, training);
    Tensor shortcut =
        proj_ ? proj_bn_->forward(proj_->forward(x, training), training) : x;
    ref_add(main_out, shortcut);
    sum_cache_ = main_out;
    return out_relu_.forward(main_out, training);
  }
  Tensor backward(const Tensor& grad_out) override {
    Tensor g_sum = out_relu_.backward(grad_out);
    Tensor gx = main_.backward(g_sum);
    if (proj_) {
      ref_add(gx, proj_->backward(proj_bn_->backward(g_sum)));
    } else {
      ref_add(gx, g_sum);
    }
    return gx;
  }
  std::vector<Tensor*> params() override { return collect(&Layer::params); }
  std::vector<Tensor*> grads() override { return collect(&Layer::grads); }
  [[nodiscard]] std::string name() const override { return "RefResidual"; }

 private:
  std::vector<Tensor*> collect(std::vector<Tensor*> (Layer::*of)()) {
    auto out = (main_.*of)();
    if (proj_) {
      for (Tensor* t : ((*proj_).*of)()) out.push_back(t);
      for (Tensor* t : ((*proj_bn_).*of)()) out.push_back(t);
    }
    return out;
  }

  RefSequential main_;
  std::unique_ptr<Conv2D> proj_;
  std::unique_ptr<RefBatchNorm2D> proj_bn_;
  RefReLU out_relu_;
  Tensor sum_cache_;
};

// ---- inputs -----------------------------------------------------------------

// Every special class of float, signs included.
std::vector<float> special_values() {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float sub = std::numeric_limits<float>::denorm_min();
  const float tiny = std::numeric_limits<float>::min();
  const float big = std::numeric_limits<float>::max();
  return {0.0f, -0.0f, inf,   -inf, nan,  -nan,  sub, -sub,
          tiny, -tiny, 1.0f, -1.0f, big,  -big,  3.0f * sub, -0.5f};
}

// Random normals, every third element replaced by a special value in turn.
Tensor mixed(Shape shape, Rng& rng) {
  Tensor t = Tensor::randn(std::move(shape), rng);
  const std::vector<float> special = special_values();
  for (std::size_t i = 0; i < t.numel(); i += 3) {
    t[i] = special[(i / 3) % special.size()];
  }
  return t;
}

// Copies every parameter of `from` onto `to` (same layout).
void copy_params(Layer& from, Layer& to) {
  const std::vector<Tensor*> src = from.params(), dst = to.params();
  ASSERT_EQ(src.size(), dst.size());
  for (std::size_t i = 0; i < src.size(); ++i) *dst[i] = *src[i];
}

void randomize_params(Layer& layer, Rng& rng) {
  for (Tensor* p : layer.params()) *p = Tensor::randn(p->shape(), rng);
}

void expect_same_grads(Layer& got, Layer& want, const std::string& where) {
  const std::vector<Tensor*> g = got.grads(), w = want.grads();
  ASSERT_EQ(g.size(), w.size()) << where;
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_TRUE(same_bits(*g[i], *w[i])) << "grad " << i << ", " << where;
  }
}

const std::size_t kSizes[] = {1, (1u << 14) - 1, (1u << 14) + 1,
                              3 * (1u << 14) + 5};

// ---- tests ------------------------------------------------------------------

TEST(LayerOracle, TensorInPlaceOpsMatchSerialLoops) {
  ParGuard guard;
  for (const std::size_t threads : {1, 4}) {
    msa::par::set_num_threads(threads);
    for (const std::size_t n : kSizes) {
      const std::string where = "numel " + std::to_string(n) + " threads " +
                                std::to_string(threads);
      Rng rng(n + threads);
      const Tensor a = mixed({n}, rng);
      const Tensor b = mixed({n}, rng);
      const auto check = [&](const char* op, auto&& fn, auto&& ref) {
        Tensor got = a, want = a;
        fn(got);
        ref(want);
        EXPECT_TRUE(same_bits(got, want)) << op << ", " << where;
      };
      check("add_", [&](Tensor& t) { t.add_(b); },
            [&](Tensor& t) { ref_add(t, b); });
      check("sub_", [&](Tensor& t) { t.sub_(b); },
            [&](Tensor& t) { ref_sub(t, b); });
      check("mul_", [&](Tensor& t) { t.mul_(b); },
            [&](Tensor& t) { ref_mul(t, b); });
      check("scale_", [&](Tensor& t) { t.scale_(-1.7f); },
            [&](Tensor& t) { ref_scale(t, -1.7f); });
      check("axpy_", [&](Tensor& t) { t.axpy_(0.3f, b); },
            [&](Tensor& t) { ref_axpy(t, 0.3f, b); });
      // An operand may be the tensor itself.
      check("add_ self", [&](Tensor& t) { t.add_(t); },
            [&](Tensor& t) { ref_add(t, t); });
      // A copy of a slab view is an owning deep copy with the same bits.
      auto slab = std::make_shared<msa::tensor::Storage>(n + 7, 0.0f);
      Tensor view = Tensor::view_of(slab, 7, {n});
      view = a;
      const Tensor copy = view;
      EXPECT_FALSE(copy.is_view()) << where;
      EXPECT_NE(copy.data(), view.data()) << where;
      EXPECT_TRUE(same_bits(copy, a)) << "copy of a view, " << where;
    }
  }
}

TEST(LayerOracle, ReLUMatchesSerialReference) {
  ParGuard guard;
  for (const std::size_t threads : {1, 4}) {
    msa::par::set_num_threads(threads);
    msa::nn::ReLU relu;
    RefReLU ref;
    // Sizes change between calls (a new mask) and repeat (the mask reused).
    for (const std::size_t n : kSizes) {
      for (int rep = 0; rep < 2; ++rep) {
        const std::string where = "numel " + std::to_string(n) + " rep " +
                                  std::to_string(rep) + " threads " +
                                  std::to_string(threads);
        Rng rng(7 * n + rep + threads);
        const Tensor x = mixed({n}, rng);
        const Tensor g = mixed({n}, rng);
        EXPECT_TRUE(same_bits(relu.forward(x, true), ref.forward(x, true)))
            << "y, " << where;
        EXPECT_TRUE(same_bits(relu.backward(g), ref.backward(g)))
            << "gx, " << where;
      }
    }
    // A 4-D activation as in a conv net, with a negative gradient and
    // +-inf gradients at masked elements: -0 and NaN in gx.
    Rng rng(threads);
    const Tensor x = mixed({3, 5, 7, 11}, rng);
    Tensor g = Tensor::randn(x.shape(), rng);
    const float inf = std::numeric_limits<float>::infinity();
    ASSERT_TRUE(std::signbit(x[3]) && x[3] == 0.0f);
    ASSERT_EQ(-inf, x[9]);
    ASSERT_TRUE(std::isnan(x[12]));
    g[3] = -2.0f;
    g[9] = -inf;
    g[12] = inf;
    EXPECT_TRUE(same_bits(relu.forward(x, true), ref.forward(x, true)));
    const Tensor gx = relu.backward(g);
    EXPECT_TRUE(same_bits(gx, ref.backward(g)));
    EXPECT_TRUE(std::signbit(gx[3]) && gx[3] == 0.0f);
    EXPECT_TRUE(std::isnan(gx[9]));
    EXPECT_TRUE(std::isnan(gx[12]));
  }
}

TEST(LayerOracle, BatchNorm2DMatchesOneChannelAtATime) {
  ParGuard guard;
  for (const std::size_t threads : {1, 4}) {
    msa::par::set_num_threads(threads);
    for (const std::size_t C : {1, 2, 3, 4, 5, 12, 16, 64}) {
      BatchNorm2D bn(C);
      RefBatchNorm2D ref(C);
      Rng prng(C);
      randomize_params(bn, prng);
      copy_params(bn, ref);
      for (const std::size_t B : {1, 3, 16, 64}) {
        for (const std::size_t side : {1, 4, 16}) {
          const std::string where =
              "C " + std::to_string(C) + " B " + std::to_string(B) + " HW " +
              std::to_string(side * side) + " threads " +
              std::to_string(threads);
          Rng rng(C * 1000 + B * 10 + side);
          Tensor x = Tensor::randn({B, C, side, side}, rng, 3.0f);
          for (std::size_t i = 0; i < x.numel(); ++i) x[i] += 0.5f;
          // Two training steps on one shape (the xhat cache reused and the
          // parameter gradients accumulated), then one eval pass.
          for (const bool training : {true, true, false}) {
            const Tensor g = Tensor::randn(x.shape(), rng);
            EXPECT_TRUE(
                same_bits(bn.forward(x, training), ref.forward(x, training)))
                << "y, training " << training << ", " << where;
            EXPECT_TRUE(same_bits(bn.backward(g), ref.backward(g)))
                << "gx, training " << training << ", " << where;
          }
          expect_same_grads(bn, ref, where);
          EXPECT_TRUE(same_bits(bn.running_mean(), ref.running_mean()))
              << "running mean, " << where;
          EXPECT_TRUE(same_bits(bn.running_var(), ref.running_var()))
              << "running var, " << where;
        }
      }
    }
  }
}

// Sums whose bits depend on their order: +2^60 at each channel's first
// element and -2^60 in its middle sample swamp, in double, the values added
// between them, so a channel summed in any order but (sample, pixel) gives
// other bits.  (With normal inputs alone a double sum of floats is nearly
// always exact, and its order invisible.)
TEST(LayerOracle, BatchNorm2DKeepsEachChannelsSumOrder) {
  ParGuard guard;
  for (const std::size_t threads : {1, 4}) {
    msa::par::set_num_threads(threads);
    for (const std::size_t C : {4, 5}) {
      const std::size_t B = 6, HW = 16;
      BatchNorm2D bn(C);
      RefBatchNorm2D ref(C);
      Rng rng(C + 40);
      randomize_params(bn, rng);
      copy_params(bn, ref);
      Tensor x = Tensor::randn({B, C, 4, 4}, rng);
      Tensor g = Tensor::randn(x.shape(), rng);
      for (std::size_t c = 0; c < C; ++c) {
        const float scale = static_cast<float>(c + 1);
        x[c * HW] = scale * 0x1p60f;
        x[((B / 2) * C + c) * HW] = -scale * 0x1p60f;
        g[c * HW] = scale * 0x1p40f;
        g[((B / 2) * C + c) * HW] = -scale * 0x1p40f;
      }
      const std::string where =
          "C " + std::to_string(C) + " threads " + std::to_string(threads);
      EXPECT_TRUE(same_bits(bn.forward(x, true), ref.forward(x, true)))
          << "y, " << where;
      EXPECT_TRUE(same_bits(bn.backward(g), ref.backward(g)))
          << "gx, " << where;
      expect_same_grads(bn, ref, where);
      EXPECT_TRUE(same_bits(bn.running_mean(), ref.running_mean())) << where;
      EXPECT_TRUE(same_bits(bn.running_var(), ref.running_var())) << where;
    }
  }
}

TEST(LayerOracle, ResidualBlockMatchesCopyingReference) {
  ParGuard guard;
  struct Geom {
    std::size_t in_ch, out_ch, stride;
  };
  // Identity shortcut, projection by stride, projection by width.
  const Geom geoms[] = {{8, 8, 1}, {4, 8, 2}, {3, 5, 1}};
  for (const std::size_t threads : {1, 4}) {
    msa::par::set_num_threads(threads);
    for (const Geom& geom : geoms) {
      const std::string where =
          "in " + std::to_string(geom.in_ch) + " out " +
          std::to_string(geom.out_ch) + " stride " +
          std::to_string(geom.stride) + " threads " + std::to_string(threads);
      Rng rng(geom.in_ch * 10 + geom.stride);
      msa::nn::ResidualBlock block(geom.in_ch, geom.out_ch, geom.stride, rng);
      RefResidual ref(geom.in_ch, geom.out_ch, geom.stride, rng);
      randomize_params(block, rng);
      copy_params(block, ref);
      const Tensor x = Tensor::randn({5, geom.in_ch, 8, 8}, rng);
      for (const bool training : {true, true, false}) {
        const Tensor y = block.forward(x, training);
        ASSERT_TRUE(same_bits(y, ref.forward(x, training)))
            << "y, training " << training << ", " << where;
        const Tensor g = Tensor::randn(y.shape(), rng);
        EXPECT_TRUE(same_bits(block.backward(g), ref.backward(g)))
            << "gx, training " << training << ", " << where;
      }
      expect_same_grads(block, ref, where);
    }
  }
}

// Records the layers a Sequential reports after their backward.
struct Recorder : BackwardObserver {
  std::vector<const Layer*> seen;
  void on_layer_backward(Layer& layer) override { seen.push_back(&layer); }
};

TEST(LayerOracle, SequentialMatchesCopyingReference) {
  ParGuard guard;
  for (const std::size_t threads : {1, 4}) {
    msa::par::set_num_threads(threads);
    for (const std::size_t depth : {0, 1, 3}) {
      const std::string where = "depth " + std::to_string(depth) +
                                " threads " + std::to_string(threads);
      msa::nn::Sequential seq;
      RefSequential ref;
      Rng rng_a(depth + 3), rng_b(depth + 3);
      const std::size_t widths[] = {6, 9, 9, 4};
      for (std::size_t l = 0; l < depth; ++l) {
        if (l == 1) {
          seq.emplace<msa::nn::ReLU>();
          ref.add(std::make_unique<msa::nn::ReLU>());
          continue;
        }
        seq.emplace<msa::nn::Dense>(widths[l], widths[l + 1], rng_a);
        ref.add(std::make_unique<msa::nn::Dense>(widths[l], widths[l + 1],
                                                 rng_b));
      }
      Recorder recorder;
      seq.set_backward_observer(&recorder);
      Rng rng(depth);
      const std::size_t in = widths[0], out = depth ? widths[depth] : in;
      const Tensor x = mixed({7, in}, rng);
      const Tensor y = seq.forward(x, true);
      ASSERT_TRUE(same_bits(y, ref.forward(x, true))) << "y, " << where;
      const Tensor g = Tensor::randn({7, out}, rng);
      EXPECT_TRUE(same_bits(seq.backward(g), ref.backward(g)))
          << "gx, " << where;
      expect_same_grads(seq, ref, where);
      ASSERT_EQ(depth, recorder.seen.size()) << where;
      for (std::size_t l = 0; l < depth; ++l) {
        EXPECT_EQ(&seq.layer(depth - 1 - l), recorder.seen[l]) << where;
      }
    }
  }
}

// A window whose values are all -inf or all NaN beats no start value; its
// argmax must still name one of its own elements, or the backward (which
// scatters in parallel over planes) adds its gradient into another sample.
TEST(MaxPool2D, NonFiniteWindowKeepsItsGradientInItsPlane) {
  ParGuard guard;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const std::size_t threads : {1, 4}) {
    msa::par::set_num_threads(threads);
    for (const float fill : {-inf, nan}) {
      const std::string where = "fill " + std::to_string(fill) +
                                " threads " + std::to_string(threads);
      msa::nn::MaxPool2D pool(2, 2);
      const Tensor x({2, 1, 2, 2}, {0.5f, -1.0f, 0.25f, 2.0f,  //
                                    fill, fill, fill, fill});
      const Tensor y = pool.forward(x, true);
      EXPECT_EQ(2.0f, y[0]) << where;
      if (std::isnan(fill)) {
        EXPECT_TRUE(std::isnan(y[1])) << where;
      } else {
        EXPECT_EQ(-inf, y[1]) << where;
      }
      const Tensor gx = pool.backward(Tensor({2, 1, 1, 1}, {1.0f, 10.0f}));
      const std::vector<float> want = {0, 0, 0, 1, 10, 0, 0, 0};
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i], gx[i]) << "gx[" << i << "], " << where;
      }
    }
    // A NaN inside a finite window wins it.
    msa::nn::MaxPool2D pool(2, 2);
    const Tensor x({1, 1, 2, 2}, {1.0f, nan, 3.0f, 2.0f});
    EXPECT_TRUE(std::isnan(pool.forward(x, true)[0]));
    const Tensor gx = pool.backward(Tensor({1, 1, 1, 1}, {5.0f}));
    EXPECT_EQ(5.0f, gx[1]);
    EXPECT_EQ(0.0f, gx[0] + gx[2] + gx[3]);
  }
}

}  // namespace
