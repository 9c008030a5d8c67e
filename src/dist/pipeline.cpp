#include "dist/pipeline.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace msa::dist {

namespace {
constexpr int kActTag = 801;   // activations flowing forward
constexpr int kGradTag = 802;  // gradients flowing backward

/// Wire format: [ndim, dims..., data] as floats (exact for our sizes).
std::vector<float> pack_tensor(const nn::Tensor& t) {
  std::vector<float> packed;
  packed.reserve(1 + t.ndim() + t.numel());
  packed.push_back(static_cast<float>(t.ndim()));
  for (std::size_t d = 0; d < t.ndim(); ++d) {
    packed.push_back(static_cast<float>(t.dim(d)));
  }
  packed.insert(packed.end(), t.data(), t.data() + t.numel());
  return packed;
}

nn::Tensor unpack_tensor(const std::vector<float>& packed) {
  const auto ndim = static_cast<std::size_t>(packed[0]);
  nn::Shape shape;
  std::size_t numel = 1;
  for (std::size_t d = 0; d < ndim; ++d) {
    shape.push_back(static_cast<std::size_t>(packed[1 + d]));
    numel *= shape.back();
  }
  nn::Tensor t(shape);
  std::memcpy(t.data(), packed.data() + 1 + ndim, numel * sizeof(float));
  return t;
}

}  // namespace

PipelineStage::PipelineStage(Mesh mesh, nn::Layer& stage,
                             nn::Optimizer& optimizer,
                             AllreduceOptions allreduce)
    : mesh_(std::move(mesh)),
      stage_(stage),
      optimizer_(optimizer),
      store_(stage_),
      xfer_(mesh_.stages() > 1 ? mesh_.pipe().dup() : mesh_.pipe()) {
  store_.attach_optimizer(optimizer_);
  if (mesh_.data().size() > 1) {
    reducer_.emplace(mesh_.data(), store_, allreduce);
  }
}

void PipelineStage::charge(double flops) {
  mesh_.world().charge_compute(flops, 0.0);
}

nn::Tensor PipelineStage::forward(const nn::Tensor& x, bool training,
                                  const char* name) {
  nn::Tensor out;
  {
    obs::ScopedSpan span(obs::Category::Compute, name);
    out = stage_.forward(x, training);
  }
  charge(stage_.forward_flops());
  return out;
}

nn::Tensor PipelineStage::backward(const nn::Tensor& grad, bool final_grads) {
  const double owed = 2.0 * stage_.forward_flops();
  // The final backward finalises the accumulated gradients layer by layer
  // (reverse order) — exactly when the overlapped reducer may launch
  // buckets, each at the sim time its layer's backward was charged.
  const bool hooked = final_grads && reducer_ && reducer_->overlapped();
  if (final_grads && reducer_) reducer_->begin_step();
  hooked_flops_ = 0.0;
  if (hooked) stage_.set_backward_observer(this);
  nn::Tensor out;
  {
    obs::ScopedSpan span(obs::Category::Compute, "backward");
    out = stage_.backward(grad);
  }
  if (hooked) stage_.set_backward_observer(nullptr);
  const double rest = owed - hooked_flops_;
  if (!hooked || rest > 0.0) charge(rest);
  return out;
}

void PipelineStage::on_layer_backward(nn::Layer& layer) {
  const double flops = 2.0 * layer.forward_flops();
  if (flops > 0.0) {
    charge(flops);
    hooked_flops_ += flops;
  }
  reducer_->on_layer_backward(layer);
}

void PipelineStage::send_tensor(const nn::Tensor& t, int dest_stage, int tag) {
  const std::vector<float> packed = pack_tensor(t);
  xfer_.send(std::span<const float>(packed), dest_stage, tag);
}

PipelineStage::Pending PipelineStage::prefetch_tensor(
    int src_stage, int tag, std::uint64_t bytes_hint) {
  Pending p;
  p.packed = std::make_shared<std::vector<float>>();
  // The engine replays the body when the request is waited, rewinding to
  // the post time: transfer time that fits under the compute issued between
  // post and wait is attributed as hidden comm.
  p.req = xfer_.idefer(
      bytes_hint,
      [c = xfer_, dst = p.packed, src_stage, tag]() mutable {
        *dst = c.recv_any_size<float>(src_stage, tag);
      });
  return p;
}

nn::Tensor PipelineStage::take(Pending& p, const char* bubble_name) {
  if (bubble_name != nullptr) {
    // Structural stall: the whole wait bills to the pipeline bubble (the
    // engine's comm intervals inside are shadowed — attributed once).  The
    // replayed recv spans inherit the PipeBubble context, which is how
    // obs::critpath classifies these waits as bubbles.
    obs::ScopedSpan bubble(obs::Category::PipeBubble, bubble_name,
                           std::uint64_t{0}, std::uint64_t{0}, xfer_.id());
    p.req.wait();
  } else {
    p.req.wait();
  }
  return unpack_tensor(*p.packed);
}

StepResult PipelineStage::step_classification(
    std::span<const nn::Tensor> micro_inputs,
    std::span<const std::vector<std::int32_t>> micro_labels) {
  if (micro_inputs.size() != micro_labels.size() || micro_inputs.empty()) {
    throw std::invalid_argument("pipeline step: bad microbatch lists");
  }
  obs::ScopedSpan step_span(obs::Category::Step, "step");
  const int M = static_cast<int>(micro_inputs.size());
  const int S = mesh_.stages();
  const int s = mesh_.stage();
  // 1F1B: W warmup forwards, then one-forward-one-backward, then cooldown.
  const int W = std::min(M, S - 1 - s);
  store_.zero_grads();

  std::vector<Pending> act_pending(static_cast<std::size_t>(M));
  std::vector<Pending> grad_pending(static_cast<std::size_t>(M));
  // Stage inputs stashed per in-flight microbatch: layers single-buffer
  // their forward caches, so a backward whose forward was overwritten by a
  // later microbatch (only with warmup forwards) recomputes it from here
  // (activation checkpointing).
  std::vector<nn::Tensor> inputs(static_cast<std::size_t>(W > 0 ? M : 0));
  const auto grad_scale = static_cast<float>(loss_scale_ / M);
  nn::Tensor loss_grad;  // last stage only: gradient of the pending loss
  double loss_sum = 0.0;
  double acc_sum = 0.0;
  int last_forward = -1;

  auto forward_one = [&](int i) {
    const auto ui = static_cast<std::size_t>(i);
    nn::Tensor received;
    if (!is_first()) {
      // Post the next microbatch's receive before consuming this one, so
      // its transfer hides behind the compute in between.
      if (i + 1 < M) {
        act_pending[ui + 1] =
            prefetch_tensor(s - 1, kActTag, last_act_bytes_);
      }
      received = take(act_pending[ui], i == 0 ? "warmup_bubble" : nullptr);
      last_act_bytes_ = act_pending[ui].packed->size() * sizeof(float);
    }
    const nn::Tensor& act = is_first() ? micro_inputs[ui] : received;
    if (W > 0) inputs[ui] = act;
    const nn::Tensor out = forward(act, /*training=*/true, "forward");
    last_forward = i;
    if (is_last()) {
      auto res = nn::softmax_cross_entropy(out, micro_labels[ui]);
      // Scale so the accumulated gradient is the mean over microbatches.
      res.grad.scale_(grad_scale);
      loss_sum += res.loss;
      if (S == 1) acc_sum += nn::accuracy(out, micro_labels[ui]);
      loss_grad = std::move(res.grad);
    } else {
      send_tensor(out, s + 1, kActTag);
      grad_pending[ui] = prefetch_tensor(s + 1, kGradTag, last_grad_bytes_);
    }
  };

  auto backward_one = [&](int i, bool cooldown) {
    const auto ui = static_cast<std::size_t>(i);
    nn::Tensor grad_in;
    if (is_last()) {
      grad_in = std::move(loss_grad);
    } else {
      grad_in = take(grad_pending[ui], cooldown ? "cooldown_bubble" : nullptr);
      last_grad_bytes_ = grad_pending[ui].packed->size() * sizeof(float);
    }
    if (last_forward != i) {
      (void)forward(inputs[ui], /*training=*/true, "recompute");
      last_forward = i;
    }
    const bool final_grads = i == M - 1;
    const nn::Tensor grad_out = backward(grad_in, final_grads);
    // Ship the upstream gradient before our own reduction: the previous
    // stage's schedule must not stall on our allreduce.
    if (!is_first()) send_tensor(grad_out, s - 1, kGradTag);
    if (final_grads && reducer_) reducer_->finish();
  };

  if (!is_first()) {
    act_pending[0] = prefetch_tensor(s - 1, kActTag, last_act_bytes_);
  }
  for (int i = 0; i < W; ++i) forward_one(i);
  for (int i = W; i < M; ++i) {
    forward_one(i);
    backward_one(i - W, /*cooldown=*/false);
  }
  for (int i = M - W; i < M; ++i) backward_one(i, /*cooldown=*/true);

  // The data axis was reduced after the final backward; one flat optimizer
  // sweep over the slabs.
  {
    obs::ScopedSpan span(obs::Category::Compute, "optimizer");
    store_.step(optimizer_);
  }

  if (S == 1) {
    return {static_cast<float>(loss_sum / M), acc_sum / M};
  }
  // Mean loss over the global batch: average the replica means across the
  // data axis on the last stage, then broadcast down the pipe.
  float loss = static_cast<float>(loss_sum / M);
  if (is_last() && mesh_.data().size() > 1) {
    std::array<double, 1> v = {loss_sum / M};
    mesh_.data().allreduce(std::span<double>(v), comm::ReduceOp::Sum);
    loss = static_cast<float>(v[0] / mesh_.data().size());
  }
  std::array<float, 1> buf = {loss};
  mesh_.pipe().bcast(std::span<float>(buf), S - 1);
  return {buf[0], 0.0};
}

nn::Tensor PipelineStage::forward_inference(const nn::Tensor& x,
                                            bool broadcast_result) {
  const int s = mesh_.stage();
  nn::Tensor received;
  if (!is_first()) {
    received = unpack_tensor(xfer_.recv_any_size<float>(s - 1, kActTag));
  }
  nn::Tensor out =
      forward(is_first() ? x : received, /*training=*/false, "forward");
  if (!is_last()) {
    send_tensor(out, s + 1, kActTag);
    out = nn::Tensor{};
  }
  if (broadcast_result && mesh_.stages() > 1) {
    // Optional logits broadcast so every stage can compute metrics.  Cost:
    // one header bcast + one payload bcast (numel * 4 bytes) on the pipe.
    const int root = mesh_.stages() - 1;
    std::array<float, 8> header{};
    if (is_last()) {
      header[0] = static_cast<float>(out.ndim());
      for (std::size_t d = 0; d < out.ndim(); ++d) {
        header[1 + d] = static_cast<float>(out.dim(d));
      }
    }
    mesh_.pipe().bcast(std::span<float>(header), root);
    if (!is_last()) {
      nn::Shape shape;
      const auto ndim = static_cast<std::size_t>(header[0]);
      for (std::size_t d = 0; d < ndim; ++d) {
        shape.push_back(static_cast<std::size_t>(header[1 + d]));
      }
      out = nn::Tensor(shape);
    }
    mesh_.pipe().bcast(out.flat(), root);
  }
  return out;
}

std::vector<std::unique_ptr<nn::Sequential>> partition_model(
    std::unique_ptr<nn::Sequential> model, int parts) {
  if (parts <= 0) throw std::invalid_argument("partition_model: parts <= 0");
  // Greedy split by cumulative parameter count: each stage takes layers
  // until it holds >= remaining_params / remaining_parts.
  const std::size_t n_layers = model->size();
  std::vector<std::size_t> layer_params(n_layers);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n_layers; ++i) {
    layer_params[i] = 0;
    for (auto* p : model->layer(i).params()) layer_params[i] += p->numel();
    total += layer_params[i];
  }

  std::vector<std::unique_ptr<nn::Sequential>> stages;
  // release_layer erases the donor slot, so the next layer to take is
  // always at index 0; `at` tracks the original index for param accounting.
  std::size_t at = 0;
  std::size_t remaining = total;
  for (int part = 0; part < parts; ++part) {
    auto stage = std::make_unique<nn::Sequential>();
    const int remaining_parts = parts - part;
    const std::size_t target =
        remaining / static_cast<std::size_t>(remaining_parts);
    std::size_t acc = 0;
    while (at < n_layers) {
      // Leave at least one layer per remaining stage.
      const std::size_t layers_left = n_layers - at;
      if (layers_left <= static_cast<std::size_t>(remaining_parts - 1)) break;
      stage->add(model->release_layer(0));
      acc += layer_params[at];
      ++at;
      if (part + 1 < parts && acc >= target && acc > 0) break;
    }
    remaining -= acc;
    stages.push_back(std::move(stage));
  }
  // Any leftover layers go to the last stage.
  while (at < n_layers) {
    stages.back()->add(model->release_layer(0));
    ++at;
  }
  return stages;
}

}  // namespace msa::dist
