#include "dist/hybrid.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "dist/distributed.hpp"

namespace msa::dist {

HybridStrategy::HybridStrategy(comm::Comm& comm, ModelFactory model_factory,
                               OptimizerFactory optimizer_factory,
                               HybridOptions options)
    : comm_(comm),
      model_factory_(std::move(model_factory)),
      opt_factory_(std::move(optimizer_factory)),
      options_(options) {
  if (!model_factory_ || !opt_factory_) {
    throw std::invalid_argument("HybridStrategy: null factory");
  }
  if (options_.pipeline_stages < 1 || options_.microbatches < 1) {
    throw std::invalid_argument("HybridStrategy: bad options");
  }
  build();
}

void HybridStrategy::build() {
  const int world = comm_.size();
  int S = std::min(options_.pipeline_stages, world);
  while (S > 1 && world % S != 0) --S;
  stages_now_ = std::max(S, 1);

  auto parts = partition_model(model_factory_(), stages_now_);
  part_sizes_.clear();
  for (const auto& part : parts) {
    std::size_t n = 0;
    for (const nn::Tensor* t : part->params()) n += t->numel();
    part_sizes_.push_back(n);
  }

  Mesh mesh(comm_, MeshOptions{stages_now_, options_.topology_aware});
  stage_.reset();  // the engine refers to the part and optimizer replaced here
  part_ = std::move(parts[static_cast<std::size_t>(mesh.stage())]);
  optimizer_ = opt_factory_();
  stage_ = std::make_unique<PipelineStage>(std::move(mesh), *part_,
                                           *optimizer_, options_.allreduce);
}

StepResult HybridStrategy::step_classification(
    const nn::Tensor& x, const std::vector<std::int32_t>& labels) {
  const std::size_t B = x.dim(0);
  if (labels.size() != B) {
    throw std::invalid_argument("HybridStrategy: batch/label mismatch");
  }
  if (B == 0) return {};
  const auto M = std::min<std::size_t>(
      static_cast<std::size_t>(options_.microbatches), B);
  const std::size_t base = B / M;
  const std::size_t rem = B % M;
  const std::size_t row = x.numel() / B;

  std::vector<nn::Tensor> xs;
  std::vector<std::vector<std::int32_t>> ys;
  xs.reserve(M);
  ys.reserve(M);
  std::size_t at = 0;
  for (std::size_t i = 0; i < M; ++i) {
    const std::size_t take = base + (i < rem ? 1 : 0);
    nn::Shape shape;
    shape.push_back(take);
    for (std::size_t d = 1; d < x.ndim(); ++d) shape.push_back(x.dim(d));
    nn::Tensor mb(shape);
    std::memcpy(mb.data(), x.data() + at * row, take * row * sizeof(float));
    xs.push_back(std::move(mb));
    ys.emplace_back(labels.begin() + static_cast<std::ptrdiff_t>(at),
                    labels.begin() + static_cast<std::ptrdiff_t>(at + take));
    at += take;
  }

  return stage_->step_classification(xs, ys);
}

StateBlob HybridStrategy::capture_state() {
  nn::ParamStore& store = stage_->param_store();
  comm::Comm& pipe = stage_->mesh().pipe();
  const int S = stages_now_;
  const int my_stage = stage_->mesh().stage();

  // Agree on every stage's slab sizes (equal-size allgather of two counts).
  std::uint64_t mine[2] = {store.size(), store.opt_span().size()};
  std::vector<std::uint64_t> sizes;
  if (S > 1) {
    sizes = pipe.allgather(std::span<const std::uint64_t>(mine, 2));
  } else {
    sizes = {mine[0], mine[1]};
  }

  std::size_t total = 0;
  for (int s = 0; s < S; ++s) total += sizes[2 * static_cast<std::size_t>(s)];
  // State roles per parameter — uniform across stages (2 for Adam's m/v).
  std::size_t roles = 0;
  for (int s = 0; s < S; ++s) {
    const std::size_t n = sizes[2 * static_cast<std::size_t>(s)];
    const std::size_t o = sizes[2 * static_cast<std::size_t>(s) + 1];
    if (n == 0) {
      if (o != 0) {
        throw std::logic_error("HybridStrategy: state without parameters");
      }
      continue;
    }
    if (o % n != 0) {
      throw std::logic_error("HybridStrategy: non-uniform optimizer state");
    }
    const std::size_t ks = o / n;
    if (roles == 0) {
      roles = ks;
    } else if (ks != roles) {
      throw std::logic_error("HybridStrategy: optimizer roles differ by stage");
    }
  }

  StateBlob blob;
  blob.params.resize(total);
  blob.opt_state.resize(roles * total);
  std::vector<float> scratch;
  std::size_t off = 0;
  for (int s = 0; s < S; ++s) {
    const std::size_t n = sizes[2 * static_cast<std::size_t>(s)];
    const std::size_t o = sizes[2 * static_cast<std::size_t>(s) + 1];
    if (n == 0) continue;
    // Stage s broadcasts its parameter slab down the pipe into the blob's
    // layer-order position...
    std::span<float> dst(blob.params.data() + off, n);
    if (s == my_stage) {
      const auto src = store.param_span();
      std::copy(src.begin(), src.end(), dst.begin());
    }
    if (S > 1) pipe.bcast(dst, s);
    // ...and its optimizer slab, remapped role-major into the full layout.
    if (o > 0) {
      scratch.assign(o, 0.0f);
      if (s == my_stage) {
        const auto src = store.opt_span();
        std::copy(src.begin(), src.end(), scratch.begin());
      }
      if (S > 1) pipe.bcast(std::span<float>(scratch), s);
      for (std::size_t j = 0; j < roles; ++j) {
        std::copy(scratch.begin() + static_cast<std::ptrdiff_t>(j * n),
                  scratch.begin() + static_cast<std::ptrdiff_t>((j + 1) * n),
                  blob.opt_state.begin() +
                      static_cast<std::ptrdiff_t>(j * total + off));
      }
    }
    off += n;
  }
  blob.scalars = optimizer_->scalar_state();
  return blob;
}

void HybridStrategy::load_state(const StateBlob& blob) {
  nn::ParamStore& store = stage_->param_store();
  const std::size_t total = blob.params.size();
  const int my_stage = stage_->mesh().stage();
  std::size_t off = 0;
  for (int s = 0; s < my_stage; ++s) {
    off += part_sizes_[static_cast<std::size_t>(s)];
  }
  const std::size_t n = part_sizes_[static_cast<std::size_t>(my_stage)];
  if (n != store.size() || off + n > total) {
    throw std::logic_error("HybridStrategy: blob/partition mismatch");
  }
  std::copy(blob.params.begin() + static_cast<std::ptrdiff_t>(off),
            blob.params.begin() + static_cast<std::ptrdiff_t>(off + n),
            store.param_span().begin());
  const auto opt = store.opt_span();
  if (!opt.empty()) {
    if (total == 0 || blob.opt_state.size() % total != 0 ||
        opt.size() != blob.opt_state.size() / total * n) {
      throw std::logic_error("HybridStrategy: optimizer blob mismatch");
    }
    const std::size_t roles = blob.opt_state.size() / total;
    for (std::size_t j = 0; j < roles; ++j) {
      std::copy(
          blob.opt_state.begin() +
              static_cast<std::ptrdiff_t>(j * total + off),
          blob.opt_state.begin() +
              static_cast<std::ptrdiff_t>(j * total + off + n),
          opt.begin() + static_cast<std::ptrdiff_t>(j * n));
    }
  }
  optimizer_->restore_scalar_state(blob.scalars);
}

void HybridStrategy::align_initial() {
  broadcast_parameters(stage_->mesh().data(), stage_->param_store());
}

void HybridStrategy::align_restored() {
  comm::Comm& data = stage_->mesh().data();
  broadcast_parameters(data, stage_->param_store());
  auto opt = stage_->param_store().opt_span();
  if (!opt.empty()) data.bcast(opt, /*root=*/0);
}

double HybridStrategy::average_metric(double value) {
  double v = value;
  if (comm_.size() > 1) {
    comm_.allreduce(std::span<double>(&v, 1), comm::ReduceOp::Sum);
  }
  return v / static_cast<double>(comm_.size());
}

}  // namespace msa::dist
