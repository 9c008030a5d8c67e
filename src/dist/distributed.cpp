#include "dist/distributed.hpp"

#include <array>
#include <numeric>
#include <utility>

#include "obs/trace.hpp"
#include "tensor/rng.hpp"

namespace msa::dist {

void broadcast_parameters(comm::Comm& comm, nn::Layer& model, int root) {
  for (nn::Tensor* p : model.params()) {
    comm.bcast(p->flat(), root);
  }
}

void broadcast_parameters(comm::Comm& comm, nn::ParamStore& store, int root) {
  comm.bcast(store.param_span(), root);
}

std::vector<std::size_t> full_epoch_permutation(std::size_t dataset_size,
                                                std::uint64_t seed,
                                                std::size_t epoch) {
  std::vector<std::size_t> perm(dataset_size);
  std::iota(perm.begin(), perm.end(), 0);
  tensor::Rng rng(seed + 0x51ED2701u * (epoch + 1));
  for (std::size_t i = dataset_size; i > 1; --i) {
    const std::size_t j = rng.uniform_index(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

ShardedSampler::ShardedSampler(std::size_t dataset_size, int rank, int world,
                               std::uint64_t seed)
    : dataset_size_(dataset_size),
      rank_(rank),
      world_(world),
      seed_(seed),
      per_rank_(dataset_size / static_cast<std::size_t>(world)) {}

std::vector<std::size_t> ShardedSampler::epoch_indices(
    std::size_t epoch) const {
  // Same permutation on all ranks (common seed + epoch), then strided shard.
  const std::vector<std::size_t> perm =
      full_epoch_permutation(dataset_size_, seed_, epoch);
  std::vector<std::size_t> mine;
  mine.reserve(per_rank_);
  for (std::size_t k = 0; k < per_rank_; ++k) {
    mine.push_back(perm[k * static_cast<std::size_t>(world_) +
                        static_cast<std::size_t>(rank_)]);
  }
  return mine;
}

DistributedTrainer::DistributedTrainer(comm::Comm& comm, nn::Layer& model,
                                       nn::Optimizer& opt,
                                       AllreduceOptions options)
    : comm_(comm), model_(model), opt_(opt), store_(model) {
  store_.attach_optimizer(opt_);
  // Gradients are per-microbatch means, so the cross-rank average equals the
  // gradient of the global batch; one rank needs no reduction at all.
  if (comm_.size() > 1) {
    // Collective under `hierarchical`: every rank constructs its trainer
    // SPMD, as with splits.
    reducer_.emplace(comm_, store_, options);
    if (options.overlap) model_.set_backward_observer(&*reducer_);
  }
}

DistributedTrainer::~DistributedTrainer() {
  if (reducer_ && reducer_->overlapped()) {
    model_.set_backward_observer(nullptr);
  }
}

void DistributedTrainer::backward_reduce_apply(const nn::Tensor& loss_grad,
                                               double fwd_flops) {
  // Simulated device time is forward + 2x backward.  Overlapped, the forward
  // is charged before backward starts and the reducer's hooks charge 2x each
  // layer's forward flops as its backward completes (so bucket issue times
  // interleave honestly with compute); the top-up keeps the total at exactly
  // 3x forward.
  const bool hooked = reducer_ && reducer_->overlapped();
  if (hooked) comm_.charge_compute(fwd_flops, 0.0);
  if (reducer_) reducer_->begin_step();
  {
    obs::ScopedSpan span(obs::Category::Compute, "backward");
    model_.backward(loss_grad);
  }
  if (hooked) {
    const double remainder = 2.0 * fwd_flops - reducer_->charged_flops();
    if (remainder > 0.0) comm_.charge_compute(remainder, 0.0);
  } else {
    comm_.charge_compute(3.0 * fwd_flops, 0.0);
  }
  if (reducer_) reducer_->finish();
  obs::ScopedSpan span(obs::Category::Compute, "optimizer");
  store_.step(opt_);
}

StepResult DistributedTrainer::step_classification(
    const nn::Tensor& x, const std::vector<std::int32_t>& labels) {
  obs::ScopedSpan step(obs::Category::Step, "step");
  store_.zero_grads();
  nn::Tensor logits = [&] {
    obs::ScopedSpan span(obs::Category::Compute, "forward");
    return model_.forward(x, /*training=*/true);
  }();
  auto res = nn::softmax_cross_entropy(logits, labels);
  if (loss_scale_ != 1.0) {
    for (float& g : res.grad.flat()) g *= static_cast<float>(loss_scale_);
  }
  backward_reduce_apply(res.grad, model_.forward_flops());
  return {res.loss, nn::accuracy(logits, labels)};
}

StepResult DistributedTrainer::step_regression(const nn::Tensor& x,
                                               const nn::Tensor& target,
                                               bool use_mae) {
  obs::ScopedSpan step(obs::Category::Step, "step");
  store_.zero_grads();
  nn::Tensor pred = [&] {
    obs::ScopedSpan span(obs::Category::Compute, "forward");
    return model_.forward(x, /*training=*/true);
  }();
  auto res = use_mae ? nn::mae_loss(pred, target) : nn::mse_loss(pred, target);
  if (loss_scale_ != 1.0) {
    for (float& g : res.grad.flat()) g *= static_cast<float>(loss_scale_);
  }
  backward_reduce_apply(res.grad, model_.forward_flops());
  return {res.loss, 0.0};
}

double DistributedTrainer::average_metric(double value) {
  std::array<double, 1> v = {value};
  comm_.allreduce(std::span<double>(v), comm::ReduceOp::Sum);
  return v[0] / comm_.size();
}

}  // namespace msa::dist
