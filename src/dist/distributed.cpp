#include "dist/distributed.hpp"

#include <array>
#include <numeric>
#include <utility>

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

double DistributedTrainer::average_metric(double value) {
  std::array<double, 1> v = {value};
  comm::Comm& data = engine_.mesh().data();
  data.allreduce(std::span<double>(v), comm::ReduceOp::Sum);
  return v[0] / data.size();
}

}  // namespace msa::dist
