// Binary checkpointing of models and optimizer state.
//
// The NAM module's flagship application is accelerating checkpoint/restart
// (paper Sec. II-A, ref [12]); this is the serialisation layer those
// checkpoints use.  The on-disk format is a simple self-describing tensor
// archive: magic, tensor count, then per tensor (ndim, dims..., fp32 data).
#pragma once

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_store.hpp"

namespace msa::nn {

/// Checkpoint I/O or format failure.  what() always leads with the offending
/// file path ("<path>: <reason>"); path() exposes it for programmatic
/// handling (e.g. a recovery loop deciding which archive to fall back to).
class CheckpointError : public std::runtime_error {
 public:
  CheckpointError(std::string path, const std::string& reason)
      : std::runtime_error(path + ": " + reason), path_(std::move(path)) {}

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Write @p tensors to @p path.  Throws CheckpointError on I/O failure.
void save_tensors(const std::string& path,
                  const std::vector<const Tensor*>& tensors);

/// Read all tensors from @p path.
[[nodiscard]] std::vector<Tensor> load_tensors(const std::string& path);

/// Stream the parameter slab as ONE contiguous 1-D tensor (layout fixed by
/// registration order, see nn::ParamStore).
void save_parameters(const std::string& path, ParamStore& store);

/// Restore a slab archive written by save_parameters; the element count
/// must match the store's layout.  One contiguous read into the slab.
void load_parameters(const std::string& path, ParamStore& store);

/// Full training checkpoint: parameters + optimizer state + counters.
struct Checkpoint {
  std::string params_path;
  std::string optimizer_path;
};

/// Saves the parameter slab and the optimizer-state slab under @p prefix,
/// each streamed as one contiguous tensor (+ the scalar-state trailer).  The
/// optimizer must be attached to @p store (ParamStore::attach_optimizer).
[[nodiscard]] Checkpoint save_checkpoint(const std::string& prefix,
                                         ParamStore& store,
                                         Optimizer& optimizer);

/// Restores a checkpoint bit-exactly: weights, optimizer-state slab, and
/// scalar counters.  @p store must have the same layout (same model,
/// same registration order) and the same optimizer attached.
void load_checkpoint(const Checkpoint& ckpt, ParamStore& store,
                     Optimizer& optimizer);

/// Streams both archives of @p ckpt end to end, validating structure and the
/// version-02 checksum trailer, without touching any model state.  Throws
/// CheckpointError on truncation or checksum mismatch — the recovery path
/// calls this before committing to a restore so a torn or bit-flipped
/// archive falls back to the previous generation instead of poisoning the
/// run.
void verify_checkpoint(const Checkpoint& ckpt);

}  // namespace msa::nn
