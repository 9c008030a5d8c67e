#include "nn/serialize.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "core/hash.hpp"

namespace msa::nn {

namespace {

// "MSALIB02": high six bytes are the format magic ("MSALIB"), low two bytes
// the version ("02").  Version 02 appends a splitmix64 checksum trailer over
// every byte after the magic word; version 01 archives (no trailer) are
// still read.  Keeping magic+version in one word preserves the on-disk
// layout of earlier archives while letting load distinguish "not ours" from
// "ours, but a different version".
constexpr std::uint64_t kMagicV1 = 0x4D53414C49423031ull;
constexpr std::uint64_t kMagic = 0x4D53414C49423032ull;
constexpr std::uint64_t kMagicPrefixMask = 0xFFFFFFFFFFFF0000ull;

/// Returns the archive version (1 or 2); throws on anything else.
int check_magic(std::uint64_t found, const std::string& path) {
  if (found == kMagic) return 2;
  if (found == kMagicV1) return 1;
  if ((found & kMagicPrefixMask) == (kMagic & kMagicPrefixMask)) {
    const auto version = [](std::uint64_t word) {
      // Low two bytes are ASCII version digits, most significant first.
      return std::string{static_cast<char>((word >> 8) & 0xFF),
                         static_cast<char>(word & 0xFF)};
    };
    throw CheckpointError(path, "msalib archive version \"" + version(found) +
                                    "\" not supported (this build reads "
                                    "versions \"01\"-\"" +
                                    version(kMagic) + "\")");
  }
  throw CheckpointError(path, "not an msalib tensor archive");
}

/// Streaming splitmix64 digest: bytes are packed into little-endian 64-bit
/// words and folded with hash::combine; a partial tail word is zero-padded.
/// The total byte count is folded into the finaliser so archives differing
/// only by trailing zero bytes cannot collide.
class StreamHasher {
 public:
  void update(const void* data, std::size_t n) {
    const char* p = static_cast<const char*>(data);
    total_ += n;
    while (n > 0) {
      const std::size_t take = std::min(n, sizeof(word_) - fill_);
      std::memcpy(reinterpret_cast<char*>(&word_) + fill_, p, take);
      fill_ += take;
      p += take;
      n -= take;
      if (fill_ == sizeof(word_)) {
        h_ = hash::combine(h_, word_);
        word_ = 0;
        fill_ = 0;
      }
    }
  }

  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = h_;
    if (fill_ > 0) h = hash::combine(h, word_);
    return hash::splitmix64(h ^ total_);
  }

 private:
  std::uint64_t h_ = hash::splitmix64(0x4D53414Cull);  // "MSAL"
  std::uint64_t word_ = 0;
  std::size_t fill_ = 0;
  std::uint64_t total_ = 0;
};

/// Writes to "<path>.tmp" and renames onto @p path at commit(), so a rank
/// killed mid-checkpoint never leaves a torn file under the real name: the
/// reader sees either the previous complete archive or the new one.  Every
/// write after the magic word feeds the checksum; commit() appends the
/// digest trailer.
class AtomicFile {
 public:
  explicit AtomicFile(std::string path)
      : path_(std::move(path)),
        tmp_(path_ + ".tmp"),
        os_(tmp_, std::ios::binary | std::ios::trunc) {
    if (!os_) {
      throw CheckpointError(tmp_, "cannot open for writing");
    }
    // Magic word: outside the checksummed region (the reader consumes it
    // before it knows whether a trailer exists).
    os_.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
  }

  ~AtomicFile() {
    // Not committed: drop the partial temp file rather than the target.
    if (os_.is_open()) {
      os_.close();
      std::remove(tmp_.c_str());
    }
  }

  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  void write(const void* data, std::size_t n) {
    hasher_.update(data, n);
    os_.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(n));
  }

  void write_u64(std::uint64_t v) { write(&v, sizeof(v)); }

  void commit() {
    const std::uint64_t digest = hasher_.digest();
    os_.write(reinterpret_cast<const char*>(&digest), sizeof(digest));
    os_.flush();
    if (!os_) throw CheckpointError(tmp_, "write failure");
    os_.close();
    if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
      std::remove(tmp_.c_str());
      throw CheckpointError(path_, "cannot rename " + tmp_ + " onto target");
    }
  }

 private:
  std::string path_;
  std::string tmp_;
  std::ofstream os_;
  StreamHasher hasher_;
};

/// Sequential archive reader: validates the magic on open, feeds every
/// payload byte through the checksum, and finish() verifies the trailer for
/// version-02 archives (version 01 has none — nothing to verify).
class ArchiveReader {
 public:
  explicit ArchiveReader(std::string path)
      : path_(std::move(path)), is_(path_, std::ios::binary) {
    if (!is_) throw CheckpointError(path_, "cannot open for reading");
    std::uint64_t magic = 0;
    is_.read(reinterpret_cast<char*>(&magic), sizeof(magic));
    if (!is_) throw CheckpointError(path_, "truncated file");
    version_ = check_magic(magic, path_);
  }

  [[nodiscard]] const std::string& path() const { return path_; }

  void read(void* out, std::size_t n, const std::string& what) {
    is_.read(static_cast<char*>(out), static_cast<std::streamsize>(n));
    if (!is_) throw CheckpointError(path_, "truncated " + what);
    hasher_.update(out, n);
  }

  std::uint64_t read_u64() {
    std::uint64_t v = 0;
    read(&v, sizeof(v), "file");
    return v;
  }

  /// Call after the last payload read: verifies the checksum trailer (v02).
  void finish() {
    if (version_ < 2) return;
    std::uint64_t stored = 0;
    is_.read(reinterpret_cast<char*>(&stored), sizeof(stored));
    if (!is_) throw CheckpointError(path_, "truncated checksum trailer");
    const std::uint64_t computed = hasher_.digest();
    if (stored != computed) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "checksum mismatch (stored %016llx, computed %016llx)",
                    static_cast<unsigned long long>(stored),
                    static_cast<unsigned long long>(computed));
      throw CheckpointError(path_, buf);
    }
  }

 private:
  std::string path_;
  std::ifstream is_;
  int version_ = 2;
  StreamHasher hasher_;
};

/// Writes an archive whose tensors are flat 1-D spans, streaming each span
/// with a single contiguous write (the slab fast path).
void save_spans(const std::string& path,
                const std::vector<std::span<const float>>& spans) {
  AtomicFile file(path);
  file.write_u64(spans.size());
  for (const auto& s : spans) {
    file.write_u64(1);  // ndim
    file.write_u64(s.size());
    file.write(s.data(), s.size_bytes());
  }
  file.commit();
}

/// Reads the next archived tensor directly into @p out (flattened); the
/// stored element count must equal out.size().
void read_tensor_into(ArchiveReader& in, std::span<float> out,
                      const std::string& what) {
  const std::uint64_t ndim = in.read_u64();
  std::uint64_t numel = ndim == 0 ? 0 : 1;
  for (std::uint64_t d = 0; d < ndim; ++d) numel *= in.read_u64();
  if (numel != out.size()) {
    throw CheckpointError(in.path(), what + " element count " +
                                         std::to_string(numel) +
                                         " != expected " +
                                         std::to_string(out.size()));
  }
  in.read(out.data(), out.size_bytes(), what + " data");
}

/// Scalar optimizer state rides along as one extra 1-D tensor at the end.
Tensor pack_scalar_state(const Optimizer& optimizer) {
  const auto scalars = optimizer.scalar_state();
  Tensor scalar_tensor({scalars.size() + 1});
  scalar_tensor[0] = static_cast<float>(scalars.size());
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    scalar_tensor[i + 1] = static_cast<float>(scalars[i]);
  }
  return scalar_tensor;
}

void unpack_scalar_state(const Tensor& scalar_tensor, Optimizer& optimizer) {
  const auto n_scalars = static_cast<std::size_t>(scalar_tensor[0]);
  std::vector<double> scalars;
  for (std::size_t i = 0; i < n_scalars; ++i) {
    scalars.push_back(static_cast<double>(scalar_tensor[i + 1]));
  }
  optimizer.restore_scalar_state(scalars);
}

/// Streams every tensor of an archive without materialising it, verifying
/// structure and (v02) the checksum trailer.
void verify_archive(const std::string& path) {
  ArchiveReader in(path);
  const std::uint64_t count = in.read_u64();
  std::vector<float> scratch;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t ndim = in.read_u64();
    std::uint64_t numel = ndim == 0 ? 0 : 1;
    for (std::uint64_t d = 0; d < ndim; ++d) numel *= in.read_u64();
    scratch.resize(static_cast<std::size_t>(numel));
    in.read(scratch.data(), scratch.size() * sizeof(float),
            "tensor " + std::to_string(i) + " data");
  }
  in.finish();
}

}  // namespace

void save_tensors(const std::string& path,
                  const std::vector<const Tensor*>& tensors) {
  AtomicFile file(path);
  file.write_u64(tensors.size());
  for (const Tensor* t : tensors) {
    file.write_u64(t->ndim());
    for (std::size_t d = 0; d < t->ndim(); ++d) file.write_u64(t->dim(d));
    file.write(t->data(), t->numel() * sizeof(float));
  }
  file.commit();
}

std::vector<Tensor> load_tensors(const std::string& path) {
  ArchiveReader in(path);
  const std::uint64_t count = in.read_u64();
  std::vector<Tensor> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t ndim = in.read_u64();
    Shape shape;
    for (std::uint64_t d = 0; d < ndim; ++d) {
      shape.push_back(static_cast<std::size_t>(in.read_u64()));
    }
    Tensor t(shape);
    in.read(t.data(), t.numel() * sizeof(float),
            "data for tensor " + std::to_string(i) + " of " +
                std::to_string(count));
    out.push_back(std::move(t));
  }
  in.finish();
  return out;
}

void save_parameters(const std::string& path, ParamStore& store) {
  const std::span<float> slab = store.param_span();
  save_spans(path, {std::span<const float>(slab.data(), slab.size())});
}

void load_parameters(const std::string& path, ParamStore& store) {
  ArchiveReader in(path);
  const std::uint64_t count = in.read_u64();
  if (count != 1) {
    throw CheckpointError(path, "expected one parameter slab, found " +
                                    std::to_string(count) + " tensors");
  }
  read_tensor_into(in, store.param_span(), "parameter slab");
  in.finish();
}

Checkpoint save_checkpoint(const std::string& prefix, ParamStore& store,
                           Optimizer& optimizer) {
  if (store.attached_optimizer() != &optimizer) {
    throw CheckpointError(prefix,
                          "optimizer is not attached to this ParamStore");
  }
  Checkpoint ckpt{prefix + ".params.bin", prefix + ".optstate.bin"};
  save_parameters(ckpt.params_path, store);
  const std::span<float> opt_slab = store.opt_span();
  const Tensor scalar_tensor = pack_scalar_state(optimizer);
  save_spans(ckpt.optimizer_path,
             {std::span<const float>(opt_slab.data(), opt_slab.size()),
              scalar_tensor.flat()});
  return ckpt;
}

void load_checkpoint(const Checkpoint& ckpt, ParamStore& store,
                     Optimizer& optimizer) {
  if (store.attached_optimizer() != &optimizer) {
    throw CheckpointError(ckpt.params_path,
                          "optimizer is not attached to this ParamStore");
  }
  load_parameters(ckpt.params_path, store);
  ArchiveReader in(ckpt.optimizer_path);
  const std::uint64_t count = in.read_u64();
  if (count != 2) {
    throw CheckpointError(ckpt.optimizer_path,
                          "expected [state slab, scalars], found " +
                              std::to_string(count) + " tensors");
  }
  read_tensor_into(in, store.opt_span(), "optimizer state slab");
  Tensor scalar_tensor({0});
  {
    // The scalar trailer is small; read its header then payload.
    const std::uint64_t ndim = in.read_u64();
    std::uint64_t numel = ndim == 0 ? 0 : 1;
    for (std::uint64_t d = 0; d < ndim; ++d) numel *= in.read_u64();
    scalar_tensor = Tensor({static_cast<std::size_t>(numel)});
    in.read(scalar_tensor.data(), numel * sizeof(float), "scalar state");
  }
  in.finish();
  unpack_scalar_state(scalar_tensor, optimizer);
}

void verify_checkpoint(const Checkpoint& ckpt) {
  verify_archive(ckpt.params_path);
  verify_archive(ckpt.optimizer_path);
}

}  // namespace msa::nn
