#include "hpc/jacobi.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace msa::hpc {

namespace {

float default_boundary(std::ptrdiff_t row, std::ptrdiff_t /*col*/) {
  return row < 0 ? 1.0f : 0.0f;  // hot top edge
}

/// One Jacobi sweep over rows [0, local_rows) of `cur` (with halo rows at
/// index -1 and local_rows stored in `top`/`bottom`), writing `next` and
/// returning the max residual.  Column boundaries come from `boundary` at
/// the given global row offset.
double sweep(const std::vector<float>& cur, std::vector<float>& next,
             const std::vector<float>& top, const std::vector<float>& bottom,
             std::size_t local_rows, std::size_t cols,
             std::size_t global_row_offset,
             const std::function<float(std::ptrdiff_t, std::ptrdiff_t)>& bc) {
  double max_res = 0.0;
  for (std::size_t r = 0; r < local_rows; ++r) {
    const auto gr = static_cast<std::ptrdiff_t>(global_row_offset + r);
    const float* up = r == 0 ? top.data() : cur.data() + (r - 1) * cols;
    const float* down =
        r + 1 == local_rows ? bottom.data() : cur.data() + (r + 1) * cols;
    const float* mid = cur.data() + r * cols;
    float* out = next.data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      const float left = c == 0 ? bc(gr, -1) : mid[c - 1];
      const float right =
          c + 1 == cols ? bc(gr, static_cast<std::ptrdiff_t>(cols)) : mid[c + 1];
      const float v = 0.25f * (up[c] + down[c] + left + right);
      max_res = std::max(max_res,
                         static_cast<double>(std::fabs(v - mid[c])));
      out[c] = v;
    }
  }
  return max_res;
}

}  // namespace

JacobiResult solve_jacobi(const JacobiConfig& config) {
  const auto bc = config.boundary ? config.boundary : default_boundary;
  const std::size_t R = config.rows, C = config.cols;
  std::vector<float> cur(R * C, 0.0f), next(R * C, 0.0f);
  std::vector<float> top(C), bottom(C);
  for (std::size_t c = 0; c < C; ++c) {
    top[c] = bc(-1, static_cast<std::ptrdiff_t>(c));
    bottom[c] = bc(static_cast<std::ptrdiff_t>(R), static_cast<std::ptrdiff_t>(c));
  }
  JacobiResult res;
  for (res.iterations = 0; res.iterations < config.max_iterations;
       ++res.iterations) {
    res.residual = sweep(cur, next, top, bottom, R, C, 0, bc);
    cur.swap(next);
    if (res.residual < config.tolerance) {
      ++res.iterations;
      break;
    }
  }
  res.grid = Tensor({R, C}, cur);
  return res;
}

JacobiResult solve_jacobi_distributed(comm::Comm& comm,
                                      const JacobiConfig& config) {
  const auto bc = config.boundary ? config.boundary : default_boundary;
  const std::size_t C = config.cols;
  const int P = comm.size();
  if (config.rows < static_cast<std::size_t>(P)) {
    throw std::invalid_argument("jacobi: fewer rows than ranks");
  }
  // Row-block decomposition; earlier ranks absorb the remainder.
  const std::size_t base = config.rows / static_cast<std::size_t>(P);
  const std::size_t rem = config.rows % static_cast<std::size_t>(P);
  auto rows_of = [&](int r) {
    return base + (static_cast<std::size_t>(r) < rem ? 1 : 0);
  };
  std::size_t my_offset = 0;
  for (int r = 0; r < comm.rank(); ++r) my_offset += rows_of(r);
  const std::size_t my_rows = rows_of(comm.rank());

  std::vector<float> cur(my_rows * C, 0.0f), next(my_rows * C, 0.0f);
  std::vector<float> top(C), bottom(C);
  const bool first = comm.rank() == 0;
  const bool last = comm.rank() == P - 1;
  constexpr int kUpTag = 901, kDownTag = 902;

  JacobiResult res;
  for (res.iterations = 0; res.iterations < config.max_iterations;
       ++res.iterations) {
    // Halo exchange: send my boundary rows, receive neighbours'.
    if (!first) {
      comm.send(std::span<const float>(cur.data(), C), comm.rank() - 1,
                kUpTag);
    }
    if (!last) {
      comm.send(std::span<const float>(cur.data() + (my_rows - 1) * C, C),
                comm.rank() + 1, kDownTag);
    }
    if (first) {
      for (std::size_t c = 0; c < C; ++c) {
        top[c] = bc(-1, static_cast<std::ptrdiff_t>(c));
      }
    } else {
      comm.recv(std::span<float>(top), comm.rank() - 1, kDownTag);
    }
    if (last) {
      for (std::size_t c = 0; c < C; ++c) {
        bottom[c] = bc(static_cast<std::ptrdiff_t>(config.rows),
                       static_cast<std::ptrdiff_t>(c));
      }
    } else {
      comm.recv(std::span<float>(bottom), comm.rank() + 1, kUpTag);
    }

    double local_res = sweep(cur, next, top, bottom, my_rows, C, my_offset, bc);
    cur.swap(next);
    // Global convergence check.
    comm.allreduce(std::span<double>(&local_res, 1), comm::ReduceOp::Max);
    // Charge the stencil flops (5 per point) on this rank's device.
    comm.charge_compute(5.0 * static_cast<double>(my_rows * C),
                        2.0 * sizeof(float) * my_rows * C);
    res.residual = local_res;
    if (local_res < config.tolerance) {
      ++res.iterations;
      break;
    }
  }

  // Gather blocks (unequal sizes: use gather of equal-size padded blocks is
  // wasteful; do a simple root-collect with point-to-point).
  constexpr int kGatherTag = 903;
  if (comm.rank() == 0) {
    std::vector<float> global(config.rows * C);
    std::copy(cur.begin(), cur.end(), global.begin());
    std::size_t at = my_rows * C;
    for (int r = 1; r < P; ++r) {
      auto block = comm.recv_any_size<float>(r, kGatherTag);
      std::copy(block.begin(), block.end(),
                global.begin() + static_cast<std::ptrdiff_t>(at));
      at += block.size();
    }
    res.grid = Tensor({config.rows, C}, global);
  } else {
    comm.send(std::span<const float>(cur), 0, kGatherTag);
    res.grid = Tensor({my_rows, C}, cur);
  }
  return res;
}

}  // namespace msa::hpc
