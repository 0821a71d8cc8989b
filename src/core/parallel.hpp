// Shared thread-pool execution core.
//
// The framework's hot loops -- HLS design-space exploration (Sec. III),
// approximate convolution (Sec. V), DNA read clustering (Sec. VI), and
// per-tile IMC MVMs (Sec. IV) -- are embarrassingly parallel. This header
// provides the one process-wide worker pool they all share, plus two
// structured primitives built on it:
//
//   parallel_for(begin, end, grain, fn)  -- chunked index loop; fn receives
//       [chunk_begin, chunk_end) sub-ranges. Chunks are claimed dynamically
//       (work stealing over an atomic cursor) so uneven iterations balance.
//   parallel_map(count, grain, fn)       -- evaluates fn(i) for i in
//       [0, count) and returns the results in index order, regardless of
//       which thread computed each element.
//
// Concurrency is `ICSC_THREADS` when set (>= 1; 1 means fully serial,
// inline execution), else std::thread::hardware_concurrency(). The pool is
// lazily created on first use. Determinism contract: callers keep bit-exact
// reproducibility by (a) drawing all RNG values serially before fanning
// out, and (b) combining results in index order -- parallel_map guarantees
// (b) by construction.
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace icsc::core {

/// Total concurrency (worker threads + the calling thread). >= 1.
std::size_t parallel_threads();

/// Reconfigures the pool to `total_threads` total concurrency (1 = fully
/// serial). 0 re-reads ICSC_THREADS / hardware_concurrency. Must not be
/// called while parallel loops are in flight on other threads.
void set_parallel_threads(std::size_t total_threads);

/// RAII guard forcing all parallel loops issued from this thread to run
/// inline and serially for its lifetime. Used by the serial-vs-parallel
/// benchmark comparisons and the bit-exactness tests.
class ScopedSerial {
 public:
  ScopedSerial();
  ~ScopedSerial();
  ScopedSerial(const ScopedSerial&) = delete;
  ScopedSerial& operator=(const ScopedSerial&) = delete;

 private:
  bool previous_;
};

/// Runs fn over [begin, end) in chunks of up to `grain` indices, spread
/// across the pool. Runs inline (single call fn(begin, end)) when the range
/// fits in one grain, concurrency is 1, or a ScopedSerial is active.
/// Exceptions thrown by fn are caught, remaining chunks are skipped, and
/// the first exception is rethrown on the calling thread after all claimed
/// chunks retire. Nested calls from inside a worker run inline.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn);

/// Order-preserving map: out[i] = fn(i) for i in [0, count). The result
/// type must be default-constructible; elements are move-assigned in place
/// by whichever thread computes them, and the returned vector is always in
/// index order.
template <typename Fn>
auto parallel_map(std::size_t count, std::size_t grain, Fn&& fn)
    -> std::vector<std::decay_t<decltype(fn(std::size_t{}))>> {
  using Result = std::decay_t<decltype(fn(std::size_t{}))>;
  std::vector<Result> out(count);
  parallel_for(0, count, grain, [&out, &fn](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) out[i] = fn(i);
  });
  return out;
}

}  // namespace icsc::core
