// Rank-parallel plan construction. A plan pass whose per-rank work
// writes only that rank's state runs on W = min(nranks, hardware threads)
// workers; worker w takes ranks w, w + W, ... Worker 0 is the calling
// thread, so W = 1 starts no thread, and the result does not depend on W.
#pragma once

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "op2ca/util/types.hpp"

namespace op2ca::halo::detail {

/// Worker count of a plan pass over `nranks` ranks.
inline int rank_workers(int nranks) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(nranks, hw));
}

/// Calls fn(w, r) for every rank r, on worker w = r % workers. Rethrows
/// the first exception a worker raised once every worker has joined.
template <typename Fn>
void for_each_rank(int nranks, int workers, const Fn& fn) {
  std::mutex mu;
  std::exception_ptr first;
  auto work = [&](int w) {
    try {
      for (rank_t r = w; r < nranks; r += workers) fn(w, r);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!first) first = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) threads.emplace_back(work, w);
  work(0);
  for (auto& t : threads) t.join();
  if (first) std::rethrow_exception(first);
}

}  // namespace op2ca::halo::detail
