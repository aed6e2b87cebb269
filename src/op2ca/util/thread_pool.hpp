// Per-rank worker pool for shared-memory parallel region execution.
//
// One pool belongs to one simulated rank: the rank thread is participant
// 0 and `threads - 1` persistent workers join it inside run(). run() is a
// fork-join barrier — it returns only after every participant finished —
// so the caller may freely read/write rank-local state between calls
// without extra synchronisation (the completion handshake goes through
// the pool mutex, which publishes all worker writes to the caller).
//
// run_graph() executes a task DAG instead of a flat job: tasks carry
// atomic dependency counters and completed tasks release their
// successors into per-worker deques, which idle participants steal from
// (LIFO for the owner, FIFO for thieves). One graph execution is one
// epoch of the same fork-join handshake, so the completion guarantees of
// run() carry over unchanged.
//
// Exceptions thrown by any participant (e.g. the validation raise in
// arg_ref) are captured and the first one is rethrown from run() /
// run_graph() on the rank thread, preserving the World::run
// error-collection contract. A throwing graph task additionally aborts
// the epoch: remaining tasks are abandoned, every participant drains,
// and the pool stays reusable.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace op2ca::util {

/// Per-epoch counters of one run_graph() call.
struct GraphStats {
  std::int64_t tasks = 0;   ///< task bodies executed.
  std::int64_t steals = 0;  ///< tasks taken from another worker's deque.
  double dep_wait_seconds = 0;  ///< summed idle time spent dependency-
                                ///< starved (no runnable task anywhere).
};

class ThreadPool {
public:
  /// Total participant count including the caller; spawns threads - 1
  /// workers. threads must be >= 1 (1 = no workers, run() degenerates to
  /// a plain call of fn(0)).
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }

  /// Invokes fn(t) for every t in [0, threads) — t = 0 on the calling
  /// thread — and blocks until all participants returned. Rethrows the
  /// first captured exception. Not reentrant.
  void run(const std::function<void(int)>& fn);

  /// Executes a dependency DAG of `num_tasks` tasks: body(i) runs exactly
  /// once per task, never before all of i's predecessors finished.
  /// succ_off/succ is the successor CSR (succ_off has num_tasks + 1
  /// entries); indegree[i] is task i's predecessor count (read-only —
  /// the pool keeps its own atomic counters). Roots are seeded
  /// round-robin across the participants' deques in ascending task
  /// order; a completed task pushes each successor whose counter reaches
  /// zero onto the finishing worker's deque. With threads() == 1 the
  /// ready set degenerates to a FIFO processed on the caller — the same
  /// per-cell execution order as any wider schedule, since the DAG, not
  /// the schedule, orders every pair of conflicting tasks. Blocks until
  /// the whole graph drained; rethrows the first task exception (the
  /// epoch aborts, remaining tasks are skipped, and the pool remains
  /// usable). Not reentrant: a task body must not call back into the
  /// pool. `stats`, when given, receives this epoch's counters.
  /// Participants are clamped to hardware_concurrency() per epoch —
  /// oversubscribed workers only time-slice against each other, and the
  /// DAG makes the worker count bitwise-irrelevant — except while a
  /// task-jitter hook is installed (the stress suites drive
  /// oversubscribed schedules on purpose).
  void run_graph(int num_tasks, const std::int32_t* succ_off,
                 const std::int32_t* succ, const std::int32_t* indegree,
                 const std::function<void(int)>& body,
                 GraphStats* stats = nullptr);

  /// Test hook (schedule-stress suites): `hook(task)` runs at the start
  /// of every graph task on the executing thread — e.g. a randomized
  /// sleep that perturbs the schedule. Global across pools; pass nullptr
  /// to clear. Must only be (un)installed while no graph is running.
  static void set_task_jitter(std::function<void(int)> hook);

  /// Total seconds participants spent inside fn across all run() calls
  /// (per-thread busy time, summed). Stable between run() calls.
  double busy_seconds() const { return busy_seconds_; }

private:
  /// One participant's ready-task deque. The owner pushes and pops at
  /// the back (LIFO keeps released successors cache-warm); thieves take
  /// from the front (FIFO steals the oldest, largest-subtree work).
  struct WorkDeque {
    std::mutex mu;
    std::deque<std::int32_t> q;
  };

  void worker_main(int index);
  void graph_participant(int self);
  /// Runs one task body and releases its successors. Returns false when
  /// the epoch aborted (task threw).
  bool execute_graph_task(std::int32_t task, WorkDeque& mine);
  void run_graph_serial(int num_tasks, const std::int32_t* succ_off,
                        const std::int32_t* succ,
                        const std::int32_t* indegree,
                        const std::function<void(int)>& body);

  int threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t generation_ = 0;  ///< bumped per run(); wakes workers.
  int remaining_ = 0;             ///< participants still inside the job.
  bool stopping_ = false;
  std::exception_ptr first_error_;
  double busy_seconds_ = 0;

  // Graph-epoch state, valid only while run_graph() is inside run().
  std::vector<std::unique_ptr<WorkDeque>> deques_;  ///< one per thread.
  std::unique_ptr<std::atomic<std::int32_t>[]> deps_;
  std::size_t deps_capacity_ = 0;
  const std::int32_t* graph_succ_off_ = nullptr;
  const std::int32_t* graph_succ_ = nullptr;
  const std::function<void(int)>* graph_body_ = nullptr;
  int graph_total_ = 0;
  int graph_active_ = 1;  ///< participants this epoch (oversubscription
                          ///< clamp; excess participants return at once).
  std::atomic<int> graph_done_{0};
  std::atomic<bool> graph_abort_{false};
  std::atomic<std::int64_t> graph_steals_{0};
  std::mutex graph_mu_;  ///< guards graph_error_ and graph_dep_wait_.
  std::exception_ptr graph_error_;
  double graph_dep_wait_ = 0;
};

}  // namespace op2ca::util
