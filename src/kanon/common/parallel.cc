#include "kanon/common/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>

#include "kanon/telemetry/tracer.h"

namespace kanon {

int DefaultNumThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ResolveNumThreads(int requested) {
  return requested > 0 ? requested : DefaultNumThreads();
}

namespace {

// Upper bound on chunks per sweep. Enough granularity for work stealing to
// balance uneven chunks, few enough that the per-chunk claim (one atomic
// fetch_add, one stop poll) is noise.
constexpr size_t kMaxChunks = 256;

// How long an idle pool thread keeps polling for the next sweep (a worker)
// or for the workers to leave (the caller) before it parks on a condition
// variable. An engine issues its short sweeps back to back with a few
// microseconds of serial work between them; a worker that is still spinning
// picks the next one up without a futex wake-up, and one that idles longer
// costs no more than this much CPU before it sleeps.
constexpr std::chrono::microseconds kSpin{100};

// True while the current thread executes sweep chunks (worker or caller).
// Nested sweeps run inline so a chunk body can reuse parallel helpers
// without deadlocking the pool.
thread_local bool t_in_sweep = false;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Spins for at most kSpin until done() holds; returns whether it did.
template <typename Done>
bool SpinUntil(const Done& done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  for (;;) {
    if (done()) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    CpuRelax();
  }
}

// One sweep's shared state. It lives on the calling thread's stack: the
// caller does not return before every pool worker has left the sweep, and
// workers reach it only through the pool's slot while the sweep is open.
struct Job {
  const std::function<void(size_t, size_t, size_t)>* body = nullptr;
  size_t n = 0;
  size_t num_chunks = 0;
  RunContext* ctx = nullptr;
  Tracer* tracer = nullptr;              // Sweep's tracer; workers record
  const char* stage = "";                // their participation against it.
  std::atomic<size_t> next{0};           // Next chunk to claim.
  std::atomic<int> stop{0};              // First StopReason observed, or 0.
};

// Half-open range of chunk c when [0, n) is cut into `chunks` balanced
// chunks (the first n % chunks chunks get one extra item).
std::pair<size_t, size_t> ChunkRange(size_t n, size_t chunks, size_t c) {
  const size_t base = n / chunks;
  const size_t extra = n % chunks;
  const size_t begin = c * base + std::min(c, extra);
  return {begin, begin + base + (c < extra ? 1 : 0)};
}

// Claims and runs chunks until the sweep is exhausted or stopped; returns
// the number of chunks this thread ran. Shared by pool workers and the
// calling thread.
size_t DrainChunks(Job& job) {
  // Save/restore rather than set/clear: a nested (inline) sweep must not
  // clear the flag while the enclosing sweep is still running, or the next
  // nested call would take the pool path and self-deadlock on region_mu_.
  const bool was_in_sweep = t_in_sweep;
  t_in_sweep = true;
  size_t ran = 0;
  for (;;) {
    if (job.stop.load(std::memory_order_relaxed) != 0) break;
    if (job.ctx != nullptr) {
      const StopReason r = job.ctx->StopRequested();
      if (r != StopReason::kNone) {
        int expected = 0;
        job.stop.compare_exchange_strong(expected, static_cast<int>(r),
                                         std::memory_order_relaxed);
        break;
      }
    }
    const size_t chunk = job.next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job.num_chunks) break;
    const auto [begin, end] = ChunkRange(job.n, job.num_chunks, chunk);
    (*job.body)(chunk, begin, end);
    ++ran;
  }
  t_in_sweep = was_in_sweep;
  return ran;
}

// A lazily started pool of DrainChunks workers. One sweep runs at a time
// (concurrent top-level sweeps serialize on region_mu_); the pool grows to
// the largest extra-worker count ever requested and is joined at exit.
//
// Hand-off: generation_ is odd while a sweep is open to workers and even
// otherwise. A worker enters a sweep by incrementing active_ and then
// re-reading generation_; the caller closes the sweep by bumping
// generation_ and then waits for active_ to drain. Both sides use
// sequentially consistent operations, so either the caller sees the
// worker's increment and waits for it, or the worker sees the sweep closed
// and backs out — a late worker never touches the next sweep's job.
class ThreadPool {
 public:
  static ThreadPool& Instance() {
    static ThreadPool pool;
    return pool;
  }

  // Runs `job` on the caller plus up to `extra_workers` pool threads;
  // returns only when every participant has left the job.
  void Run(Job& job, size_t extra_workers) {
    std::lock_guard<std::mutex> region(region_mu_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (workers_.size() < extra_workers) {
        workers_.emplace_back([this] { WorkerLoop(); });
      }
    }
    job_ = &job;
    seats_.store(static_cast<int>(extra_workers));
    const uint64_t open = generation_.load() + 1;
    generation_.store(open);
    if (sleepers_.load() > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      wake_cv_.notify_all();
    }
    DrainChunks(job);
    generation_.store(open + 1);
    if (!SpinUntil([this] { return active_.load() == 0; })) {
      std::unique_lock<std::mutex> lock(mu_);
      caller_parked_.store(true);
      done_cv_.wait(lock, [this] { return active_.load() == 0; });
      caller_parked_.store(false);
    }
    job_ = nullptr;
  }

 private:
  ThreadPool() = default;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_.store(true);
    }
    wake_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  // Returns the generation of an open sweep newer than `seen`, or 0 at
  // shutdown. Spins for kSpin, then parks.
  uint64_t AwaitSweep(uint64_t seen) {
    uint64_t g = 0;
    const auto ready = [&] {
      if (shutdown_.load()) {
        g = 0;
        return true;
      }
      g = generation_.load();
      return (g & 1) != 0 && g > seen;
    };
    if (SpinUntil(ready)) return g;
    std::unique_lock<std::mutex> lock(mu_);
    sleepers_.fetch_add(1);
    wake_cv_.wait(lock, ready);
    sleepers_.fetch_sub(1);
    return g;
  }

  void WorkerLoop() {
    uint64_t seen = 0;
    for (;;) {
      const uint64_t g = AwaitSweep(seen);
      if (g == 0) return;
      seen = g;
      active_.fetch_add(1);
      // Seats bound participation to the sweep's thread budget; workers
      // beyond it (from an earlier, wider sweep) sit this one out.
      if (generation_.load() == g && seats_.fetch_sub(1) > 0) {
        Job& job = *job_;
        // Worker-lane span: when the sweep is traced, each participating
        // pool worker records one "worker" span covering its DrainChunks
        // stint. Which worker claims which chunks is scheduling-dependent,
        // so these lanes are outside the determinism contract (lane 0's
        // "sweep" span is the deterministic record); a stint that claimed
        // zero chunks is suppressed entirely.
        PhaseSpan span(job.tracer, job.stage, "worker");
        const size_t ran = DrainChunks(job);
        span.set_items(ran);
        if (ran == 0) span.Cancel();
      }
      if (active_.fetch_sub(1) == 1 && caller_parked_.load()) {
        std::lock_guard<std::mutex> lock(mu_);
        done_cv_.notify_one();
      }
    }
  }

  std::mutex region_mu_;  // Serializes top-level sweeps.
  // Guards worker creation and the two parking spots; the hand-off state
  // below is atomic and read outside it.
  std::mutex mu_;
  std::condition_variable wake_cv_;  // Parked workers wait for a sweep.
  std::condition_variable done_cv_;  // A parked caller waits for active_ 0.
  std::vector<std::thread> workers_;
  Job* job_ = nullptr;  // The open sweep; published by generation_.
  std::atomic<uint64_t> generation_{0};
  std::atomic<int> seats_{0};        // Extra workers still allowed in.
  std::atomic<int> active_{0};       // Workers inside the current sweep.
  std::atomic<int> sleepers_{0};     // Workers parked on wake_cv_.
  std::atomic<bool> caller_parked_{false};
  std::atomic<bool> shutdown_{false};
};

}  // namespace

size_t ParallelChunkCount(size_t n, size_t grain) {
  const size_t g = std::max<size_t>(grain, 1);
  return std::min(kMaxChunks, n / g + (n % g != 0 ? 1 : 0));
}

std::pair<size_t, size_t> ParallelChunkRange(size_t n, size_t chunk,
                                             size_t grain) {
  return ChunkRange(n, ParallelChunkCount(n, grain), chunk);
}

SweepStatus ParallelChunks(
    size_t n, int num_threads, RunContext* ctx, const char* stage,
    const std::function<void(size_t, size_t, size_t)>& body, size_t grain) {
  if (ctx != nullptr && ctx->stopped()) return {false};
  if (n == 0) return {true};
  Job job;
  job.body = &body;
  job.n = n;
  job.num_chunks = ParallelChunkCount(n, grain);
  job.ctx = ctx;
  // Sweep span + step accounting. Only top-level sweeps are traced (nested
  // sweeps run inline inside an already-traced chunk); lane 0 records
  // exactly one "sweep" span per sweep and the step clock advances by the
  // chunk count — both pure functions of (n, grain), never of the thread
  // count.
  Tracer* const tracer = t_in_sweep ? nullptr : CurrentTracer();
  PhaseSpan sweep_span(tracer, stage, "sweep");
  if (tracer != nullptr) {
    sweep_span.set_items(job.num_chunks);
    tracer->AdvanceSteps(job.num_chunks);
    job.tracer = tracer;
    job.stage = stage;
  }
  const size_t threads = std::min<size_t>(
      static_cast<size_t>(ResolveNumThreads(num_threads)), job.num_chunks);
  if (threads <= 1 || t_in_sweep) {
    DrainChunks(job);
  } else {
    ThreadPool::Instance().Run(job, threads - 1);
  }
  const int stop = job.stop.load(std::memory_order_relaxed);
  if (stop != 0) {
    if (ctx != nullptr) ctx->NoteStop(static_cast<StopReason>(stop));
    return {false};
  }
  // Step accounting: one deterministic step per completed sweep. A budget
  // tripped here stops the run from the next checkpoint on.
  if (ctx != nullptr) ctx->CheckPoint(stage);
  return {true};
}

SweepStatus ParallelFor(size_t n, int num_threads, RunContext* ctx,
                        const char* stage,
                        const std::function<void(size_t)>& body,
                        size_t grain) {
  return ParallelChunks(
      n, num_threads, ctx, stage,
      [&](size_t /*chunk*/, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) body(i);
      },
      grain);
}

ArgminResult ParallelArgmin(size_t n, int num_threads, RunContext* ctx,
                            const char* stage,
                            const std::function<double(size_t)>& eval,
                            size_t grain) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Part {
    size_t index = 0;
    double value = kInf;
    bool valid = false;
  };
  std::vector<Part> parts(ParallelChunkCount(n, grain));
  const SweepStatus sweep = ParallelChunks(
      n, num_threads, ctx, stage,
      [&](size_t chunk, size_t begin, size_t end) {
        Part local;
        for (size_t i = begin; i < end; ++i) {
          const double v = eval(i);
          // Strict < in ascending index order: first (smallest) index wins
          // ties, exactly like a serial scan.
          if (!local.valid || v < local.value) {
            local.index = i;
            local.value = v;
            local.valid = true;
          }
        }
        parts[chunk] = local;
      },
      grain);
  ArgminResult out;
  out.completed = sweep.completed;
  for (const Part& p : parts) {
    // Chunk-index order: on equal values the earlier chunk (smaller
    // indices) keeps the win.
    if (p.valid && (!out.valid || p.value < out.value)) {
      out.index = p.index;
      out.value = p.value;
      out.valid = true;
    }
  }
  return out;
}

}  // namespace kanon
