// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own files, around its calls into
// each runtime layer; nothing inside src/ is instrumented. A span holds a
// name, host start/end, the span that enclosed it on the same thread, and
// the job (episode) it belongs to. The record is written as Chrome
// trace-event JSON (open it in https://ui.perfetto.dev); past a cap, spans
// are counted but not kept. Per-thread time in top-level spans is summed for
// the trace-coverage metric.
//
// When tracing is off, Tracer::active() is false and Span costs one branch.
#pragma once
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  /// The process-wide tracer; off until enable().
  static Tracer& instance();

  /// Spans are recorded only between enable() and disable(); toggle them
  /// only while no rank thread is running.
  void enable() noexcept { active_.store(true, std::memory_order_relaxed); }
  void disable() noexcept { active_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool active() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }

  /// Sum of the durations of closed spans with no parent on thread `tid`.
  [[nodiscard]] double top_level_seconds(int tid) const;

  /// Write every recorded span as Chrome trace-event JSON. Returns false
  /// when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;
  [[nodiscard]] std::size_t recorded() const;
  [[nodiscard]] std::size_t dropped() const;

  // Used by Span.
  std::uint32_t open() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void close(std::uint32_t id, const char* name, int tid, std::uint64_t job,
             Clock::time_point start, Clock::time_point end, std::uint32_t parent);

 private:
  struct Record {
    const char* name;
    int tid;
    std::uint64_t job;
    std::uint32_t id;
    std::uint32_t parent;  ///< 0 = none
    double start_us;
    double dur_us;
  };
  static constexpr std::size_t kMaxRecorded = 50000;  ///< bounds the trace file
  Tracer() { records_.reserve(kMaxRecorded); }
  std::atomic<bool> active_{false};
  const Clock::time_point origin_ = Clock::now();
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mutex_;  ///< guards everything below
  std::vector<Record> records_;
  std::size_t dropped_ = 0;
  std::map<int, double> top_level_;
};

/// RAII span around one call into a layer. `tid` is the rank (or -1 for the
/// main thread); `job` groups the spans of one episode (0: not tied to one).
class Span {
 public:
  Span(const char* name, int tid, std::uint64_t job);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  int tid_;
  std::uint64_t job_;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  Clock::time_point start_{};
};

}  // namespace perfbench
