// Span tracing for the benchmark's traced run (--trace 1).
//
// A Span brackets one call from the benchmark into a library module
// (ProjectionServer::submit, characterise_multiplier, ...). Spans nest per
// thread: a span's self time is its duration minus the time covered by the
// spans opened inside it on the same thread. Statistics are kept in memory
// per span name — count, total and self nanoseconds, and every duration for
// percentiles — and written out when the run ends. With tracing off a Span
// costs one relaxed atomic load.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

struct SpanStat {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::vector<std::uint32_t> durations_ns;  ///< per span, saturating

  /// q-quantile of the durations in nanoseconds (0 when empty).
  double quantile_ns(double q) const;
};

class Tracer {
 public:
  static void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Merged statistics of every span closed so far, by name.
  static std::map<std::string, SpanStat> stats();
  /// Statistics of one span name (empty when it never closed).
  static SpanStat stat(const std::string& name);
  /// Spans closed so far, all names.
  static std::uint64_t spans_closed();

  /// Cost of one traced span on the calling thread, measured by opening
  /// and closing `n` spans; the calibration spans are not kept.
  static double calibrate_ns_per_span(std::size_t n = 200000);

  /// Write the per-name count/total/self table as JSON.
  static void write_json(const std::string& path);

 private:
  friend class Span;
  static void record(const char* name, std::int64_t dur_ns,
                     std::int64_t self_ns);
  static std::atomic<bool> enabled_;
};

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool on_;
  std::chrono::steady_clock::time_point t0_;
  std::int64_t child_ns_ = 0;
  Span* parent_ = nullptr;
};

}  // namespace pb
