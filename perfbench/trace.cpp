#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <mutex>

#include "common.hpp"

namespace pb {

namespace {

std::mutex g_mutex;
// Keyed by the name literal's address (one map probe per span); merged by
// string in stats().
std::map<const char*, SpanStat> g_stats;
std::uint64_t g_closed = 0;
thread_local Span* t_current = nullptr;

void merge(SpanStat& into, const SpanStat& from) {
  into.count += from.count;
  into.total_ns += from.total_ns;
  into.self_ns += from.self_ns;
  into.durations_ns.insert(into.durations_ns.end(), from.durations_ns.begin(),
                           from.durations_ns.end());
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

double SpanStat::quantile_ns(double q) const {
  return quantile(std::vector<double>(durations_ns.begin(), durations_ns.end()),
                  q);
}

Span::Span(const char* name) : name_(name), on_(Tracer::enabled()) {
  if (!on_) return;
  parent_ = t_current;
  t_current = this;
  t0_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (!on_) return;
  const std::int64_t dur =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0_)
          .count();
  t_current = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += dur;
  Tracer::record(name_, dur, dur - child_ns_);
}

void Tracer::record(const char* name, std::int64_t dur_ns,
                    std::int64_t self_ns) {
  std::lock_guard lock(g_mutex);
  SpanStat& s = g_stats[name];
  ++s.count;
  s.total_ns += dur_ns;
  s.self_ns += self_ns;
  s.durations_ns.push_back(static_cast<std::uint32_t>(std::min<std::int64_t>(
      dur_ns, std::numeric_limits<std::uint32_t>::max())));
  ++g_closed;
}

std::map<std::string, SpanStat> Tracer::stats() {
  std::lock_guard lock(g_mutex);
  std::map<std::string, SpanStat> out;
  for (const auto& [name, s] : g_stats) merge(out[name], s);
  return out;
}

SpanStat Tracer::stat(const std::string& name) {
  std::lock_guard lock(g_mutex);
  SpanStat out;
  for (const auto& [key, s] : g_stats)
    if (name == key) merge(out, s);
  return out;
}

std::uint64_t Tracer::spans_closed() {
  std::lock_guard lock(g_mutex);
  return g_closed;
}

double Tracer::calibrate_ns_per_span(std::size_t n) {
  static const char kName[] = "trace.calibration";
  const bool was = enabled();
  enable(true);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) Span s(kName);
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  enable(was);
  std::lock_guard lock(g_mutex);
  g_stats.erase(kName);
  g_closed -= n;
  return ns / static_cast<double>(n);
}

void Tracer::write_json(const std::string& path) {
  const auto all = stats();
  std::ofstream os(path);
  os.precision(12);
  os << "{\"spans\": [\n";
  bool first = true;
  for (const auto& [name, s] : all) {
    os << (first ? "" : ",\n") << "  {\"name\": \"" << name
       << "\", \"count\": " << s.count << ", \"total_ns\": " << s.total_ns
       << ", \"self_ns\": " << s.self_ns
       << ", \"p50_ns\": " << s.quantile_ns(0.5)
       << ", \"p99_ns\": " << s.quantile_ns(0.99) << "}";
    first = false;
  }
  os << "\n]}\n";
}

}  // namespace pb
