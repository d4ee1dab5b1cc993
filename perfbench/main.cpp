// perfbench: runs one benchmark workload and prints one JSON line with the
// gates, end-to-end metrics, per-layer metrics (traced run), details and
// host metadata. perfbench/run.py builds this binary, runs it and shapes
// the final result.
//
//   perfbench --workload serve_steady --seed 1 --seconds 10 --trace 0
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common/topology.hpp"
#include "timing/lane_kernels.hpp"
#include "workloads.hpp"

namespace {

// Every per-layer metric, reported by every traced run; a layer the
// workload bypasses reads 0.
const char* const kLayerMetrics[] = {
    "serve.mean_batch_size",   "serve.queue_peak",
    "serve.submit_us_p99",     "serve.check_err_frac",
    "serve.freq_changes",      "router.routed_share_max",
    "swap.lower_ms",           "swap.shadow_ms",
    "swap.flip_ms",            "charlib.recharacterise_ms",
    "core.project_batch_ns.b1", "core.project_batch_ns.b16",
    "core.project_batch_ns.b64", "core.project_settled_ns",
    "timing.run_stream_ns",    "charlib.characterise_s",
    "charlib.ns_per_sim_sample", "core.algorithm1_s",
    "bayes.ns_per_gibbs_iter", "core.klt_s",
    "core.hw_eval_s",          "core.hw_eval_ns_per_sample",
    "area.fit_s",              "loadgen.lag_p99_ms",
    "trace.overhead_frac"};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return std::strchr(buf, 'n') || std::strchr(buf, 'i') ? "null" : buf;
}

std::string json_object(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m)
    out += (out.size() > 1 ? ", " : "") + json_string(k) + ": " + json_number(v);
  return out + "}";
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      seconds = std::atof(val.c_str());
    } else if (arg == "--trace") {
      trace = val == "1";
    } else if (arg == "--trace-out") {
      trace_out = val;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (workload.empty() || !have_seed || !(seconds > 0.0))
    usage("--workload, --seed and --seconds are required");

  pb::Tracer::enable(trace);
  pb::Result r;
  const auto t0 = pb::Clock::now();
  try {
    if (workload == "serve_steady") {
      r = pb::run_serve_steady(seed, seconds);
    } else if (workload == "fleet_drift") {
      r = pb::run_fleet_drift(seed, seconds);
    } else if (workload == "design_table1") {
      r = pb::run_design_table1(seed, seconds);
    } else {
      usage(("unknown workload " + workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload %s failed: %s\n",
                 workload.c_str(), e.what());
    return 1;
  }
  const double wall_s = pb::seconds_since(t0);
  r.e2e["peak_rss_mb"] = pb::peak_rss_mb();

  if (trace) {
    const double spans = static_cast<double>(pb::Tracer::spans_closed());
    const double ns_per_span = pb::Tracer::calibrate_ns_per_span();
    r.layer["trace.overhead_frac"] = spans * ns_per_span / (wall_s * 1e9);
    r.detail["trace.spans"] = spans;
    r.detail["trace.ns_per_span"] = ns_per_span;
    if (!trace_out.empty()) pb::Tracer::write_json(trace_out);
  }
  std::map<std::string, double> layer;
  for (const char* name : kLayerMetrics) {
    const auto it = r.layer.find(name);
    layer[name] = it == r.layer.end() ? 0.0 : it->second;
  }

  std::map<std::string, double> gates;
  for (const auto& [name, passed] : r.gates) gates[name] = passed ? 1.0 : 0.0;
  const auto& topo = oclp::topology();
  std::string host = "{\"isa\": " + json_string(oclp::lane::dense_kernels().isa) +
                     ", \"numa_nodes\": " + std::to_string(topo.nodes.size()) +
                     ", \"affine_cpus\": " + std::to_string(topo.num_cpus()) +
                     ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
                     ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) + "}";

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"e2e\": %s, "
      "\"layer\": %s, \"detail\": %s, \"gates\": %s, \"host\": %s}\n",
      r.correct() ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), json_object(r.e2e).c_str(),
      json_object(layer).c_str(), json_object(r.detail).c_str(),
      json_object(gates).c_str(), host.c_str());
  return 0;
}
