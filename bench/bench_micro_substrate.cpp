// Micro-benchmarks of the substrate hot paths (google-benchmark): gate
// netlist evaluation, the two-frame over-clocking step, STA, the
// characterisation stream (per-frequency reference and single-pass
// multi-frequency), and coefficient quantisation. These bound how long a
// full device characterisation takes (millions of multiplications per
// E(m, f) table).
//
// Besides the google-benchmark suite, main() runs a fixed sweep-throughput
// probe — an 8×8 characterisation over a 12-point frequency grid — through
// both the per-frequency reference path and the single-pass engine, and
// writes the result to BENCH_substrate.json so successive PRs can track
// the sweep-throughput trajectory mechanically.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "charlib/char_circuit.hpp"
#include "charlib/sweep.hpp"
#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "fabric/calibration.hpp"
#include "fabric/timing_annotation.hpp"
#include "mult/bitcodec.hpp"
#include "mult/multiplier.hpp"
#include "netlist/sta.hpp"
#include "reference/double_sim.hpp"
#include "timing/overclock_sim.hpp"

#include "bench_host.hpp"

using namespace oclp;

namespace {

void BM_NetlistEvaluate(benchmark::State& state) {
  const int wl = static_cast<int>(state.range(0));
  const Netlist nl = make_multiplier(wl, 9);
  Rng rng(1);
  for (auto _ : state) {
    auto bits = to_bits(rng.uniform_u64(1u << wl), wl);
    append_bits(bits, rng.uniform_u64(512), 9);
    benchmark::DoNotOptimize(nl.evaluate_outputs(bits));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetlistEvaluate)->Arg(4)->Arg(8)->Arg(9);

void BM_OverclockStep(benchmark::State& state) {
  const int wl = static_cast<int>(state.range(0));
  Device device(reference_device_config(), kReferenceDieSeed);
  Netlist nl = make_multiplier(wl, 9);
  auto delays = annotate_timing(nl, device, reference_location_1());
  OverclockSim sim(std::move(nl), std::move(delays));
  Rng rng(2);
  auto bits = to_bits(0, wl);
  append_bits(bits, 0, 9);
  sim.reset(bits);
  for (auto _ : state) {
    bits = to_bits(rng.uniform_u64(1u << wl), wl);
    append_bits(bits, rng.uniform_u64(512), 9);
    benchmark::DoNotOptimize(sim.step(bits, 3.2));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OverclockStep)->Arg(4)->Arg(8)->Arg(9);

void BM_StaticTiming(benchmark::State& state) {
  Device device(reference_device_config(), kReferenceDieSeed);
  const Netlist nl = make_multiplier(9, 9);
  const auto delays = annotate_timing(nl, device, reference_location_1());
  for (auto _ : state) benchmark::DoNotOptimize(static_timing(nl, delays));
}
BENCHMARK(BM_StaticTiming);

void BM_TimingAnnotation(benchmark::State& state) {
  Device device(reference_device_config(), kReferenceDieSeed);
  const Netlist nl = make_multiplier(9, 9);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Placement p{10, 10, ++seed};
    benchmark::DoNotOptimize(annotate_timing(nl, device, p));
  }
}
BENCHMARK(BM_TimingAnnotation);

void BM_CharacterisationStream(benchmark::State& state) {
  Device device(reference_device_config(), kReferenceDieSeed);
  device.set_temperature(kCharacterisationTempC);
  CharCircuitConfig cfg;
  CharacterisationCircuit circuit(cfg, device, reference_location_1());
  const auto xs = uniform_stream(8, 256, 3);
  for (auto _ : state)
    benchmark::DoNotOptimize(circuit.run(222, xs, kFig4ClockMhz));
  state.SetItemsProcessed(state.iterations() * xs.size());
}
BENCHMARK(BM_CharacterisationStream);

// The single-pass engine on an F-point grid: items = characterised
// (sample, frequency) points, so the per-item time is directly comparable
// with BM_CharacterisationStream run F times.
void BM_CharacterisationStreamMulti(benchmark::State& state) {
  const std::size_t num_freqs = static_cast<std::size_t>(state.range(0));
  Device device(reference_device_config(), kReferenceDieSeed);
  device.set_temperature(kCharacterisationTempC);
  CharCircuitConfig cfg;
  cfg.with_jitter = false;
  CharacterisationCircuit circuit(cfg, device, reference_location_1());
  const auto xs = uniform_stream(8, 256, 3);
  const double lo = circuit.dut_tool_fmax_mhz();
  const double hi = circuit.support_fmax_mhz() * 0.9;
  std::vector<double> freqs;
  for (std::size_t i = 0; i < num_freqs; ++i)
    freqs.push_back(lo + (hi - lo) * static_cast<double>(i) /
                             static_cast<double>(num_freqs));
  CharacterisationCircuit::Workspace ws;
  for (auto _ : state)
    benchmark::DoNotOptimize(circuit.run_multi(222, xs, freqs, 3, &ws));
  state.SetItemsProcessed(state.iterations() * xs.size() * num_freqs);
}
BENCHMARK(BM_CharacterisationStreamMulti)->Arg(4)->Arg(12)->Arg(32);

// Streaming settle propagation of an 8×8 calibrated multiplier including
// per-sample threshold capture at a jittered period: the integer-picosecond
// max-plus kernel (run_stream) against the double-walk reference stream
// (one advance per sample) over the same netlist and delays, so toggle
// activity is identical and only the kernel differs.
void settle_stream_bench(benchmark::State& state, bool integer_kernel) {
  Device device(reference_device_config(), kReferenceDieSeed);
  Netlist nl = make_multiplier(8, 8);
  auto delays = annotate_timing(nl, device, reference_location_1());
  const ref::DoubleSim ref_sim(nl, delays);
  OverclockSim sim(std::move(nl), std::move(delays));
  const std::size_t ni = sim.netlist().num_inputs();

  const std::size_t n = 4096;
  Rng rng(11);
  std::vector<std::uint8_t> flat(n * ni);
  std::vector<double> periods(n);
  std::vector<std::uint64_t> pticks(n);
  const double crit_ns = PsGrid::to_ns(
      static_cast<std::uint32_t>(sim.critical_path_ticks()));
  for (std::size_t s = 0; s < n; ++s) {
    auto row = to_bits(rng.uniform_u64(256), 8);
    append_bits(row, rng.uniform_u64(256), 8);
    std::copy(row.begin(), row.end(), flat.begin() + s * ni);
    periods[s] = rng.uniform(0.45, 1.05) * crit_ns;
    pticks[s] = PsGrid::period_ticks(periods[s]);
  }

  const std::vector<std::uint8_t> zero(ni, 0);
  OverclockSim::State st;
  OverclockSim::SweepStream stream;
  ref::DoubleSim::State ref_st;
  ref::DoubleSim::Stream ref_stream;
  std::uint64_t sum = 0;
  for (auto _ : state) {
    if (integer_kernel) {
      sim.reset(st, zero);
      sim.run_stream(st, flat.data(), n, stream);
      for (std::size_t s = 0; s < n; ++s)
        sum += stream.capture_word_ticks(s, pticks[s]);
    } else {
      ref_sim.reset(ref_st, zero);
      ref_sim.run_stream(ref_st, flat.data(), n, ref_stream);
      for (std::size_t s = 0; s < n; ++s)
        sum += ref_stream.capture_word(s, periods[s]);
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * n);
}
void BM_SettleStreamInt(benchmark::State& state) {
  settle_stream_bench(state, true);
}
void BM_SettleStreamDouble(benchmark::State& state) {
  settle_stream_bench(state, false);
}
BENCHMARK(BM_SettleStreamInt);
BENCHMARK(BM_SettleStreamDouble);

void BM_QuantizeCoeff(benchmark::State& state) {
  Rng rng(4);
  for (auto _ : state)
    benchmark::DoNotOptimize(quantize_coeff(rng.uniform(-1.0, 1.0), 9));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuantizeCoeff);

void BM_DeviceConstruction(benchmark::State& state) {
  const DeviceConfig cfg = reference_device_config();
  std::uint64_t seed = 0;
  for (auto _ : state) benchmark::DoNotOptimize(Device(cfg, ++seed));
}
BENCHMARK(BM_DeviceConstruction);

// --- Sweep-throughput probe (machine-readable trajectory) ---

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Best-of repeated timing: one pass of these workloads runs in
// milliseconds, far below scheduler noise, so each engine is repeated
// until `budget_s` of wall time accumulates (min 3 reps) and the fastest
// rep is reported.
template <typename Fn>
double best_seconds(Fn&& fn, double budget_s) {
  double best = 1e300, acc = 0.0;
  int reps = 0;
  while (acc < budget_s || reps < 3) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double dt = seconds_since(t0);
    best = std::min(best, dt);
    acc += dt;
    ++reps;
  }
  return best;
}

// Cell-at-a-time interpretation of the over-clocking timing model — the
// pre-compiled evaluation substrate, kept here as the baseline the compiled
// kernel's speedup is measured against (and checksum-verified against).
class InterpretedBaseline {
 public:
  InterpretedBaseline(const Netlist& nl, std::vector<double> delay)
      : nl_(nl), delay_(std::move(delay)) {}

  void reset(const std::vector<std::uint8_t>& in) {
    prev_ = nl_.evaluate(in);
    next_ = prev_;
    settle_.assign(nl_.num_nets(), 0.0);
    out_settle_.assign(nl_.outputs().size(), 0.0);
    out_prev_.assign(nl_.outputs().size(), 0);
    out_next_.assign(nl_.outputs().size(), 0);
  }

  void advance(const std::vector<std::uint8_t>& in) {
    const std::size_t ni = nl_.num_inputs();
    for (std::size_t i = 0; i < ni; ++i) {
      next_[i] = in[i];
      settle_[i] = 0.0;
    }
    const auto& cells = nl_.cells();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      const std::size_t out = ni + i;
      const int arity = cell_arity(c.type);
      const bool a = arity > 0 && next_[c.in[0]];
      const bool b = arity > 1 && next_[c.in[1]];
      const bool cc = arity > 2 && next_[c.in[2]];
      const auto v = static_cast<std::uint8_t>(cell_eval(c.type, a, b, cc));
      next_[out] = v;
      if (v == prev_[out]) {
        settle_[out] = 0.0;
        continue;
      }
      double launch = 0.0;
      for (int k = 0; k < arity; ++k)
        if (next_[c.in[k]] != prev_[c.in[k]])
          launch = std::max(launch, settle_[c.in[k]]);
      settle_[out] = launch + (cell_is_free(c.type) ? 0.0 : delay_[i]);
    }
    const auto& outs = nl_.outputs();
    for (std::size_t o = 0; o < outs.size(); ++o) {
      out_settle_[o] = settle_[outs[o]];
      out_prev_[o] = prev_[outs[o]];
      out_next_[o] = next_[outs[o]];
    }
    prev_.swap(next_);
  }

  /// Per-bit threshold capture of output o at `period` (the pre-compiled
  /// per-frequency sampling loop).
  std::uint8_t sample_output(std::size_t o, double period) const {
    return out_settle_[o] <= period ? out_next_[o] : out_prev_[o];
  }

  std::size_t num_outputs() const { return nl_.outputs().size(); }

 private:
  const Netlist& nl_;
  std::vector<double> delay_;
  std::vector<std::uint8_t> prev_, next_;
  std::vector<double> settle_;
  std::vector<double> out_settle_;
  std::vector<std::uint8_t> out_prev_, out_next_;
};

// Interpreted single-pass multi-frequency characterisation of one
// multiplicand — exactly the workload run_multi performs (including trace
// storage and per-bit threshold capture), on the interpreter.
std::size_t interpreted_run_multi(InterpretedBaseline& sim, int wl_m, int wl_x,
                                  std::uint32_t m,
                                  const std::vector<std::uint32_t>& xs,
                                  const std::vector<double>& periods) {
  struct Trace {
    std::vector<std::uint64_t> observed, expected;
    std::vector<std::int64_t> error;
    std::size_t erroneous = 0;
  };
  std::vector<Trace> traces(periods.size());
  for (auto& t : traces) {
    t.observed.reserve(xs.size());
    t.expected.reserve(xs.size());
    t.error.reserve(xs.size());
  }

  std::vector<std::uint8_t> in;
  auto encode = [&](std::uint32_t x) {
    in.clear();
    append_bits(in, m, wl_m);
    append_bits(in, x, wl_x);
  };
  encode(0);
  sim.reset(in);
  const std::size_t nbits = sim.num_outputs();
  for (const std::uint32_t x : xs) {
    encode(x);
    sim.advance(in);
    const std::uint64_t exp =
        static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(x);
    for (std::size_t fi = 0; fi < periods.size(); ++fi) {
      std::uint64_t obs = 0;
      for (std::size_t k = 0; k < nbits; ++k)
        obs |= static_cast<std::uint64_t>(sim.sample_output(k, periods[fi]))
               << k;
      Trace& t = traces[fi];
      t.observed.push_back(obs);
      t.expected.push_back(exp);
      t.error.push_back(static_cast<std::int64_t>(obs) -
                        static_cast<std::int64_t>(exp));
      if (obs != exp) ++t.erroneous;
    }
  }
  std::size_t erroneous = 0;
  for (const auto& t : traces) erroneous += t.erroneous;
  return erroneous;
}

void write_sweep_probe(const char* path, bool smoke) {
  Device device(reference_device_config(), kReferenceDieSeed);
  device.set_temperature(kCharacterisationTempC);
  CharCircuitConfig cfg;  // 8×8 DUT
  cfg.with_jitter = false;
  CharacterisationCircuit circuit(cfg, device, reference_location_1());

  const std::size_t num_freqs = 12;
  const std::size_t num_m = smoke ? 24 : 256;
  const double lo = circuit.dut_tool_fmax_mhz();
  const double hi = std::min(circuit.support_fmax_mhz() * 0.95,
                             circuit.dut_device_fmax_mhz() * 1.4);
  std::vector<double> freqs;
  for (std::size_t i = 0; i < num_freqs; ++i)
    freqs.push_back(lo + (hi - lo) * static_cast<double>(i) /
                             static_cast<double>(num_freqs - 1));
  const auto xs = uniform_stream(8, 64, 3);
  const double total_samples =
      static_cast<double>(num_m) * static_cast<double>(xs.size()) *
      static_cast<double>(num_freqs);

  const double budget_s = smoke ? 0.3 : 1.5;

  // Single-pass path on the compiled kernel: one stream per multiplicand.
  std::size_t checksum_single = 0;
  CharacterisationCircuit::Workspace ws;
  const double dt_single = best_seconds(
      [&] {
        checksum_single = 0;
        for (std::size_t m = 0; m < num_m; ++m) {
          const auto traces = circuit.run_multi(static_cast<std::uint32_t>(m),
                                                xs, freqs, m, &ws);
          for (const auto& t : traces) checksum_single += t.erroneous;
        }
      },
      budget_s);

  // The same single-pass workload on the cell-at-a-time interpreter (the
  // pre-compiled substrate) — the compiled kernel must beat it while
  // producing bit-identical error counts.
  std::vector<double> periods(num_freqs);
  for (std::size_t i = 0; i < num_freqs; ++i) periods[i] = 1000.0 / freqs[i];
  InterpretedBaseline interp(
      circuit.dut(), annotate_timing(circuit.dut(), device, reference_location_1()));
  std::size_t checksum_interp = 0;
  const double dt_interp = best_seconds(
      [&] {
        checksum_interp = 0;
        for (std::size_t m = 0; m < num_m; ++m)
          checksum_interp += interpreted_run_multi(
              interp, 8, 8, static_cast<std::uint32_t>(m), xs, periods);
      },
      budget_s);

  // Per-frequency reference path: one stream simulation per (m, f).
  std::size_t checksum_ref = 0;
  const double dt_ref = best_seconds(
      [&] {
        checksum_ref = 0;
        for (std::size_t m = 0; m < num_m; ++m)
          for (double f : freqs)
            checksum_ref +=
                circuit.run(static_cast<std::uint32_t>(m), xs, f, m).erroneous;
      },
      budget_s);

  const double sps_single = total_samples / dt_single;
  const double sps_interp = total_samples / dt_interp;
  const double sps_ref = total_samples / dt_ref;

  // Settle-kernel section: the integer-picosecond max-plus stream kernel
  // vs the double-walk reference stream on one calibrated 8×8 multiplier,
  // per-sample jittered-period captures included. The two paths must agree
  // bit for bit (the PsGrid dequantisation is exact); the speedup is what
  // the batched projection and sweep paths gain per settle pass over a
  // per-sample double walk.
  Netlist sk_nl = make_multiplier(8, 8);
  auto sk_delays = annotate_timing(sk_nl, device, reference_location_1());
  const ref::DoubleSim sk_ref(sk_nl, sk_delays);
  OverclockSim sk_sim(std::move(sk_nl), std::move(sk_delays));
  const std::size_t sk_ni = sk_sim.netlist().num_inputs();
  const std::size_t sk_n = smoke ? 4096 : 32768;
  Rng sk_rng(11);
  std::vector<std::uint8_t> sk_flat(sk_n * sk_ni);
  std::vector<double> sk_periods(sk_n);
  std::vector<std::uint64_t> sk_pticks(sk_n);
  const double sk_crit_ns = PsGrid::to_ns(
      static_cast<std::uint32_t>(sk_sim.critical_path_ticks()));
  for (std::size_t s = 0; s < sk_n; ++s) {
    auto row = to_bits(sk_rng.uniform_u64(256), 8);
    append_bits(row, sk_rng.uniform_u64(256), 8);
    std::copy(row.begin(), row.end(), sk_flat.begin() + s * sk_ni);
    sk_periods[s] = sk_rng.uniform(0.45, 1.05) * sk_crit_ns;
    sk_pticks[s] = PsGrid::period_ticks(sk_periods[s]);
  }
  const std::vector<std::uint8_t> sk_zero(sk_ni, 0);
  OverclockSim::State sk_st;
  OverclockSim::SweepStream sk_stream;
  std::uint64_t checksum_int = 0, checksum_double = 0;
  const double dt_int = best_seconds(
      [&] {
        checksum_int = 0;
        sk_sim.reset(sk_st, sk_zero);
        sk_sim.run_stream(sk_st, sk_flat.data(), sk_n, sk_stream);
        for (std::size_t s = 0; s < sk_n; ++s)
          checksum_int += sk_stream.capture_word_ticks(s, sk_pticks[s]);
      },
      budget_s);
  ref::DoubleSim::State sk_ref_st;
  ref::DoubleSim::Stream sk_ref_stream;
  const double dt_double = best_seconds(
      [&] {
        checksum_double = 0;
        sk_ref.reset(sk_ref_st, sk_zero);
        sk_ref.run_stream(sk_ref_st, sk_flat.data(), sk_n, sk_ref_stream);
        for (std::size_t s = 0; s < sk_n; ++s)
          checksum_double += sk_ref_stream.capture_word(s, sk_periods[s]);
      },
      budget_s);
  const double sps_int = static_cast<double>(sk_n) / dt_int;
  const double sps_double = static_cast<double>(sk_n) / dt_double;
  const bool sk_match = checksum_int == checksum_double;

  std::ofstream os(path);
  os.precision(10);
  os << "{\n"
     << "  \"bench\": \"sweep_throughput\",\n"
     << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
     << "  \"host\": " << bench::host_json() << ",\n"
     << "  \"wl_m\": 8,\n  \"wl_x\": 8,\n"
     << "  \"freq_points\": " << num_freqs << ",\n"
     << "  \"samples_per_point\": " << xs.size() << ",\n"
     << "  \"multiplicands\": " << num_m << ",\n"
     << "  \"single_pass_samples_per_sec\": " << sps_single << ",\n"
     << "  \"interpreted_single_pass_samples_per_sec\": " << sps_interp << ",\n"
     << "  \"per_freq_reference_samples_per_sec\": " << sps_ref << ",\n"
     << "  \"speedup\": " << sps_single / sps_ref << ",\n"
     << "  \"compiled_vs_interpreted_speedup\": " << sps_single / sps_interp
     << ",\n"
     << "  \"erroneous_checksum_match\": "
     << (checksum_single == checksum_ref ? "true" : "false") << ",\n"
     << "  \"interpreted_checksum_match\": "
     << (checksum_single == checksum_interp ? "true" : "false") << ",\n"
     << "  \"settle_kernel_samples\": " << sk_n << ",\n"
     << "  \"settle_kernel_int_samples_per_sec\": " << sps_int << ",\n"
     << "  \"settle_kernel_double_samples_per_sec\": " << sps_double << ",\n"
     << "  \"settle_kernel_speedup\": " << sps_int / sps_double << ",\n"
     << "  \"settle_kernel_checksum_match\": "
     << (sk_match ? "true" : "false") << "\n"
     << "}\n";
  std::printf(
      "sweep_throughput: compiled single-pass %.3g samples/s, interpreted "
      "%.3g samples/s (%.2fx), per-freq reference %.3g samples/s (%.2fx), "
      "checksums %s/%s -> %s\n",
      sps_single, sps_interp, sps_single / sps_interp, sps_ref,
      sps_single / sps_ref,
      checksum_single == checksum_interp ? "interp-match" : "INTERP-MISMATCH",
      checksum_single == checksum_ref ? "ref-match" : "REF-MISMATCH", path);
  std::printf(
      "settle_kernel: int-ps %.3g samples/s, double %.3g samples/s "
      "(%.2fx), checksums %s\n",
      sps_int, sps_double, sps_int / sps_double,
      sk_match ? "match" : "MISMATCH");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int forward_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else
      argv[forward_argc++] = argv[i];
  }
  argc = forward_argc;

  write_sweep_probe("BENCH_substrate.json", smoke);
  if (smoke) return 0;  // CI only tracks the probe JSON
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
