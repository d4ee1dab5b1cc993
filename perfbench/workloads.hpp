// The benchmark's three workloads. Each fills a Result: gates, end-to-end
// metrics (setup_s, p50_ms, p90_ms, ops_per_s; peak_rss_mb is added by
// main), per-layer metrics of the layers it exercises, and details. The
// seed makes the inputs; everything else is a fixed constant.
#pragma once

#include <cstdint>

#include "common.hpp"

namespace pb {

Result run_serve_steady(std::uint64_t seed, double seconds);
Result run_fleet_drift(std::uint64_t seed, double seconds);
Result run_design_table1(std::uint64_t seed, double seconds);

}  // namespace pb
