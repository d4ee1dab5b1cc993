// Host metadata the BENCH_*.json trajectories record next to their
// numbers, so a figure can be traced to the machine and build that made
// it (tools/check_perf_floors.py prints it beside any failed floor).
#pragma once

#include <string>
#include <thread>

#include "timing/lane_kernels.hpp"

namespace oclp::bench {

/// The JSON "host" object: the lane-kernel ISA the settle kernel
/// dispatched to, hardware threads, compiler and build type.
inline std::string host_json() {
  return std::string("{\"isa\": \"") + lane::dense_kernels().isa +
         "\", \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" OCLP_BENCH_COMPILER
         "\", \"build_type\": \"" OCLP_BENCH_BUILD_TYPE "\"}";
}

}  // namespace oclp::bench
