// Host topology probe: which CPUs this process may run on, grouped by
// NUMA node. ThreadPool pins its workers by it (cpu_for_worker), and the
// benchmarks record the node and CPU counts with their results.
//
// The probe reads sysfs (/sys/devices/system/node) and intersects each
// node's cpulist with the process affinity mask; on hosts without sysfs
// NUMA information (or non-Linux builds) it degenerates to a single node
// holding every affine CPU. Probing happens once and is cached — topology
// does not change under a running process, and a stable answer keeps the
// worker→CPU assignment fixed.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace oclp {

struct TopologyNode {
  int id = 0;                ///< OS node id (node<N> in sysfs)
  std::vector<int> cpus;     ///< affine CPUs of this node, ascending
};

struct Topology {
  std::vector<TopologyNode> nodes;  ///< non-empty, ascending node id

  /// Total affine CPUs across nodes.
  std::size_t num_cpus() const {
    std::size_t n = 0;
    for (const auto& node : nodes) n += node.cpus.size();
    return n;
  }

  /// The i-th affine CPU in (node-major, cpu-ascending) order — the
  /// worker→CPU assignment rule of ThreadPool pinning. Wraps modulo the
  /// CPU count, so any worker index maps to a valid CPU.
  int cpu_for_worker(std::size_t worker) const;
};

/// The cached process-wide probe (thread-safe; probed on first use).
const Topology& topology();

/// An uncached probe — test hook, and what topology() runs once.
Topology probe_topology();

/// Parse a sysfs-style cpulist ("0-3,8,10-11") into ascending CPU ids.
/// Exposed for tests; malformed chunks are skipped rather than throwing
/// (sysfs is trusted but the parser must not take the process down).
std::vector<int> parse_cpulist(const std::string& list);

}  // namespace oclp
