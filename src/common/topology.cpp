#include "common/topology.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

namespace oclp {

namespace {

// CPUs the process is allowed to run on. Pinning must stay inside the
// affinity mask a container/cgroup handed us — stepping outside it would
// either fail or fight the scheduler.
std::vector<int> affine_cpus() {
  std::vector<int> cpus;
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
#endif
  if (cpus.empty()) {
    const auto n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned c = 0; c < n; ++c) cpus.push_back(static_cast<int>(c));
  }
  return cpus;
}

}  // namespace

std::vector<int> parse_cpulist(const std::string& list) {
  std::vector<int> cpus;
  std::stringstream ss(list);
  std::string chunk;
  while (std::getline(ss, chunk, ',')) {
    if (chunk.empty()) continue;
    const auto dash = chunk.find('-');
    char* end = nullptr;
    if (dash == std::string::npos) {
      const long c = std::strtol(chunk.c_str(), &end, 10);
      if (end != chunk.c_str() && c >= 0) cpus.push_back(static_cast<int>(c));
      continue;
    }
    const long lo = std::strtol(chunk.c_str(), &end, 10);
    char* end2 = nullptr;
    const long hi = std::strtol(chunk.c_str() + dash + 1, &end2, 10);
    if (end == chunk.c_str() || end2 == chunk.c_str() + dash + 1) continue;
    for (long c = lo; c >= 0 && c <= hi; ++c)
      cpus.push_back(static_cast<int>(c));
  }
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  return cpus;
}

Topology probe_topology() {
  Topology topo;
  const std::vector<int> affine = affine_cpus();

#ifdef __linux__
  // One node per /sys/devices/system/node/node<N>, keeping only the CPUs
  // we are affine to. Node ids are probed densely from 0: sysfs node
  // numbering can have holes on partitioned machines, so keep scanning
  // across a bounded gap rather than stopping at the first miss.
  int misses = 0;
  for (int id = 0; misses < 16; ++id) {
    std::ifstream f("/sys/devices/system/node/node" + std::to_string(id) +
                    "/cpulist");
    if (!f) {
      ++misses;
      continue;
    }
    misses = 0;
    std::string list;
    std::getline(f, list);
    TopologyNode node;
    node.id = id;
    for (int c : parse_cpulist(list))
      if (std::binary_search(affine.begin(), affine.end(), c))
        node.cpus.push_back(c);
    if (!node.cpus.empty()) topo.nodes.push_back(std::move(node));
  }
#endif

  if (topo.nodes.empty()) {
    TopologyNode node;
    node.id = 0;
    node.cpus = affine;
    topo.nodes.push_back(std::move(node));
  }
  return topo;
}

const Topology& topology() {
  static const Topology topo = probe_topology();
  return topo;
}

int Topology::cpu_for_worker(std::size_t worker) const {
  const std::size_t n = num_cpus();
  if (n == 0) return 0;
  std::size_t i = worker % n;
  for (const auto& node : nodes) {
    if (i < node.cpus.size()) return node.cpus[i];
    i -= node.cpus.size();
  }
  return nodes.front().cpus.front();
}

}  // namespace oclp
