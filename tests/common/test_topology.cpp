#include "common/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace oclp {
namespace {

TEST(ParseCpulist, HandlesSinglesRangesAndMixes) {
  EXPECT_EQ(parse_cpulist("0"), (std::vector<int>{0}));
  EXPECT_EQ(parse_cpulist("0-3"), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(parse_cpulist("0-2,8,10-11"),
            (std::vector<int>{0, 1, 2, 8, 10, 11}));
  // sysfs pads with a trailing newline-free string; whitespace-free input
  // is the contract, but duplicates and unordered chunks must still fold.
  EXPECT_EQ(parse_cpulist("4,2,4,2-3"), (std::vector<int>{2, 3, 4}));
}

TEST(ParseCpulist, SkipsMalformedChunksInsteadOfThrowing) {
  EXPECT_TRUE(parse_cpulist("").empty());
  EXPECT_TRUE(parse_cpulist(",,").empty());
  EXPECT_EQ(parse_cpulist("x,1,-,2-"), (std::vector<int>{1}));
}

TEST(Topology, ProbeYieldsAtLeastOneNodeWithCpus) {
  const Topology topo = probe_topology();
  ASSERT_FALSE(topo.nodes.empty());
  EXPECT_GE(topo.num_cpus(), 1u);
  for (const auto& node : topo.nodes) {
    EXPECT_FALSE(node.cpus.empty());
    EXPECT_TRUE(std::is_sorted(node.cpus.begin(), node.cpus.end()));
  }
}

TEST(Topology, CachedProbeIsStable) {
  const Topology& a = topology();
  const Topology& b = topology();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_cpus(), 1u);
}

TEST(Topology, CpuForWorkerWrapsNodeMajor) {
  Topology topo;
  topo.nodes.push_back({0, {0, 1}});
  topo.nodes.push_back({1, {4, 5, 6}});
  // Node-major, cpu-ascending, wrapping modulo the 5 CPUs.
  EXPECT_EQ(topo.cpu_for_worker(0), 0);
  EXPECT_EQ(topo.cpu_for_worker(1), 1);
  EXPECT_EQ(topo.cpu_for_worker(2), 4);
  EXPECT_EQ(topo.cpu_for_worker(4), 6);
  EXPECT_EQ(topo.cpu_for_worker(5), 0);
  EXPECT_EQ(topo.cpu_for_worker(12), 4);
}

TEST(Topology, EveryProbedWorkerMapsIntoItsOwnNode) {
  // The worker→CPU rule the pinned pool relies on: every worker index
  // maps to a CPU the probe owns.
  const Topology& topo = topology();
  for (std::size_t w = 0; w < 2 * topo.num_cpus(); ++w) {
    const int cpu = topo.cpu_for_worker(w);
    bool owned = false;
    for (const auto& node : topo.nodes)
      owned = owned ||
              std::binary_search(node.cpus.begin(), node.cpus.end(), cpu);
    EXPECT_TRUE(owned) << "worker " << w << " cpu " << cpu;
  }
}

}  // namespace
}  // namespace oclp
