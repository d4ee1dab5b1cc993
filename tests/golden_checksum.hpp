// FNV-1a over raw bit patterns, for golden tests whose expected values are
// checksums of a known-good build's outputs. Doubles are hashed by their
// bits, so a checksum pins every output exactly, signed zeros included.
#pragma once

#include <cstdint>
#include <cstring>

namespace oclp::testing_golden {

struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  void mix(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
};

}  // namespace oclp::testing_golden
