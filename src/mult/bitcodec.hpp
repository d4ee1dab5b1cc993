// Integer ↔ bit-vector packing for driving netlist inputs and reading
// outputs. All buses are LSB-first.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.hpp"

namespace oclp {

/// Lowest `bits` bits of value, LSB first.
std::vector<std::uint8_t> to_bits(std::uint64_t value, int bits);

/// Append the lowest `bits` bits of value to `out`.
void append_bits(std::vector<std::uint8_t>& out, std::uint64_t value, int bits);

/// Row-builder for the row-major stream inputs of OverclockSim::run_stream:
/// writes the lowest `bits` bits of value as 0/1 bytes at dst[0, bits),
/// eight bytes per store (a byte's bits spread by one multiply). It may
/// also write up to 7 bytes past dst + bits, so callers building rows left
/// to right keep that much slack after the last row.
inline void store_bit_bytes(std::uint8_t* dst, std::uint64_t value, int bits) {
  for (int b = 0; b < bits; b += 8) {
    // Byte j keeps bit j of the replicated byte; +0x7F lifts any set bit
    // to bit 7 of its byte without a carry out of it.
    const std::uint64_t v = ((value >> b) & 0xffu) * 0x0101010101010101ull &
                            0x8040201008040201ull;
    const std::uint64_t bytes =
        ((v + 0x7F7F7F7F7F7F7F7Full) >> 7) & 0x0101010101010101ull;
    std::memcpy(dst + b, &bytes, sizeof bytes);
  }
}

/// Interpret an LSB-first bit vector as an unsigned integer.
std::uint64_t from_bits(const std::vector<std::uint8_t>& bits);

/// Interpret bits [offset, offset+count) of a vector as unsigned.
std::uint64_t from_bits(const std::vector<std::uint8_t>& bits, std::size_t offset,
                        std::size_t count);

}  // namespace oclp
