// Explicit-SIMD dense row kernels of the integer settle propagation.
//
// run_stream keeps per-net settle times as contiguous 64-lane uint32 rows
// (lane l = sample c0+l of the current chunk). A cell whose toggle word is
// dense hands its whole row to one of the fills below: every lane is
// computed unconditionally as masked max-plus (untoggled lanes produce
// garbage that the stale-slot invariant guarantees is never read), so the
// kernel carries no data-dependent branches and maps one-to-one onto
// vector mask/max/add instructions.
//
// Dispatch is target_clones-style but by hand: one scalar fill that any
// compiler auto-vectorises, plus AVX2 (8 lanes per op, compare-derived
// lane masks) and AVX-512F (16 lanes per op, the toggle word's 16-bit
// slices used directly as __mmask16) clones compiled with per-function
// target attributes, selected once at runtime via __builtin_cpu_supports
// and cached. Manual dispatch instead of the ifunc resolver keeps the
// clones usable under sanitizers and lets each ISA carry its own
// dense/sparse crossover: the wider the vector, the fewer toggled lanes a
// dense fill needs before it beats the per-lane sparse walk.
//
// Two variants per ISA: the single-track fill of register-free cones, and
// the two-track (local + carried) fill of pipelined cones, whose register
// flag is per-cell and therefore hoists out of the lane loop entirely.
//
// The two bit transposes at the edges of a stream chunk live here too:
// packing row-major input bytes into lane words, and unpacking the output
// lane words into per-sample settled words. Both work on 8×8 bit blocks.
// The portable versions hold a block in one uint64 (a byte-matrix
// transpose across eight words, then a bit-matrix transpose within each
// word), so a 64-sample chunk costs a few hundred word operations instead
// of one shift/mask per (lane, bit). Where the CPU has AVX-512 VBMI and
// GFNI, the AVX-512 table entry transposes eight blocks per instruction
// instead: vpermb for the byte matrix, one GF(2) affine transform
// (vgf2p8affineqb) for eight bit matrices.
#pragma once

#include <cstddef>
#include <cstdint>

namespace oclp::lane {

/// Single-track dense fill: row[l] = max(r0[l]&m0, r1[l]&m1, r2[l]&m2) + d
/// for all 64 lanes, where mk is all-ones iff bit l of tk is set.
using DenseFillFn = void (*)(std::uint32_t* row, const std::uint32_t* r0,
                             const std::uint32_t* r1, const std::uint32_t* r2,
                             std::uint64_t t0, std::uint64_t t1,
                             std::uint64_t t2, std::uint32_t d);

/// Two-track dense fill (pipelined cones). With launch/carry the masked
/// maxes over the local (r*) and carried (cr*) fanin rows:
///   normal cell:  row[l] = launch + d,            crow[l] = carry
///   register:     row[l] = d,                      crow[l] = max(carry, launch)
using DenseFill2Fn = void (*)(std::uint32_t* row, std::uint32_t* crow,
                              const std::uint32_t* r0, const std::uint32_t* r1,
                              const std::uint32_t* r2, const std::uint32_t* cr0,
                              const std::uint32_t* cr1, const std::uint32_t* cr2,
                              std::uint64_t t0, std::uint64_t t1,
                              std::uint64_t t2, std::uint32_t d, bool is_reg);

/// Input packing: `cn` (<= 64) row-major rows of `ni` bytes become ni lane
/// words — bit l of words[i] is bit 0 of rows[l·ni + i]; lanes >= cn are
/// zero. Reads only rows[0, cn·ni).
using PackFn = void (*)(const std::uint8_t* rows, std::size_t ni,
                        std::size_t cn, std::uint64_t* words);

/// Output extraction: the transpose of `no` (<= 64) lane words into `cn`
/// (<= 64) per-sample words — bit k of samples[l] is bit l of
/// lane_words[k]. Writes exactly samples[0, cn).
using UnpackFn = void (*)(const std::uint64_t* lane_words, std::size_t no,
                          std::size_t cn, std::uint64_t* samples);

/// The fills the running device resolved to, plus the sparsity-adaptive
/// crossover: a cell's toggle-word popcount at or above `dense_cutoff`
/// selects the dense fill, below it the sparse per-lane walk. `pack` and
/// `unpack` are the chunk-edge transposes (portable unless the CPU runs
/// the GFNI clones).
struct DenseKernels {
  DenseFillFn fill;
  DenseFill2Fn fill2;
  int dense_cutoff;
  const char* isa;  ///< "avx512f", "avx2", or "scalar" (for logging/tests)
  PackFn pack;
  UnpackFn unpack;
};

/// The per-device kernel selection, probed once and cached (thread-safe).
const DenseKernels& dense_kernels();

/// Every kernel variant the build carries, scalar first — the property
/// tests drive each one explicitly regardless of what dispatch picked.
/// Returns the number of variants written to `out` (at most 3).
int all_dense_kernels(DenseKernels out[3]);

}  // namespace oclp::lane
