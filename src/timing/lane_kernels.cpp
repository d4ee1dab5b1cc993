#include "timing/lane_kernels.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define OCLP_LANE_X86_DISPATCH 1
#include <immintrin.h>
#else
#define OCLP_LANE_X86_DISPATCH 0
#endif

namespace oclp::lane {

namespace {

// --- Scalar clones ---------------------------------------------------------
//
// The toggle words are split into 32-bit halves so the per-lane bit
// extraction stays a 32-bit variable shift (vpsrlvd when the compiler
// auto-vectorises this on AVX2 hardware builds).

void fill_scalar(std::uint32_t* row, const std::uint32_t* r0,
                 const std::uint32_t* r1, const std::uint32_t* r2,
                 std::uint64_t t0, std::uint64_t t1, std::uint64_t t2,
                 std::uint32_t d) {
  for (int h = 0; h < 2; ++h) {
    const auto s0 = static_cast<std::uint32_t>(t0 >> (32 * h));
    const auto s1 = static_cast<std::uint32_t>(t1 >> (32 * h));
    const auto s2 = static_cast<std::uint32_t>(t2 >> (32 * h));
    const std::uint32_t* q0 = r0 + 32 * h;
    const std::uint32_t* q1 = r1 + 32 * h;
    const std::uint32_t* q2 = r2 + 32 * h;
    std::uint32_t* qrow = row + 32 * h;
    for (std::size_t l = 0; l < 32; ++l) {
      const std::uint32_t m0 = 0 - ((s0 >> l) & 1u);
      const std::uint32_t m1 = 0 - ((s1 >> l) & 1u);
      const std::uint32_t m2 = 0 - ((s2 >> l) & 1u);
      std::uint32_t launch = q0[l] & m0;
      launch = std::max(launch, q1[l] & m1);
      launch = std::max(launch, q2[l] & m2);
      qrow[l] = launch + d;
    }
  }
}

void fill2_scalar(std::uint32_t* row, std::uint32_t* crow,
                  const std::uint32_t* r0, const std::uint32_t* r1,
                  const std::uint32_t* r2, const std::uint32_t* cr0,
                  const std::uint32_t* cr1, const std::uint32_t* cr2,
                  std::uint64_t t0, std::uint64_t t1, std::uint64_t t2,
                  std::uint32_t d, bool is_reg) {
  for (int h = 0; h < 2; ++h) {
    const auto s0 = static_cast<std::uint32_t>(t0 >> (32 * h));
    const auto s1 = static_cast<std::uint32_t>(t1 >> (32 * h));
    const auto s2 = static_cast<std::uint32_t>(t2 >> (32 * h));
    const std::uint32_t* q0 = r0 + 32 * h;
    const std::uint32_t* q1 = r1 + 32 * h;
    const std::uint32_t* q2 = r2 + 32 * h;
    const std::uint32_t* p0 = cr0 + 32 * h;
    const std::uint32_t* p1 = cr1 + 32 * h;
    const std::uint32_t* p2 = cr2 + 32 * h;
    std::uint32_t* qrow = row + 32 * h;
    std::uint32_t* qcrow = crow + 32 * h;
    if (is_reg) {
      for (std::size_t l = 0; l < 32; ++l) {
        const std::uint32_t m0 = 0 - ((s0 >> l) & 1u);
        const std::uint32_t m1 = 0 - ((s1 >> l) & 1u);
        const std::uint32_t m2 = 0 - ((s2 >> l) & 1u);
        std::uint32_t launch = q0[l] & m0;
        launch = std::max(launch, q1[l] & m1);
        launch = std::max(launch, q2[l] & m2);
        std::uint32_t carry = p0[l] & m0;
        carry = std::max(carry, p1[l] & m1);
        carry = std::max(carry, p2[l] & m2);
        qcrow[l] = std::max(carry, launch);
        qrow[l] = d;
      }
    } else {
      for (std::size_t l = 0; l < 32; ++l) {
        const std::uint32_t m0 = 0 - ((s0 >> l) & 1u);
        const std::uint32_t m1 = 0 - ((s1 >> l) & 1u);
        const std::uint32_t m2 = 0 - ((s2 >> l) & 1u);
        std::uint32_t launch = q0[l] & m0;
        launch = std::max(launch, q1[l] & m1);
        launch = std::max(launch, q2[l] & m2);
        std::uint32_t carry = p0[l] & m0;
        carry = std::max(carry, p1[l] & m1);
        carry = std::max(carry, p2[l] & m2);
        qrow[l] = launch + d;
        qcrow[l] = carry;
      }
    }
  }
}

// --- Portable transposes (PackFn / UnpackFn) ---------------------------------
//
// The block transposes read a uint64's bytes in memory order.
static_assert(std::endian::native == std::endian::little,
              "lane packing assumes a little-endian host");

constexpr std::uint64_t kByteLsbs = 0x0101010101010101ull;

// 8×8 byte-matrix transpose across eight words: afterwards byte c of m[r]
// is what byte r of m[c] was. Three rounds of block swaps (4-byte, 2-byte,
// 1-byte blocks), each a handful of shifts and masks per word pair.
inline void transpose_bytes8(std::uint64_t m[8]) {
  for (int r = 0; r < 4; ++r) {
    const std::uint64_t a = m[r], b = m[r + 4];
    m[r] = (a & 0x00000000FFFFFFFFull) | (b << 32);
    m[r + 4] = (a >> 32) | (b & 0xFFFFFFFF00000000ull);
  }
  for (int r : {0, 1, 4, 5}) {
    const std::uint64_t a = m[r], b = m[r + 2];
    m[r] = (a & 0x0000FFFF0000FFFFull) | ((b & 0x0000FFFF0000FFFFull) << 16);
    m[r + 2] = ((a >> 16) & 0x0000FFFF0000FFFFull) | (b & 0xFFFF0000FFFF0000ull);
  }
  for (int r = 0; r < 8; r += 2) {
    const std::uint64_t a = m[r], b = m[r + 1];
    m[r] = (a & 0x00FF00FF00FF00FFull) | ((b & 0x00FF00FF00FF00FFull) << 8);
    m[r + 1] = ((a >> 8) & 0x00FF00FF00FF00FFull) | (b & 0xFF00FF00FF00FF00ull);
  }
}

// 8×8 bit-matrix transpose within one word (byte r = row r, bit c of it =
// column c): afterwards bit r of byte c is what bit c of byte r was.
inline std::uint64_t transpose_bits8(std::uint64_t x) {
  x = (x & 0xAA55AA55AA55AA55ull) | ((x & 0x00AA00AA00AA00AAull) << 7) |
      ((x >> 7) & 0x00AA00AA00AA00AAull);
  x = (x & 0xCCCC3333CCCC3333ull) | ((x & 0x0000CCCC0000CCCCull) << 14) |
      ((x >> 14) & 0x0000CCCC0000CCCCull);
  x = (x & 0xF0F0F0F00F0F0F0Full) | ((x & 0x00000000F0F0F0F0ull) << 28) |
      ((x >> 28) & 0x00000000F0F0F0F0ull);
  return x;
}

inline std::uint64_t load8(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Bytes [at, at + nb) of the row-major matrix as the low nb bytes of a
// word (the rest zero), with `at + nb` the end of a row. Every read stays
// inside [0, total): a short tail block is loaded as the row's last eight
// bytes and shifted down, and rows shorter than eight bytes fall back to
// byte loads near the end of the matrix.
inline std::uint64_t row_block(const std::uint8_t* rows, std::size_t at,
                               std::size_t nb, std::size_t ni,
                               std::size_t total) {
  if (nb == 8) return load8(rows + at);
  if (ni >= 8) return load8(rows + at + nb - 8) >> (8 * (8 - nb));
  if (at + 8 <= total)
    return load8(rows + at) & ((std::uint64_t{1} << (8 * nb)) - 1);
  std::uint64_t v = 0;
  for (std::size_t j = 0; j < nb; ++j)
    v |= static_cast<std::uint64_t>(rows[at + j]) << (8 * j);
  return v;
}

void pack_lanes(const std::uint8_t* rows, std::size_t ni, std::size_t cn,
                std::uint64_t* words) {
  const std::size_t total = cn * ni;
  const std::size_t groups = (cn + 7) / 8;
  for (std::size_t i0 = 0; i0 < ni; i0 += 8) {
    const std::size_t nb = std::min<std::size_t>(8, ni - i0);
    // m[g]: byte j, bit q = input i0+j of sample 8g+q — eight rows' bytes
    // OR-ed at successive bit offsets (each byte contributes only bit 0).
    std::uint64_t m[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t lanes = std::min<std::size_t>(8, cn - 8 * g);
      std::uint64_t x = 0;
      for (std::size_t q = 0; q < lanes; ++q)
        x |= (row_block(rows, (8 * g + q) * ni + i0, nb, ni, total) &
              kByteLsbs)
             << q;
      m[g] = x;
    }
    transpose_bytes8(m);  // m[j]: byte g = lanes 8g..8g+7 of input i0+j
    std::memcpy(words + i0, m, nb * sizeof(std::uint64_t));
  }
}

void unpack_lanes(const std::uint64_t* lane_words, std::size_t no,
                  std::size_t cn, std::uint64_t* samples) {
  const std::size_t groups = (cn + 7) / 8;
  for (std::size_t k0 = 0; k0 < no; k0 += 8) {
    const std::size_t kb = std::min<std::size_t>(8, no - k0);
    std::uint64_t m[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    std::memcpy(m, lane_words + k0, kb * sizeof(std::uint64_t));
    transpose_bytes8(m);  // m[g]: byte j = lanes 8g..8g+7 of output k0+j
    for (std::size_t g = 0; g < groups; ++g) {
      // Byte q, bit j of t = output k0+j of sample 8g+q.
      const std::uint64_t t = transpose_bits8(m[g]);
      const std::size_t lanes = std::min<std::size_t>(8, cn - 8 * g);
      std::uint64_t* s = samples + 8 * g;
      for (std::size_t q = 0; q < lanes; ++q) {
        const std::uint64_t bits = ((t >> (8 * q)) & 0xffu) << k0;
        s[q] = k0 == 0 ? bits : (s[q] | bits);
      }
    }
  }
}

#if OCLP_LANE_X86_DISPATCH

// --- AVX2 clones (8 lanes per op) ------------------------------------------
//
// The lane masks come from a broadcast-and-compare against per-lane bit
// constants: all-ones where the toggle bit is set, exactly the 0-((s>>l)&1)
// trick widened to a vector.

__attribute__((target("avx2"))) inline __m256i avx2_masked_row(
    const std::uint32_t* q, std::uint32_t slice, __m256i bits) {
  const __m256i m =
      _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_set1_epi32(
                             static_cast<int>(slice)), bits), bits);
  return _mm256_and_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q)), m);
}

__attribute__((target("avx2")))
void fill_avx2(std::uint32_t* row, const std::uint32_t* r0,
               const std::uint32_t* r1, const std::uint32_t* r2,
               std::uint64_t t0, std::uint64_t t1, std::uint64_t t2,
               std::uint32_t d) {
  const __m256i vd = _mm256_set1_epi32(static_cast<int>(d));
  const __m256i bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  for (int g = 0; g < 8; ++g) {
    const auto b0 = static_cast<std::uint32_t>((t0 >> (8 * g)) & 0xffu);
    const auto b1 = static_cast<std::uint32_t>((t1 >> (8 * g)) & 0xffu);
    const auto b2 = static_cast<std::uint32_t>((t2 >> (8 * g)) & 0xffu);
    __m256i launch = avx2_masked_row(r0 + 8 * g, b0, bits);
    launch = _mm256_max_epu32(launch, avx2_masked_row(r1 + 8 * g, b1, bits));
    launch = _mm256_max_epu32(launch, avx2_masked_row(r2 + 8 * g, b2, bits));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(row + 8 * g),
                        _mm256_add_epi32(launch, vd));
  }
}

__attribute__((target("avx2")))
void fill2_avx2(std::uint32_t* row, std::uint32_t* crow,
                const std::uint32_t* r0, const std::uint32_t* r1,
                const std::uint32_t* r2, const std::uint32_t* cr0,
                const std::uint32_t* cr1, const std::uint32_t* cr2,
                std::uint64_t t0, std::uint64_t t1, std::uint64_t t2,
                std::uint32_t d, bool is_reg) {
  const __m256i vd = _mm256_set1_epi32(static_cast<int>(d));
  const __m256i bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  for (int g = 0; g < 8; ++g) {
    const auto b0 = static_cast<std::uint32_t>((t0 >> (8 * g)) & 0xffu);
    const auto b1 = static_cast<std::uint32_t>((t1 >> (8 * g)) & 0xffu);
    const auto b2 = static_cast<std::uint32_t>((t2 >> (8 * g)) & 0xffu);
    __m256i launch = avx2_masked_row(r0 + 8 * g, b0, bits);
    launch = _mm256_max_epu32(launch, avx2_masked_row(r1 + 8 * g, b1, bits));
    launch = _mm256_max_epu32(launch, avx2_masked_row(r2 + 8 * g, b2, bits));
    __m256i carry = avx2_masked_row(cr0 + 8 * g, b0, bits);
    carry = _mm256_max_epu32(carry, avx2_masked_row(cr1 + 8 * g, b1, bits));
    carry = _mm256_max_epu32(carry, avx2_masked_row(cr2 + 8 * g, b2, bits));
    if (is_reg) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8 * g),
                          _mm256_max_epu32(carry, launch));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(row + 8 * g), vd);
    } else {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(row + 8 * g),
                          _mm256_add_epi32(launch, vd));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8 * g), carry);
    }
  }
}

// --- AVX-512F clones (16 lanes per op) --------------------------------------
//
// No mask materialisation at all: each 16-bit slice of the toggle word *is*
// the __mmask16 of a zero-masked row load, so "fanin contributes only where
// it toggled" costs nothing beyond the load itself. Rows are full 64-lane
// arrays, so even the masked-off lanes are in-bounds.
//
// gcc 12 expands every AVX-512 intrinsic through _mm512_undefined_epi32(),
// which trips -Wuninitialized from inside the vendor header (gcc bug
// 105593) — silence the false positive for these two functions only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

__attribute__((target("avx512f")))
void fill_avx512(std::uint32_t* row, const std::uint32_t* r0,
                 const std::uint32_t* r1, const std::uint32_t* r2,
                 std::uint64_t t0, std::uint64_t t1, std::uint64_t t2,
                 std::uint32_t d) {
  const __m512i vd = _mm512_set1_epi32(static_cast<int>(d));
  const __m512i vz = _mm512_setzero_si512();
  for (int g = 0; g < 4; ++g) {
    const auto k0 = static_cast<__mmask16>(t0 >> (16 * g));
    const auto k1 = static_cast<__mmask16>(t1 >> (16 * g));
    const auto k2 = static_cast<__mmask16>(t2 >> (16 * g));
    __m512i launch = _mm512_mask_loadu_epi32(vz, k0, r0 + 16 * g);
    launch = _mm512_max_epu32(launch,
                              _mm512_mask_loadu_epi32(vz, k1, r1 + 16 * g));
    launch = _mm512_max_epu32(launch,
                              _mm512_mask_loadu_epi32(vz, k2, r2 + 16 * g));
    _mm512_storeu_si512(row + 16 * g, _mm512_add_epi32(launch, vd));
  }
}

__attribute__((target("avx512f")))
void fill2_avx512(std::uint32_t* row, std::uint32_t* crow,
                  const std::uint32_t* r0, const std::uint32_t* r1,
                  const std::uint32_t* r2, const std::uint32_t* cr0,
                  const std::uint32_t* cr1, const std::uint32_t* cr2,
                  std::uint64_t t0, std::uint64_t t1, std::uint64_t t2,
                  std::uint32_t d, bool is_reg) {
  const __m512i vd = _mm512_set1_epi32(static_cast<int>(d));
  const __m512i vz = _mm512_setzero_si512();
  for (int g = 0; g < 4; ++g) {
    const auto k0 = static_cast<__mmask16>(t0 >> (16 * g));
    const auto k1 = static_cast<__mmask16>(t1 >> (16 * g));
    const auto k2 = static_cast<__mmask16>(t2 >> (16 * g));
    __m512i launch = _mm512_mask_loadu_epi32(vz, k0, r0 + 16 * g);
    launch = _mm512_max_epu32(launch,
                              _mm512_mask_loadu_epi32(vz, k1, r1 + 16 * g));
    launch = _mm512_max_epu32(launch,
                              _mm512_mask_loadu_epi32(vz, k2, r2 + 16 * g));
    __m512i carry = _mm512_mask_loadu_epi32(vz, k0, cr0 + 16 * g);
    carry = _mm512_max_epu32(carry,
                             _mm512_mask_loadu_epi32(vz, k1, cr1 + 16 * g));
    carry = _mm512_max_epu32(carry,
                             _mm512_mask_loadu_epi32(vz, k2, cr2 + 16 * g));
    if (is_reg) {
      _mm512_storeu_si512(crow + 16 * g, _mm512_max_epu32(carry, launch));
      _mm512_storeu_si512(row + 16 * g, vd);
    } else {
      _mm512_storeu_si512(row + 16 * g, _mm512_add_epi32(launch, vd));
      _mm512_storeu_si512(crow + 16 * g, carry);
    }
  }
}

// --- GFNI transposes (AVX-512 VBMI + GFNI) -----------------------------------
//
// vgf2p8affineqb multiplies every byte of x by the 8×8 bit matrix in its
// qword of A: result byte i, bit k = parity(x.byte[i] & A.byte[7-k]). With
// x.byte[i] = 1 << i that reads bit i of matrix row 7-k, so one instruction
// transposes eight bit matrices whose rows are stored high byte first; the
// vpermb index tables below lay the byte matrices out that way.

#define OCLP_GFNI_TARGET "avx512f,avx512bw,avx512vbmi,gfni"

constexpr std::uint64_t kAffineIdentityBytes = 0x8040201008040201ull;

// Destination byte 8g + 7 - j takes source byte 8j + g: an 8×8 byte
// transpose with each destination qword's bytes reversed.
struct ReversedTransposeIdx {
  alignas(64) std::uint8_t idx[64];
  constexpr ReversedTransposeIdx() : idx{} {
    for (int g = 0; g < 8; ++g)
      for (int j = 0; j < 8; ++j)
        idx[8 * g + 7 - j] = static_cast<std::uint8_t>(8 * j + g);
  }
};
// Destination byte 8j + g takes source byte 8g + j: the plain transpose.
struct TransposeIdx {
  alignas(64) std::uint8_t idx[64];
  constexpr TransposeIdx() : idx{} {
    for (int g = 0; g < 8; ++g)
      for (int j = 0; j < 8; ++j)
        idx[8 * j + g] = static_cast<std::uint8_t>(8 * g + j);
  }
};
constexpr ReversedTransposeIdx kReversedTransposeIdx{};
constexpr TransposeIdx kTransposeIdx{};

__attribute__((target(OCLP_GFNI_TARGET)))
void pack_lanes_gfni(const std::uint8_t* rows, std::size_t ni, std::size_t cn,
                     std::uint64_t* words) {
  // Rows shorter than one 8-byte load would read past the matrix.
  if (ni < 8) {
    pack_lanes(rows, ni, cn, words);
    return;
  }
  const __m512i identity =
      _mm512_set1_epi64(static_cast<long long>(kAffineIdentityBytes));
  const __m512i ones = _mm512_set1_epi8(1);
  const __m512i transpose = _mm512_load_si512(kTransposeIdx.idx);
  const auto sni = static_cast<long long>(ni);
  for (std::size_t i0 = 0; i0 < ni; i0 += 8) {
    const std::size_t nb = std::min<std::size_t>(8, ni - i0);
    // A short tail block loads each row's last eight bytes: its inputs sit
    // in the top nb bytes of every gathered qword.
    const auto at = static_cast<long long>(nb == 8 ? i0 : ni - 8);
    alignas(64) std::uint64_t m[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (std::size_t g = 0; 8 * g < cn; ++g) {
      // qword q holds row 8g+7-q (matrix rows high byte first); rows at or
      // past cn are masked out and never touched.
      const auto r7 = static_cast<long long>(8 * g + 7);
      const __m512i offsets = _mm512_set_epi64(
          (r7 - 7) * sni + at, (r7 - 6) * sni + at, (r7 - 5) * sni + at,
          (r7 - 4) * sni + at, (r7 - 3) * sni + at, (r7 - 2) * sni + at,
          (r7 - 1) * sni + at, r7 * sni + at);
      const std::size_t lanes = std::min<std::size_t>(8, cn - 8 * g);
      const auto valid = static_cast<__mmask8>(0xffu << (8 - lanes));
      const __m512i block = _mm512_mask_i64gather_epi64(
          _mm512_setzero_si512(), valid, offsets, rows, 1);
      // Bit 8q + j: bit 0 of input at+j in row 8g+7-q.
      m[g] = _mm512_test_epi8_mask(block, ones);
    }
    // Qword g, byte j: input at+j over lanes 8g..8g+7; then qword j, byte
    // g — the lane word of input at+j.
    const __m512i r = _mm512_gf2p8affine_epi64_epi8(
        identity, _mm512_load_si512(m), 0);
    __m512i t = _mm512_permutexvar_epi8(transpose, r);
    if (nb < 8)
      t = _mm512_maskz_compress_epi64(static_cast<__mmask8>(0xffu << (8 - nb)),
                                      t);
    _mm512_mask_storeu_epi64(words + i0,
                             static_cast<__mmask8>((1u << nb) - 1), t);
  }
}

__attribute__((target(OCLP_GFNI_TARGET)))
void unpack_lanes_gfni(const std::uint64_t* lane_words, std::size_t no,
                       std::size_t cn, std::uint64_t* samples) {
  const __m512i identity =
      _mm512_set1_epi64(static_cast<long long>(kAffineIdentityBytes));
  const __m512i reversed = _mm512_load_si512(kReversedTransposeIdx.idx);
  // bytes[G][l]: outputs 8G..8G+7 of sample l.
  alignas(64) std::uint8_t bytes[8][64];
  const std::size_t groups = (no + 7) / 8;
  for (std::size_t G = 0; G < groups; ++G) {
    const std::size_t kb = std::min<std::size_t>(8, no - 8 * G);
    const __m512i w = _mm512_maskz_loadu_epi64(
        static_cast<__mmask8>((1u << kb) - 1), lane_words + 8 * G);
    const __m512i t = _mm512_permutexvar_epi8(reversed, w);
    _mm512_store_si512(bytes[G],
                       _mm512_gf2p8affine_epi64_epi8(identity, t, 0));
  }
  for (std::size_t c = 0; 8 * c < cn; ++c) {
    __m512i acc = _mm512_setzero_si512();
    for (std::size_t G = 0; G < groups; ++G) {
      const __m512i b = _mm512_cvtepu8_epi64(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(bytes[G] + 8 * c)));
      acc = _mm512_or_si512(
          acc, _mm512_sllv_epi64(b, _mm512_set1_epi64(
                                        static_cast<long long>(8 * G))));
    }
    const std::size_t lanes = std::min<std::size_t>(8, cn - 8 * c);
    _mm512_mask_storeu_epi64(samples + 8 * c,
                             static_cast<__mmask8>((1u << lanes) - 1), acc);
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // OCLP_LANE_X86_DISPATCH

// Dense/sparse crossovers, measured on the 8×8 multiplier sweep stream:
// one vector fill amortises over more lanes the wider the ISA, so the
// popcount at which the unconditional fill overtakes the sparse walk drops
// from 16 (scalar/auto-vec) to 10 (AVX2) to 6 (AVX-512 masked loads).
constexpr DenseKernels kScalarKernels{fill_scalar, fill2_scalar, 16, "scalar",
                                      pack_lanes, unpack_lanes};
#if OCLP_LANE_X86_DISPATCH
constexpr DenseKernels kAvx2Kernels{fill_avx2, fill2_avx2, 10, "avx2",
                                    pack_lanes, unpack_lanes};

// The AVX-512F fills, with the GFNI transposes where the CPU has them.
DenseKernels avx512_kernels() {
  DenseKernels k{fill_avx512, fill2_avx512, 6, "avx512f",
                 pack_lanes, unpack_lanes};
  if (__builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vbmi") && __builtin_cpu_supports("gfni")) {
    k.pack = pack_lanes_gfni;
    k.unpack = unpack_lanes_gfni;
  }
  return k;
}
#endif

}  // namespace

const DenseKernels& dense_kernels() {
  static const DenseKernels kernels = [] {
#if OCLP_LANE_X86_DISPATCH
    if (__builtin_cpu_supports("avx512f")) return avx512_kernels();
    if (__builtin_cpu_supports("avx2")) return kAvx2Kernels;
#endif
    return kScalarKernels;
  }();
  return kernels;
}

int all_dense_kernels(DenseKernels out[3]) {
  int n = 0;
  out[n++] = kScalarKernels;
#if OCLP_LANE_X86_DISPATCH
  if (__builtin_cpu_supports("avx2")) out[n++] = kAvx2Kernels;
  if (__builtin_cpu_supports("avx512f")) out[n++] = avx512_kernels();
#endif
  return n;
}

}  // namespace oclp::lane
