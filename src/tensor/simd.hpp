#pragma once

// Fixed-width (8-lane) float SIMD primitives for the tape-engine kernels.
//
// Two implementations behind one interface, selected at compile time:
//   - GCC/Clang: the portable vector extension (`vector_size(32)`), which
//     lowers to AVX/AVX2 on x86-64 and to NEON pairs on AArch64 without
//     target-specific intrinsics (one exception: `mulhilo` uses SSE2's
//     widening multiply, see there).
//   - Other compilers: a plain 8-lane struct whose operators are scalar
//     loops; -O2 auto-vectorizes them where the hardware allows.
// Loads and stores go through memcpy so tile pointers only need float
// alignment (tiles are 64-float rows carved out of a std::vector).
//
// The same two-backend split provides `u64x4`, four 64-bit lanes of bitwise
// logic for the word-parallel circuit evaluator (circuit/eval_plan.hpp):
// one vector op evaluates a gate for 4 x 64 = 256 batch rows.  Bitwise ops
// are exact, so backend choice can never change results.
//
// Besides the arithmetic lanes this header provides `fast_sigmoid`, a
// branch-free polynomial sigmoid used by the engine's embed kernel when
// Engine::Config::fast_sigmoid is set.  Accuracy contract (asserted by
// tests/simd_test.cpp over dense sweeps):
//   - absolute error <= 2^-22 (~2.4e-7) for all finite x (measured max
//     1.2e-7), and
//   - <= 48 ULP of the exact float sigmoid for x in [-16, 16] (measured 16).
// The relative error collapses for x < -87 (the true sigmoid underflows to
// subnormals and 0, the approximation saturates at 2^-126 via the exponent
// clamp), which is harmless here: activations feed an L2 loss read to ~1e-5
// and hardening thresholds V, not sigmoid(V).  The exact `std::exp` embed
// path stays available for A/B parity runs.
//
// The engine's Gaussian V draws run on the same lanes: `philox4x32_10` (a
// counter-based generator, one independent counter per lane) feeds
// `box_muller`, built from three more branch-free kernels with their own
// contracts (asserted by tests/simd_test.cpp over dense sweeps):
//   - `fast_log(x)`: relative error <= 2^-22 for positive normal x
//     (measured 2^-23.5, near x = 1 included),
//   - `fast_sincos_turns(t)`: sin and cos of 2*pi*t with absolute error
//     <= 2^-22 for t in [0, 1] (measured 2^-23.4); the quarter-turn
//     reduction is exact there, so the error is the polynomials' alone,
//   - `fast_sqrt(x)`: relative error <= 2^-21 for normal x > 0 (measured
//     2^-22.4), and exactly 0 at x = 0.
// Box-Muller's radius uses 24-bit uniforms in (0, 1], so every draw is
// finite and |z| <= sqrt(2 * 24 * ln 2) ~ 5.77: the tails past 5.77 sigma
// (probability ~8e-9) are cut, which no V initialization can notice.

#include <cstdint>
#include <cstring>

#if (defined(__GNUC__) || defined(__clang__)) && defined(__SSE2__)
#include <emmintrin.h>  // mulhilo's widening multiply
#endif

namespace hts::tensor::simd {

inline constexpr std::size_t kWidth = 8;

#if defined(__GNUC__) || defined(__clang__)
#define HTS_SIMD_VECTOR_EXT 1

typedef float f32x8 __attribute__((vector_size(32)));
typedef std::int32_t i32x8 __attribute__((vector_size(32)));

inline f32x8 broadcast(float x) { return f32x8{x, x, x, x, x, x, x, x}; }

inline f32x8 load(const float* p) {
  f32x8 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store(float* p, f32x8 v) { std::memcpy(p, &v, sizeof(v)); }

inline f32x8 select(i32x8 mask, f32x8 a, f32x8 b) {
  i32x8 ai;
  i32x8 bi;
  std::memcpy(&ai, &a, sizeof(ai));
  std::memcpy(&bi, &b, sizeof(bi));
  const i32x8 ri = (ai & mask) | (bi & ~mask);
  f32x8 r;
  std::memcpy(&r, &ri, sizeof(r));
  return r;
}

inline f32x8 min(f32x8 a, f32x8 b) { return select(a < b, a, b); }
inline f32x8 max(f32x8 a, f32x8 b) { return select(a > b, a, b); }

inline i32x8 to_int(f32x8 v) { return __builtin_convertvector(v, i32x8); }

inline f32x8 bitcast_f32(i32x8 v) {
  f32x8 r;
  std::memcpy(&r, &v, sizeof(r));
  return r;
}

/// Bit i of the result is set when lane i is strictly positive — the same
/// per-row predicate harden() applies (NaN and ±0 yield 0).  The vector
/// compare produces all-ones/all-zero lanes; the pack loop is branch-free
/// and unrolls to shift-or chains (movmskps-style on x86).
inline std::uint32_t movemask_gt_zero(f32x8 v) {
  const i32x8 m = v > broadcast(0.0f);
  std::uint32_t bits = 0;
  for (std::size_t i = 0; i < kWidth; ++i) {
    bits |= (static_cast<std::uint32_t>(m[i]) & 1u) << i;
  }
  return bits;
}

inline i32x8 bitcast_i32(f32x8 v) {
  i32x8 r;
  std::memcpy(&r, &v, sizeof(r));
  return r;
}

/// Per lane: a < b ? x : y, for finite a and b.  The mask is the sign bit
/// of a - b (nonzero whenever a != b, +0 when a == b) rather than a < b:
/// without AVX, GCC lowers a 32-byte vector compare to branchy scalar
/// compares, but integer shifts and masks to packed SSE2 pairs.
inline f32x8 select_lt(f32x8 a, f32x8 b, f32x8 x, f32x8 y) {
  return select(bitcast_i32(a - b) >> 31, x, y);
}

/// Splits positive normal floats as x = m * 2^e with m in [0.5, 1); returns
/// m and stores e (as a float) in `exponent`.
inline f32x8 split_exponent(f32x8 x, f32x8& exponent) {
  const i32x8 bits = bitcast_i32(x);
  exponent = __builtin_convertvector((bits >> 23) - 126, f32x8);
  return bitcast_f32((bits & 0x007fffff) | 0x3f000000);
}

/// First estimate of 1/sqrt(x) for x >= 0 (the 0x5f3759df exponent-halving
/// trick, ~3.5% relative error); fast_sqrt refines it.
inline f32x8 rsqrt_seed(f32x8 x) {
  return bitcast_f32(0x5f3759df - (bitcast_i32(x) >> 1));
}

// --- 32-bit integer lanes (counter-based random draws) ----------------------

typedef std::uint32_t u32x8 __attribute__((vector_size(32)));

inline u32x8 broadcast_u32(std::uint32_t x) {
  return u32x8{x, x, x, x, x, x, x, x};
}

inline u32x8 load_u32(const std::uint32_t* p) {
  u32x8 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store_u32(std::uint32_t* p, u32x8 v) { std::memcpy(p, &v, sizeof(v)); }

/// Per lane, the 64-bit product m * a split into its high and low words.
/// The vector extension has no widening multiply (a u64 vector product
/// costs three multiplies and a shift-add chain per lane pair), so x86
/// uses SSE2's 32x32->64 pmuludq on even and odd lanes directly — the one
/// target intrinsic in this header; other targets take the lane loop.
inline void mulhilo(std::uint32_t m, u32x8 a, u32x8& hi, u32x8& lo) {
#if defined(__SSE2__)
  __m128i in[2];
  __m128i out_hi[2];
  __m128i out_lo[2];
  std::memcpy(in, &a, sizeof(in));
  const __m128i mul = _mm_set1_epi32(static_cast<int>(m));
  for (int h = 0; h < 2; ++h) {
    const __m128i even = _mm_mul_epu32(in[h], mul);
    const __m128i odd = _mm_mul_epu32(_mm_srli_epi64(in[h], 32), mul);
    // Shuffle 0x08 gathers the low words of both products, 0x0d the high.
    out_lo[h] = _mm_unpacklo_epi32(_mm_shuffle_epi32(even, 0x08),
                                   _mm_shuffle_epi32(odd, 0x08));
    out_hi[h] = _mm_unpacklo_epi32(_mm_shuffle_epi32(even, 0x0d),
                                   _mm_shuffle_epi32(odd, 0x0d));
  }
  std::memcpy(&hi, out_hi, sizeof(out_hi));
  std::memcpy(&lo, out_lo, sizeof(out_lo));
#else
  for (std::size_t i = 0; i < kWidth; ++i) {
    const std::uint64_t p = static_cast<std::uint64_t>(a[i]) * m;
    hi[i] = static_cast<std::uint32_t>(p >> 32);
    lo[i] = static_cast<std::uint32_t>(p);
  }
#endif
}

/// The top 24 bits of each lane as an exact float k * 2^-24 in [0, 1).
inline f32x8 unit_float(u32x8 bits) {
  const i32x8 k = __builtin_convertvector(bits >> 8, i32x8);
  return __builtin_convertvector(k, f32x8) * broadcast(0x1.0p-24f);
}

// --- 64-bit word lanes (bit-parallel circuit evaluation) --------------------

inline constexpr std::size_t kWordLanes = 4;

typedef std::uint64_t u64x4 __attribute__((vector_size(32)));

inline u64x4 broadcast_u64(std::uint64_t x) { return u64x4{x, x, x, x}; }

inline u64x4 load_u64(const std::uint64_t* p) {
  u64x4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store_u64(std::uint64_t* p, u64x4 v) { std::memcpy(p, &v, sizeof(v)); }

#else  // portable fallback: an 8-lane struct with loop operators

struct f32x8 {
  float lane[kWidth];
};
struct i32x8 {
  std::int32_t lane[kWidth];
};

inline f32x8 broadcast(float x) {
  f32x8 v;
  for (std::size_t i = 0; i < kWidth; ++i) v.lane[i] = x;
  return v;
}

inline f32x8 load(const float* p) {
  f32x8 v;
  std::memcpy(v.lane, p, sizeof(v.lane));
  return v;
}

inline void store(float* p, f32x8 v) { std::memcpy(p, v.lane, sizeof(v.lane)); }

inline f32x8 operator+(f32x8 a, f32x8 b) {
  f32x8 r;
  for (std::size_t i = 0; i < kWidth; ++i) r.lane[i] = a.lane[i] + b.lane[i];
  return r;
}
inline f32x8 operator-(f32x8 a, f32x8 b) {
  f32x8 r;
  for (std::size_t i = 0; i < kWidth; ++i) r.lane[i] = a.lane[i] - b.lane[i];
  return r;
}
inline f32x8 operator*(f32x8 a, f32x8 b) {
  f32x8 r;
  for (std::size_t i = 0; i < kWidth; ++i) r.lane[i] = a.lane[i] * b.lane[i];
  return r;
}
inline f32x8 operator/(f32x8 a, f32x8 b) {
  f32x8 r;
  for (std::size_t i = 0; i < kWidth; ++i) r.lane[i] = a.lane[i] / b.lane[i];
  return r;
}
inline f32x8 operator-(f32x8 a) {
  f32x8 r;
  for (std::size_t i = 0; i < kWidth; ++i) r.lane[i] = -a.lane[i];
  return r;
}
inline f32x8& operator+=(f32x8& a, f32x8 b) { return a = a + b; }
inline f32x8& operator-=(f32x8& a, f32x8 b) { return a = a - b; }

inline f32x8 min(f32x8 a, f32x8 b) {
  f32x8 r;
  for (std::size_t i = 0; i < kWidth; ++i) {
    r.lane[i] = a.lane[i] < b.lane[i] ? a.lane[i] : b.lane[i];
  }
  return r;
}
inline f32x8 max(f32x8 a, f32x8 b) {
  f32x8 r;
  for (std::size_t i = 0; i < kWidth; ++i) {
    r.lane[i] = a.lane[i] > b.lane[i] ? a.lane[i] : b.lane[i];
  }
  return r;
}

inline i32x8 to_int(f32x8 v) {
  i32x8 r;
  for (std::size_t i = 0; i < kWidth; ++i) {
    r.lane[i] = static_cast<std::int32_t>(v.lane[i]);
  }
  return r;
}

inline i32x8 operator+(i32x8 a, std::int32_t b) {
  i32x8 r;
  for (std::size_t i = 0; i < kWidth; ++i) r.lane[i] = a.lane[i] + b;
  return r;
}
inline i32x8 operator<<(i32x8 a, int b) {
  i32x8 r;
  for (std::size_t i = 0; i < kWidth; ++i) r.lane[i] = a.lane[i] << b;
  return r;
}

inline f32x8 bitcast_f32(i32x8 v) {
  f32x8 r;
  std::memcpy(r.lane, v.lane, sizeof(r.lane));
  return r;
}

/// See the vector-extension overload: bit i set iff lane i > 0.
inline std::uint32_t movemask_gt_zero(f32x8 v) {
  std::uint32_t bits = 0;
  for (std::size_t i = 0; i < kWidth; ++i) {
    bits |= static_cast<std::uint32_t>(v.lane[i] > 0.0f) << i;
  }
  return bits;
}

/// See the vector-extension overload: per lane a < b ? x : y.
inline f32x8 select_lt(f32x8 a, f32x8 b, f32x8 x, f32x8 y) {
  f32x8 r;
  for (std::size_t i = 0; i < kWidth; ++i) {
    r.lane[i] = a.lane[i] < b.lane[i] ? x.lane[i] : y.lane[i];
  }
  return r;
}

/// See the vector-extension overload: x = m * 2^e, m in [0.5, 1).
inline f32x8 split_exponent(f32x8 x, f32x8& exponent) {
  f32x8 m;
  for (std::size_t i = 0; i < kWidth; ++i) {
    std::int32_t bits;
    std::memcpy(&bits, &x.lane[i], sizeof(bits));
    exponent.lane[i] = static_cast<float>((bits >> 23) - 126);
    bits = (bits & 0x007fffff) | 0x3f000000;
    std::memcpy(&m.lane[i], &bits, sizeof(bits));
  }
  return m;
}

/// See the vector-extension overload: 1/sqrt(x) seed for x >= 0.
inline f32x8 rsqrt_seed(f32x8 x) {
  f32x8 r;
  for (std::size_t i = 0; i < kWidth; ++i) {
    std::int32_t bits;
    std::memcpy(&bits, &x.lane[i], sizeof(bits));
    bits = 0x5f3759df - (bits >> 1);
    std::memcpy(&r.lane[i], &bits, sizeof(bits));
  }
  return r;
}

// --- 32-bit integer lanes (counter-based random draws) ----------------------

struct u32x8 {
  std::uint32_t lane[kWidth];
};

inline u32x8 broadcast_u32(std::uint32_t x) {
  u32x8 v;
  for (std::size_t i = 0; i < kWidth; ++i) v.lane[i] = x;
  return v;
}

inline u32x8 load_u32(const std::uint32_t* p) {
  u32x8 v;
  std::memcpy(v.lane, p, sizeof(v.lane));
  return v;
}

inline void store_u32(std::uint32_t* p, u32x8 v) {
  std::memcpy(p, v.lane, sizeof(v.lane));
}

inline u32x8 operator^(u32x8 a, u32x8 b) {
  u32x8 r;
  for (std::size_t i = 0; i < kWidth; ++i) r.lane[i] = a.lane[i] ^ b.lane[i];
  return r;
}

/// See the vector-extension overload: per-lane 32x32->64 product halves.
inline void mulhilo(std::uint32_t m, u32x8 a, u32x8& hi, u32x8& lo) {
  for (std::size_t i = 0; i < kWidth; ++i) {
    const std::uint64_t p = static_cast<std::uint64_t>(a.lane[i]) * m;
    hi.lane[i] = static_cast<std::uint32_t>(p >> 32);
    lo.lane[i] = static_cast<std::uint32_t>(p);
  }
}

/// See the vector-extension overload: top 24 bits as k * 2^-24.
inline f32x8 unit_float(u32x8 bits) {
  f32x8 r;
  for (std::size_t i = 0; i < kWidth; ++i) {
    r.lane[i] = static_cast<float>(bits.lane[i] >> 8) * 0x1.0p-24f;
  }
  return r;
}

// --- 64-bit word lanes (bit-parallel circuit evaluation) --------------------

inline constexpr std::size_t kWordLanes = 4;

struct u64x4 {
  std::uint64_t lane[kWordLanes];
};

inline u64x4 broadcast_u64(std::uint64_t x) {
  u64x4 v;
  for (std::size_t i = 0; i < kWordLanes; ++i) v.lane[i] = x;
  return v;
}

inline u64x4 load_u64(const std::uint64_t* p) {
  u64x4 v;
  std::memcpy(v.lane, p, sizeof(v.lane));
  return v;
}

inline void store_u64(std::uint64_t* p, u64x4 v) {
  std::memcpy(p, v.lane, sizeof(v.lane));
}

inline u64x4 operator&(u64x4 a, u64x4 b) {
  u64x4 r;
  for (std::size_t i = 0; i < kWordLanes; ++i) r.lane[i] = a.lane[i] & b.lane[i];
  return r;
}
inline u64x4 operator|(u64x4 a, u64x4 b) {
  u64x4 r;
  for (std::size_t i = 0; i < kWordLanes; ++i) r.lane[i] = a.lane[i] | b.lane[i];
  return r;
}
inline u64x4 operator^(u64x4 a, u64x4 b) {
  u64x4 r;
  for (std::size_t i = 0; i < kWordLanes; ++i) r.lane[i] = a.lane[i] ^ b.lane[i];
  return r;
}
inline u64x4 operator~(u64x4 a) {
  u64x4 r;
  for (std::size_t i = 0; i < kWordLanes; ++i) r.lane[i] = ~a.lane[i];
  return r;
}

#endif  // HTS_SIMD_VECTOR_EXT

/// 2^x for x clamped to [-126, 126].  Round-to-nearest integer split via the
/// 1.5*2^23 magic-number trick (valid because |x| < 2^22 post-clamp), a
/// degree-6 Taylor polynomial of 2^f on f in [-0.5, 0.5] (remainder
/// ~1.2e-7 relative), and exponent reassembly through the IEEE-754 bit
/// layout.  Entirely branch-free, so it vectorizes as a straight-line body.
inline f32x8 fast_exp2(f32x8 x) {
  x = min(max(x, broadcast(-126.0f)), broadcast(126.0f));
  const f32x8 magic = broadcast(12582912.0f);  // 1.5 * 2^23
  const f32x8 k = (x + magic) - magic;         // nearest integer
  const f32x8 f = x - k;                       // fractional part in [-0.5, 0.5]
  // Taylor coefficients of 2^f = exp(f ln 2): (ln 2)^n / n!.
  f32x8 p = broadcast(1.5403530e-4f);
  p = p * f + broadcast(1.3333558e-3f);
  p = p * f + broadcast(9.6181291e-3f);
  p = p * f + broadcast(5.5504109e-2f);
  p = p * f + broadcast(2.4022651e-1f);
  p = p * f + broadcast(6.9314718e-1f);
  p = p * f + broadcast(1.0f);
  const f32x8 scale = bitcast_f32((to_int(k) + 127) << 23);
  return p * scale;
}

/// sigmoid(x) = 1 / (1 + 2^(-x * log2 e)); see the accuracy contract above.
inline f32x8 fast_sigmoid(f32x8 x) {
  const f32x8 log2e = broadcast(1.4426950408889634f);
  const f32x8 e = fast_exp2(-(x * log2e));
  return broadcast(1.0f) / (broadcast(1.0f) + e);
}

/// Natural log of positive normal floats (Cephes logf): the mantissa is
/// folded into [sqrt(1/2), sqrt(2)), a degree-8 polynomial handles log(1+m)
/// and ln 2 enters in two parts so e * ln 2 adds without cancellation.  See
/// the accuracy contract above.
inline f32x8 fast_log(f32x8 x) {
  const f32x8 one = broadcast(1.0f);
  const f32x8 sqrt_half = broadcast(0.70710678f);
  f32x8 e;
  f32x8 m = split_exponent(x, e);
  e = select_lt(m, sqrt_half, e - one, e);
  m = select_lt(m, sqrt_half, m + m - one, m - one);
  const f32x8 z = m * m;
  f32x8 p = broadcast(7.0376836292e-2f);
  p = p * m + broadcast(-1.1514610310e-1f);
  p = p * m + broadcast(1.1676998740e-1f);
  p = p * m + broadcast(-1.2420140846e-1f);
  p = p * m + broadcast(1.4249322787e-1f);
  p = p * m + broadcast(-1.6668057665e-1f);
  p = p * m + broadcast(2.0000714765e-1f);
  p = p * m + broadcast(-2.4999993993e-1f);
  p = p * m + broadcast(3.3333331174e-1f);
  f32x8 y = p * m * z + e * broadcast(-2.12194440e-4f);
  y = y - broadcast(0.5f) * z;
  return m + y + e * broadcast(0.693359375f);
}

/// sin(2*pi*t) and cos(2*pi*t) for t in [0, 1].  t is split at the nearest
/// quarter turn q (exactly: 4t and q/4 are exact and Sterbenz's lemma covers
/// the difference), the remaining angle in [-pi/4, pi/4] goes through the
/// Cephes sinf/cosf polynomials, and the pair is rotated by q quarter turns.
inline void fast_sincos_turns(f32x8 t, f32x8& sin_out, f32x8& cos_out) {
  const f32x8 one = broadcast(1.0f);
  const f32x8 half = broadcast(0.5f);
  const f32x8 magic = broadcast(12582912.0f);  // 1.5 * 2^23
  const f32x8 q = (t * broadcast(4.0f) + magic) - magic;  // 0..4
  const f32x8 x = (t - q * broadcast(0.25f)) * broadcast(6.28318531f);
  const f32x8 z = x * x;
  f32x8 s = broadcast(-1.9515295891e-4f);
  s = s * z + broadcast(8.3321608736e-3f);
  s = s * z + broadcast(-1.6666654611e-1f);
  s = s * z * x + x;
  f32x8 c = broadcast(2.443315711809948e-5f);
  c = c * z + broadcast(-1.388731625493765e-3f);
  c = c * z + broadcast(4.166664568298827e-2f);
  c = c * z * z - half * z + one;
  // Odd quarters swap sin and cos; sin is negated in quarters 2-3, cos in
  // quarters 1-2.  q is an exact small integer, so the thresholds are exact.
  const f32x8 q_half = (q * half + magic) - magic;
  const f32x8 odd = q - q_half - q_half;  // 0 for even q, +-1 for odd q
  const f32x8 odd_sq = odd * odd;
  const f32x8 neg = -one;
  sin_out = select_lt(odd_sq, half, s, c) *
            select_lt(q, broadcast(1.5f), one,
                      select_lt(q, broadcast(3.5f), neg, one));
  cos_out = select_lt(odd_sq, half, c, s) *
            select_lt(q, half, one, select_lt(q, broadcast(2.5f), neg, one));
}

/// sqrt(x) for x = 0 or normal x >= 0 (negative inputs return 0): the
/// rsqrt_seed estimate refined by three Newton steps, times x.
inline f32x8 fast_sqrt(f32x8 x) {
  x = select_lt(x, broadcast(0.0f), broadcast(0.0f), x);
  const f32x8 three_halves = broadcast(1.5f);
  const f32x8 half_x = broadcast(0.5f) * x;
  f32x8 y = rsqrt_seed(x);
  for (int step = 0; step < 3; ++step) {
    y = y * (three_halves - half_x * y * y);
  }
  return x * y;
}

/// Philox4x32-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
/// 3", SC'11), one 128-bit counter per lane, all lanes under the 64-bit key
/// (k0, k1).  Replaces `ctr` by its four output words.  The output is a
/// keyed bijection of the counter that passes BigCrush, so a draw is a pure
/// function of (key, counter): no state carries between draws, and lanes,
/// tiles and threads need no ordering among themselves.
inline void philox4x32_10(u32x8 (&ctr)[4], std::uint32_t k0, std::uint32_t k1) {
  constexpr std::uint32_t kMul0 = 0xD2511F53u;
  constexpr std::uint32_t kMul1 = 0xCD9E8D57u;
  constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;
  constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;
  for (int round = 0; round < 10; ++round) {
    u32x8 hi0;
    u32x8 lo0;
    u32x8 hi1;
    u32x8 lo1;
    mulhilo(kMul0, ctr[0], hi0, lo0);
    mulhilo(kMul1, ctr[2], hi1, lo1);
    ctr[0] = hi1 ^ ctr[1] ^ broadcast_u32(k0);
    ctr[1] = lo1;
    ctr[2] = hi0 ^ ctr[3] ^ broadcast_u32(k1);
    ctr[3] = lo0;
    k0 += kWeyl0;
    k1 += kWeyl1;
  }
}

/// Box-Muller: two independent N(0, 1) draws per lane from two words of
/// uniform bits, radius sqrt(-2 ln u) from the top 24 bits of `a` (u in
/// (0, 1], so the log is finite) and angle 2*pi*t from those of `b`.
inline void box_muller(u32x8 a, u32x8 b, f32x8& z0, f32x8& z1) {
  const f32x8 u = unit_float(a) + broadcast(0x1.0p-24f);
  const f32x8 r = fast_sqrt(broadcast(-2.0f) * fast_log(u));
  f32x8 s;
  f32x8 c;
  fast_sincos_turns(unit_float(b), s, c);
  z0 = r * c;
  z1 = r * s;
}

}  // namespace hts::tensor::simd
