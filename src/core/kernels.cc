// Per-tier kernel implementations and the block-batched verifiers.
//
// Every float kernel implements the canonical 8-lane accumulation order
// documented in util/simd.h, so all tiers return bit-identical results:
// AVX2 holds the 8 lanes in one 256-bit register, SSE2 in two 128-bit
// registers, the scalar tier in eight named accumulators; all three share
// the same pairwise reduction and the same scalar tail. This file is
// compiled with -ffp-contract=off (see CMakeLists.txt) so a
// -march=native build cannot contract the scalar tier's mul+add chains
// into FMAs the vector tiers don't use.

#include "core/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/status.h"

namespace hybridlsh {
namespace core {
namespace kernels {
namespace {

// --- Scalar tier (the reference): canonical 8-lane accumulation. -----------
// The dot product lives in util/simd.h (DotF32Scalar) so data/ can share
// it for the cosine norm cache.

float DotScalar(const float* a, const float* b, size_t d) {
  return util::simd::DotF32Scalar(a, b, d);
}

float L2SqScalar(const float* a, const float* b, size_t d) {
  float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    for (size_t l = 0; l < 8; ++l) {
      const float diff = a[i + l] - b[i + l];
      lanes[l] += diff * diff;
    }
  }
  float sum = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6])) +
              ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
  for (; i < d; ++i) {
    const float diff = a[i] - b[i];
    sum += diff * diff;
  }
  return sum;
}

float L1Scalar(const float* a, const float* b, size_t d) {
  float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    for (size_t l = 0; l < 8; ++l) lanes[l] += std::fabs(a[i + l] - b[i + l]);
  }
  float sum = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6])) +
              ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
  for (; i < d; ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

/// Final cosine arithmetic shared by every tier and by the
/// precomputed-norm verifier: 1 - clamp(dot / denom), zero denominators
/// treated as orthogonal (distance 1; see data/metric.h).
inline float CosineFromParts(float dot, float denom) {
  if (denom == 0.0f) return 1.0f;
  float cos = dot / denom;
  if (cos > 1.0f) cos = 1.0f;
  if (cos < -1.0f) cos = -1.0f;
  return 1.0f - cos;
}

float CosineScalar(const float* a, const float* b, size_t d) {
  float dot_lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  float na_lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  float nb_lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    for (size_t l = 0; l < 8; ++l) {
      const float x = a[i + l];
      const float y = b[i + l];
      dot_lanes[l] += x * y;
      na_lanes[l] += x * x;
      nb_lanes[l] += y * y;
    }
  }
  float dot = ((dot_lanes[0] + dot_lanes[4]) + (dot_lanes[2] + dot_lanes[6])) +
              ((dot_lanes[1] + dot_lanes[5]) + (dot_lanes[3] + dot_lanes[7]));
  float na = ((na_lanes[0] + na_lanes[4]) + (na_lanes[2] + na_lanes[6])) +
             ((na_lanes[1] + na_lanes[5]) + (na_lanes[3] + na_lanes[7]));
  float nb = ((nb_lanes[0] + nb_lanes[4]) + (nb_lanes[2] + nb_lanes[6])) +
             ((nb_lanes[1] + nb_lanes[5]) + (nb_lanes[3] + nb_lanes[7]));
  for (; i < d; ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  return CosineFromParts(dot, std::sqrt(na) * std::sqrt(nb));
}

/// Popcount-unrolled Hamming distance; integer, so exact in any order and
/// shared by every tier (at fingerprint widths the cost is load-bound, not
/// popcount-bound — there is no vector win to take below several words).
uint32_t HammingKernel(const uint64_t* a, const uint64_t* b, size_t words) {
  uint32_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    c0 += static_cast<uint32_t>(std::popcount(a[i] ^ b[i]));
    c1 += static_cast<uint32_t>(std::popcount(a[i + 1] ^ b[i + 1]));
    c2 += static_cast<uint32_t>(std::popcount(a[i + 2] ^ b[i + 2]));
    c3 += static_cast<uint32_t>(std::popcount(a[i + 3] ^ b[i + 3]));
  }
  uint32_t total = (c0 + c2) + (c1 + c3);
  for (; i < words; ++i) {
    total += static_cast<uint32_t>(std::popcount(a[i] ^ b[i]));
  }
  return total;
}

#if defined(HLSH_SIMD_X86)

// --- SSE2 tier: the 8 virtual lanes live in two 128-bit registers. ---------

/// Reduces {lanes 0-3, lanes 4-7} with the canonical pairwise order.
__attribute__((target("sse2"))) inline float ReduceLanesSse2(__m128 acc_lo,
                                                             __m128 acc_hi) {
  const __m128 s = _mm_add_ps(acc_lo, acc_hi);  // [s0, s1, s2, s3]
  const __m128 pair = _mm_add_ps(s, _mm_movehl_ps(s, s));  // [s0+s2, s1+s3]
  return _mm_cvtss_f32(pair) +
         _mm_cvtss_f32(_mm_shuffle_ps(pair, pair, 1));
}

__attribute__((target("sse2"))) float DotSse2(const float* a, const float* b,
                                              size_t d) {
  __m128 acc_lo = _mm_setzero_ps();
  __m128 acc_hi = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    acc_lo = _mm_add_ps(acc_lo,
                        _mm_mul_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
    acc_hi = _mm_add_ps(
        acc_hi, _mm_mul_ps(_mm_loadu_ps(a + i + 4), _mm_loadu_ps(b + i + 4)));
  }
  float sum = ReduceLanesSse2(acc_lo, acc_hi);
  for (; i < d; ++i) sum += a[i] * b[i];
  return sum;
}

__attribute__((target("sse2"))) float L2SqSse2(const float* a, const float* b,
                                               size_t d) {
  __m128 acc_lo = _mm_setzero_ps();
  __m128 acc_hi = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m128 d_lo = _mm_sub_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i));
    const __m128 d_hi =
        _mm_sub_ps(_mm_loadu_ps(a + i + 4), _mm_loadu_ps(b + i + 4));
    acc_lo = _mm_add_ps(acc_lo, _mm_mul_ps(d_lo, d_lo));
    acc_hi = _mm_add_ps(acc_hi, _mm_mul_ps(d_hi, d_hi));
  }
  float sum = ReduceLanesSse2(acc_lo, acc_hi);
  for (; i < d; ++i) {
    const float diff = a[i] - b[i];
    sum += diff * diff;
  }
  return sum;
}

__attribute__((target("sse2"))) float L1Sse2(const float* a, const float* b,
                                             size_t d) {
  const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7FFFFFFF));
  __m128 acc_lo = _mm_setzero_ps();
  __m128 acc_hi = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m128 d_lo = _mm_sub_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i));
    const __m128 d_hi =
        _mm_sub_ps(_mm_loadu_ps(a + i + 4), _mm_loadu_ps(b + i + 4));
    acc_lo = _mm_add_ps(acc_lo, _mm_and_ps(d_lo, abs_mask));
    acc_hi = _mm_add_ps(acc_hi, _mm_and_ps(d_hi, abs_mask));
  }
  float sum = ReduceLanesSse2(acc_lo, acc_hi);
  for (; i < d; ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

__attribute__((target("sse2"))) float CosineSse2(const float* a,
                                                 const float* b, size_t d) {
  __m128 dot_lo = _mm_setzero_ps(), dot_hi = _mm_setzero_ps();
  __m128 na_lo = _mm_setzero_ps(), na_hi = _mm_setzero_ps();
  __m128 nb_lo = _mm_setzero_ps(), nb_hi = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m128 x_lo = _mm_loadu_ps(a + i);
    const __m128 x_hi = _mm_loadu_ps(a + i + 4);
    const __m128 y_lo = _mm_loadu_ps(b + i);
    const __m128 y_hi = _mm_loadu_ps(b + i + 4);
    dot_lo = _mm_add_ps(dot_lo, _mm_mul_ps(x_lo, y_lo));
    dot_hi = _mm_add_ps(dot_hi, _mm_mul_ps(x_hi, y_hi));
    na_lo = _mm_add_ps(na_lo, _mm_mul_ps(x_lo, x_lo));
    na_hi = _mm_add_ps(na_hi, _mm_mul_ps(x_hi, x_hi));
    nb_lo = _mm_add_ps(nb_lo, _mm_mul_ps(y_lo, y_lo));
    nb_hi = _mm_add_ps(nb_hi, _mm_mul_ps(y_hi, y_hi));
  }
  float dot = ReduceLanesSse2(dot_lo, dot_hi);
  float na = ReduceLanesSse2(na_lo, na_hi);
  float nb = ReduceLanesSse2(nb_lo, nb_hi);
  for (; i < d; ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  return CosineFromParts(dot, std::sqrt(na) * std::sqrt(nb));
}

// --- AVX2 tier: the 8 virtual lanes are one 256-bit register. --------------

__attribute__((target("avx2"))) inline float ReduceLanesAvx2(__m256 acc) {
  const __m128 s = _mm_add_ps(_mm256_castps256_ps128(acc),
                              _mm256_extractf128_ps(acc, 1));
  const __m128 pair = _mm_add_ps(s, _mm_movehl_ps(s, s));
  return _mm_cvtss_f32(pair) +
         _mm_cvtss_f32(_mm_shuffle_ps(pair, pair, 1));
}

__attribute__((target("avx2"))) float DotAvx2(const float* a, const float* b,
                                              size_t d) {
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  float sum = ReduceLanesAvx2(acc);
  for (; i < d; ++i) sum += a[i] * b[i];
  return sum;
}

__attribute__((target("avx2"))) float L2SqAvx2(const float* a, const float* b,
                                               size_t d) {
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m256 diff =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
  }
  float sum = ReduceLanesAvx2(acc);
  for (; i < d; ++i) {
    const float diff = a[i] - b[i];
    sum += diff * diff;
  }
  return sum;
}

__attribute__((target("avx2"))) float L1Avx2(const float* a, const float* b,
                                             size_t d) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m256 diff =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_add_ps(acc, _mm256_and_ps(diff, abs_mask));
  }
  float sum = ReduceLanesAvx2(acc);
  for (; i < d; ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

__attribute__((target("avx2"))) float CosineAvx2(const float* a,
                                                 const float* b, size_t d) {
  __m256 dot_acc = _mm256_setzero_ps();
  __m256 na_acc = _mm256_setzero_ps();
  __m256 nb_acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m256 x = _mm256_loadu_ps(a + i);
    const __m256 y = _mm256_loadu_ps(b + i);
    dot_acc = _mm256_add_ps(dot_acc, _mm256_mul_ps(x, y));
    na_acc = _mm256_add_ps(na_acc, _mm256_mul_ps(x, x));
    nb_acc = _mm256_add_ps(nb_acc, _mm256_mul_ps(y, y));
  }
  float dot = ReduceLanesAvx2(dot_acc);
  float na = ReduceLanesAvx2(na_acc);
  float nb = ReduceLanesAvx2(nb_acc);
  for (; i < d; ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  return CosineFromParts(dot, std::sqrt(na) * std::sqrt(nb));
}

#endif  // HLSH_SIMD_X86

// --- Int8 screen kernels. ---------------------------------------------------
// Integer sums are exact in any order, so tiers agree bit-for-bit by
// construction; no canonical-lane choreography needed. Overflow is bounded
// by data::QuantizedMirror::kMaxDim (elements <= 254^2 per product).

int32_t Int8L1Scalar(const int8_t* a, const int8_t* b, size_t d) {
  int32_t sum = 0;
  for (size_t i = 0; i < d; ++i) {
    const int32_t diff = static_cast<int32_t>(a[i]) - static_cast<int32_t>(b[i]);
    sum += diff < 0 ? -diff : diff;
  }
  return sum;
}

int32_t Int8L2SqScalar(const int8_t* a, const int8_t* b, size_t d) {
  int32_t sum = 0;
  for (size_t i = 0; i < d; ++i) {
    const int32_t diff = static_cast<int32_t>(a[i]) - static_cast<int32_t>(b[i]);
    sum += diff * diff;
  }
  return sum;
}

int32_t Int8DotScalar(const int8_t* a, const int8_t* b, size_t d) {
  int32_t sum = 0;
  for (size_t i = 0; i < d; ++i) {
    sum += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return sum;
}

#if defined(HLSH_SIMD_X86)

// L1 tiers ride PSADBW: xor with 0x80 biases signed bytes to unsigned
// without changing differences, and the sum-of-absolute-differences unit
// folds 8 bytes per 64-bit lane in one instruction.

__attribute__((target("sse2"))) int32_t Int8L1Sse2(const int8_t* a,
                                                   const int8_t* b, size_t d) {
  const __m128i bias = _mm_set1_epi8(static_cast<char>(0x80));
  __m128i acc = _mm_setzero_si128();  // two u64 partial sums
  size_t i = 0;
  for (; i + 16 <= d; i += 16) {
    const __m128i x = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)), bias);
    const __m128i y = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)), bias);
    acc = _mm_add_epi64(acc, _mm_sad_epu8(x, y));
  }
  int32_t sum =
      _mm_cvtsi128_si32(_mm_add_epi64(acc, _mm_srli_si128(acc, 8)));
  for (; i < d; ++i) {
    const int32_t diff = static_cast<int32_t>(a[i]) - static_cast<int32_t>(b[i]);
    sum += diff < 0 ? -diff : diff;
  }
  return sum;
}

/// Sign-extends 16 packed int8 into two 8x16 registers (SSE2 has no
/// PMOVSXBW: interleave into the high byte, then arithmetic-shift down).
__attribute__((target("sse2"))) inline void SignExtend8To16Sse2(
    __m128i v, __m128i* lo, __m128i* hi) {
  const __m128i zero = _mm_setzero_si128();
  *lo = _mm_srai_epi16(_mm_unpacklo_epi8(zero, v), 8);
  *hi = _mm_srai_epi16(_mm_unpackhi_epi8(zero, v), 8);
}

__attribute__((target("sse2"))) inline int32_t ReduceI32Sse2(__m128i acc) {
  acc = _mm_add_epi32(acc, _mm_srli_si128(acc, 8));
  acc = _mm_add_epi32(acc, _mm_srli_si128(acc, 4));
  return _mm_cvtsi128_si32(acc);
}

__attribute__((target("sse2"))) int32_t Int8L2SqSse2(const int8_t* a,
                                                     const int8_t* b,
                                                     size_t d) {
  __m128i acc = _mm_setzero_si128();
  size_t i = 0;
  for (; i + 16 <= d; i += 16) {
    __m128i x_lo, x_hi, y_lo, y_hi;
    SignExtend8To16Sse2(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)), &x_lo, &x_hi);
    SignExtend8To16Sse2(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)), &y_lo, &y_hi);
    const __m128i d_lo = _mm_sub_epi16(x_lo, y_lo);
    const __m128i d_hi = _mm_sub_epi16(x_hi, y_hi);
    acc = _mm_add_epi32(acc, _mm_madd_epi16(d_lo, d_lo));
    acc = _mm_add_epi32(acc, _mm_madd_epi16(d_hi, d_hi));
  }
  int32_t sum = ReduceI32Sse2(acc);
  for (; i < d; ++i) {
    const int32_t diff = static_cast<int32_t>(a[i]) - static_cast<int32_t>(b[i]);
    sum += diff * diff;
  }
  return sum;
}

__attribute__((target("sse2"))) int32_t Int8DotSse2(const int8_t* a,
                                                    const int8_t* b, size_t d) {
  __m128i acc = _mm_setzero_si128();
  size_t i = 0;
  for (; i + 16 <= d; i += 16) {
    __m128i x_lo, x_hi, y_lo, y_hi;
    SignExtend8To16Sse2(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)), &x_lo, &x_hi);
    SignExtend8To16Sse2(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)), &y_lo, &y_hi);
    acc = _mm_add_epi32(acc, _mm_madd_epi16(x_lo, y_lo));
    acc = _mm_add_epi32(acc, _mm_madd_epi16(x_hi, y_hi));
  }
  int32_t sum = ReduceI32Sse2(acc);
  for (; i < d; ++i) {
    sum += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return sum;
}

__attribute__((target("avx2"))) int32_t Int8L1Avx2(const int8_t* a,
                                                   const int8_t* b, size_t d) {
  const __m256i bias = _mm256_set1_epi8(static_cast<char>(0x80));
  __m256i acc = _mm256_setzero_si256();  // four u64 partial sums
  size_t i = 0;
  for (; i + 32 <= d; i += 32) {
    const __m256i x = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)), bias);
    const __m256i y = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)), bias);
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(x, y));
  }
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                  _mm256_extracti128_si256(acc, 1));
  int32_t sum = _mm_cvtsi128_si32(_mm_add_epi64(s, _mm_srli_si128(s, 8)));
  for (; i < d; ++i) {
    const int32_t diff = static_cast<int32_t>(a[i]) - static_cast<int32_t>(b[i]);
    sum += diff < 0 ? -diff : diff;
  }
  return sum;
}

__attribute__((target("avx2"))) inline int32_t ReduceI32Avx2(__m256i acc) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  s = _mm_add_epi32(s, _mm_srli_si128(s, 8));
  s = _mm_add_epi32(s, _mm_srli_si128(s, 4));
  return _mm_cvtsi128_si32(s);
}

__attribute__((target("avx2"))) int32_t Int8L2SqAvx2(const int8_t* a,
                                                     const int8_t* b,
                                                     size_t d) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= d; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i y =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i d_lo =
        _mm256_sub_epi16(_mm256_cvtepi8_epi16(_mm256_castsi256_si128(x)),
                         _mm256_cvtepi8_epi16(_mm256_castsi256_si128(y)));
    const __m256i d_hi =
        _mm256_sub_epi16(_mm256_cvtepi8_epi16(_mm256_extracti128_si256(x, 1)),
                         _mm256_cvtepi8_epi16(_mm256_extracti128_si256(y, 1)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d_lo, d_lo));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d_hi, d_hi));
  }
  int32_t sum = ReduceI32Avx2(acc);
  for (; i < d; ++i) {
    const int32_t diff = static_cast<int32_t>(a[i]) - static_cast<int32_t>(b[i]);
    sum += diff * diff;
  }
  return sum;
}

__attribute__((target("avx2"))) int32_t Int8DotAvx2(const int8_t* a,
                                                    const int8_t* b, size_t d) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= d; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i y =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi32(
        acc,
        _mm256_madd_epi16(_mm256_cvtepi8_epi16(_mm256_castsi256_si128(x)),
                          _mm256_cvtepi8_epi16(_mm256_castsi256_si128(y))));
    acc = _mm256_add_epi32(
        acc, _mm256_madd_epi16(
                 _mm256_cvtepi8_epi16(_mm256_extracti128_si256(x, 1)),
                 _mm256_cvtepi8_epi16(_mm256_extracti128_si256(y, 1))));
  }
  int32_t sum = ReduceI32Avx2(acc);
  for (; i < d; ++i) {
    sum += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return sum;
}

#endif  // HLSH_SIMD_X86

// Block forms. The screen's candidate rows are a random gather, so every
// implementation prefetches this many candidates ahead of the one it is
// summing; the AVX2 tier additionally interleaves two candidates against
// shared query registers (independent accumulator chains hide the
// madd/add latency that bounds the pair kernels).
constexpr size_t kInt8BlockPrefetchAhead = 8;

inline void PrefetchInt8Row(const int8_t* row, size_t bytes) {
  for (size_t offset = 0; offset < bytes; offset += 64) {
    __builtin_prefetch(row + offset, /*rw=*/0, /*locality=*/1);
  }
}

/// Pair kernel in a prefetching gather loop (the scalar / SSE2 tiers).
template <int32_t (*Pair)(const int8_t*, const int8_t*, size_t)>
void Int8BlockGeneric(const int8_t* codes, size_t dim, const uint32_t* ids,
                      size_t count, const int8_t* query, int32_t* sums) {
  for (size_t k = 0; k < count; ++k) {
    if (k + kInt8BlockPrefetchAhead < count) {
      PrefetchInt8Row(
          codes + static_cast<size_t>(ids[k + kInt8BlockPrefetchAhead]) * dim,
          dim);
    }
    sums[k] = Pair(codes + static_cast<size_t>(ids[k]) * dim, query, dim);
  }
}

#if defined(HLSH_SIMD_X86)

__attribute__((target("avx2"))) void Int8L1BlockAvx2(
    const int8_t* codes, size_t dim, const uint32_t* ids, size_t count,
    const int8_t* query, int32_t* sums) {
  const __m256i bias = _mm256_set1_epi8(static_cast<char>(0x80));
  size_t k = 0;
  for (; k + 2 <= count; k += 2) {
    if (k + kInt8BlockPrefetchAhead + 1 < count) {
      PrefetchInt8Row(
          codes + static_cast<size_t>(ids[k + kInt8BlockPrefetchAhead]) * dim,
          dim);
      PrefetchInt8Row(
          codes +
              static_cast<size_t>(ids[k + kInt8BlockPrefetchAhead + 1]) * dim,
          dim);
    }
    const int8_t* a0 = codes + static_cast<size_t>(ids[k]) * dim;
    const int8_t* a1 = codes + static_cast<size_t>(ids[k + 1]) * dim;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    size_t i = 0;
    for (; i + 32 <= dim; i += 32) {
      const __m256i y = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(query + i)),
          bias);
      const __m256i x0 = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a0 + i)), bias);
      const __m256i x1 = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a1 + i)), bias);
      acc0 = _mm256_add_epi64(acc0, _mm256_sad_epu8(x0, y));
      acc1 = _mm256_add_epi64(acc1, _mm256_sad_epu8(x1, y));
    }
    const __m128i s0 = _mm_add_epi64(_mm256_castsi256_si128(acc0),
                                     _mm256_extracti128_si256(acc0, 1));
    const __m128i s1 = _mm_add_epi64(_mm256_castsi256_si128(acc1),
                                     _mm256_extracti128_si256(acc1, 1));
    int32_t sum0 =
        _mm_cvtsi128_si32(_mm_add_epi64(s0, _mm_srli_si128(s0, 8)));
    int32_t sum1 =
        _mm_cvtsi128_si32(_mm_add_epi64(s1, _mm_srli_si128(s1, 8)));
    for (; i < dim; ++i) {
      const int32_t y = query[i];
      const int32_t d0 = static_cast<int32_t>(a0[i]) - y;
      const int32_t d1 = static_cast<int32_t>(a1[i]) - y;
      sum0 += d0 < 0 ? -d0 : d0;
      sum1 += d1 < 0 ? -d1 : d1;
    }
    sums[k] = sum0;
    sums[k + 1] = sum1;
  }
  for (; k < count; ++k) {
    sums[k] = Int8L1Avx2(codes + static_cast<size_t>(ids[k]) * dim, query, dim);
  }
}

__attribute__((target("avx2"))) void Int8L2SqBlockAvx2(
    const int8_t* codes, size_t dim, const uint32_t* ids, size_t count,
    const int8_t* query, int32_t* sums) {
  size_t k = 0;
  for (; k + 2 <= count; k += 2) {
    if (k + kInt8BlockPrefetchAhead + 1 < count) {
      PrefetchInt8Row(
          codes + static_cast<size_t>(ids[k + kInt8BlockPrefetchAhead]) * dim,
          dim);
      PrefetchInt8Row(
          codes +
              static_cast<size_t>(ids[k + kInt8BlockPrefetchAhead + 1]) * dim,
          dim);
    }
    const int8_t* a0 = codes + static_cast<size_t>(ids[k]) * dim;
    const int8_t* a1 = codes + static_cast<size_t>(ids[k + 1]) * dim;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    size_t i = 0;
    for (; i + 32 <= dim; i += 32) {
      const __m256i y =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(query + i));
      const __m256i y_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(y));
      const __m256i y_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(y, 1));
      const __m256i x0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a0 + i));
      const __m256i x1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a1 + i));
      const __m256i d0_lo = _mm256_sub_epi16(
          _mm256_cvtepi8_epi16(_mm256_castsi256_si128(x0)), y_lo);
      const __m256i d0_hi = _mm256_sub_epi16(
          _mm256_cvtepi8_epi16(_mm256_extracti128_si256(x0, 1)), y_hi);
      const __m256i d1_lo = _mm256_sub_epi16(
          _mm256_cvtepi8_epi16(_mm256_castsi256_si128(x1)), y_lo);
      const __m256i d1_hi = _mm256_sub_epi16(
          _mm256_cvtepi8_epi16(_mm256_extracti128_si256(x1, 1)), y_hi);
      acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(d0_lo, d0_lo));
      acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(d0_hi, d0_hi));
      acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(d1_lo, d1_lo));
      acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(d1_hi, d1_hi));
    }
    int32_t sum0 = ReduceI32Avx2(acc0);
    int32_t sum1 = ReduceI32Avx2(acc1);
    for (; i < dim; ++i) {
      const int32_t y = query[i];
      const int32_t d0 = static_cast<int32_t>(a0[i]) - y;
      const int32_t d1 = static_cast<int32_t>(a1[i]) - y;
      sum0 += d0 * d0;
      sum1 += d1 * d1;
    }
    sums[k] = sum0;
    sums[k + 1] = sum1;
  }
  for (; k < count; ++k) {
    sums[k] =
        Int8L2SqAvx2(codes + static_cast<size_t>(ids[k]) * dim, query, dim);
  }
}

__attribute__((target("avx2"))) void Int8DotBlockAvx2(
    const int8_t* codes, size_t dim, const uint32_t* ids, size_t count,
    const int8_t* query, int32_t* sums) {
  size_t k = 0;
  for (; k + 2 <= count; k += 2) {
    if (k + kInt8BlockPrefetchAhead + 1 < count) {
      PrefetchInt8Row(
          codes + static_cast<size_t>(ids[k + kInt8BlockPrefetchAhead]) * dim,
          dim);
      PrefetchInt8Row(
          codes +
              static_cast<size_t>(ids[k + kInt8BlockPrefetchAhead + 1]) * dim,
          dim);
    }
    const int8_t* a0 = codes + static_cast<size_t>(ids[k]) * dim;
    const int8_t* a1 = codes + static_cast<size_t>(ids[k + 1]) * dim;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    size_t i = 0;
    for (; i + 32 <= dim; i += 32) {
      const __m256i y =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(query + i));
      const __m256i y_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(y));
      const __m256i y_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(y, 1));
      const __m256i x0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a0 + i));
      const __m256i x1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a1 + i));
      acc0 = _mm256_add_epi32(
          acc0, _mm256_madd_epi16(
                    _mm256_cvtepi8_epi16(_mm256_castsi256_si128(x0)), y_lo));
      acc0 = _mm256_add_epi32(
          acc0,
          _mm256_madd_epi16(
              _mm256_cvtepi8_epi16(_mm256_extracti128_si256(x0, 1)), y_hi));
      acc1 = _mm256_add_epi32(
          acc1, _mm256_madd_epi16(
                    _mm256_cvtepi8_epi16(_mm256_castsi256_si128(x1)), y_lo));
      acc1 = _mm256_add_epi32(
          acc1,
          _mm256_madd_epi16(
              _mm256_cvtepi8_epi16(_mm256_extracti128_si256(x1, 1)), y_hi));
    }
    int32_t sum0 = ReduceI32Avx2(acc0);
    int32_t sum1 = ReduceI32Avx2(acc1);
    for (; i < dim; ++i) {
      const int32_t y = query[i];
      sum0 += static_cast<int32_t>(a0[i]) * y;
      sum1 += static_cast<int32_t>(a1[i]) * y;
    }
    sums[k] = sum0;
    sums[k + 1] = sum1;
  }
  for (; k < count; ++k) {
    sums[k] =
        Int8DotAvx2(codes + static_cast<size_t>(ids[k]) * dim, query, dim);
  }
}

#endif  // HLSH_SIMD_X86

const Int8KernelTable kInt8ScalarTable = {
    .tier = util::simd::Tier::kScalar,
    .l1 = &Int8L1Scalar,
    .l2sq = &Int8L2SqScalar,
    .dot = &Int8DotScalar,
    .l1_block = &Int8BlockGeneric<&Int8L1Scalar>,
    .l2sq_block = &Int8BlockGeneric<&Int8L2SqScalar>,
    .dot_block = &Int8BlockGeneric<&Int8DotScalar>,
};

#if defined(HLSH_SIMD_X86)
const Int8KernelTable kInt8Sse2Table = {
    .tier = util::simd::Tier::kSse2,
    .l1 = &Int8L1Sse2,
    .l2sq = &Int8L2SqSse2,
    .dot = &Int8DotSse2,
    .l1_block = &Int8BlockGeneric<&Int8L1Sse2>,
    .l2sq_block = &Int8BlockGeneric<&Int8L2SqSse2>,
    .dot_block = &Int8BlockGeneric<&Int8DotSse2>,
};

const Int8KernelTable kInt8Avx2Table = {
    .tier = util::simd::Tier::kAvx2,
    .l1 = &Int8L1Avx2,
    .l2sq = &Int8L2SqAvx2,
    .dot = &Int8DotAvx2,
    .l1_block = &Int8L1BlockAvx2,
    .l2sq_block = &Int8L2SqBlockAvx2,
    .dot_block = &Int8DotBlockAvx2,
};
#endif  // HLSH_SIMD_X86

const KernelTable kScalarTable = {
    .tier = util::simd::Tier::kScalar,
    .l1 = &L1Scalar,
    .l2sq = &L2SqScalar,
    .dot = &DotScalar,
    .cosine = &CosineScalar,
    .hamming = &HammingKernel,
    .hll_merge = &util::simd::HllMergeMaxScalar,
    .hll_sum = &util::simd::HllRegisterSumScalar,
};

#if defined(HLSH_SIMD_X86)
const KernelTable kSse2Table = {
    .tier = util::simd::Tier::kSse2,
    .l1 = &L1Sse2,
    .l2sq = &L2SqSse2,
    .dot = &DotSse2,
    .cosine = &CosineSse2,
    .hamming = &HammingKernel,
    .hll_merge = &util::simd::HllMergeMaxSse2,
    // No gather below AVX2: the fused sum is lookup-bound, so this tier
    // shares the scalar implementation (bit-identical by construction).
    .hll_sum = &util::simd::HllRegisterSumScalar,
};

const KernelTable kAvx2Table = {
    .tier = util::simd::Tier::kAvx2,
    .l1 = &L1Avx2,
    .l2sq = &L2SqAvx2,
    .dot = &DotAvx2,
    .cosine = &CosineAvx2,
    .hamming = &HammingKernel,
    .hll_merge = &util::simd::HllMergeMaxAvx2,
    .hll_sum = &util::simd::HllRegisterSumAvx2,
};
#endif  // HLSH_SIMD_X86

// --- Block verification internals. -----------------------------------------

/// Ids farther ahead than this are prefetched while the current candidate
/// is verified; ~4 rows hides DRAM latency behind one row's arithmetic
/// without thrashing the prefetch queue.
constexpr size_t kPrefetchAhead = 4;

inline void PrefetchRow(const void* row, size_t bytes) {
  const char* p = static_cast<const char*>(row);
  for (size_t offset = 0; offset < bytes; offset += 64) {
    __builtin_prefetch(p + offset, /*rw=*/0, /*locality=*/1);
  }
}

// --- Projection kernels (S1 query hashing). ---------------------------------
// See ProjectionKernelTable in kernels.h. Each (row, query) dot product
// follows the canonical 8-lane order; the block forms only reorder which
// pair is computed when, never how a pair accumulates, so single and
// blocked forms agree bit-exactly across every tier.

/// Matrix rows ahead of the current one to prefetch. Projection matrices
/// are small (k rows) and walked front to back, so a shallow distance
/// keeps the next row in flight without evicting the query vector.
constexpr size_t kProjRowPrefetchAhead = 2;

void ProjectMatvecScalar(const float* matrix, size_t k, size_t dim,
                         const float* query, float* out) {
  const size_t row_bytes = dim * sizeof(float);
  for (size_t i = 0; i < k; ++i) {
    if (i + kProjRowPrefetchAhead < k) {
      PrefetchRow(matrix + (i + kProjRowPrefetchAhead) * dim, row_bytes);
    }
    out[i] = util::simd::DotF32Scalar(matrix + i * dim, query, dim);
  }
}

/// Generic block form over any pair dot kernel: rows outer, queries inner,
/// so each matrix row is loaded from memory once and served to every query
/// of the batch from cache (the GEMM-shaped traversal).
template <float (*Dot)(const float*, const float*, size_t)>
void ProjectBlockGeneric(const float* matrix, size_t k, size_t dim,
                         const float* const* queries, size_t count,
                         float* out) {
  const size_t row_bytes = dim * sizeof(float);
  for (size_t i = 0; i < k; ++i) {
    if (i + kProjRowPrefetchAhead < k) {
      PrefetchRow(matrix + (i + kProjRowPrefetchAhead) * dim, row_bytes);
    }
    const float* row = matrix + i * dim;
    for (size_t q = 0; q < count; ++q) {
      out[q * k + i] = Dot(row, queries[q], dim);
    }
  }
}

#if defined(HLSH_SIMD_X86)

__attribute__((target("sse2"))) void ProjectMatvecSse2(const float* matrix,
                                                       size_t k, size_t dim,
                                                       const float* query,
                                                       float* out) {
  const size_t row_bytes = dim * sizeof(float);
  for (size_t i = 0; i < k; ++i) {
    if (i + kProjRowPrefetchAhead < k) {
      PrefetchRow(matrix + (i + kProjRowPrefetchAhead) * dim, row_bytes);
    }
    out[i] = DotSse2(matrix + i * dim, query, dim);
  }
}

/// AVX2 matvec: four matrix rows interleave against one pass over the
/// query. A single canonical-order dot is one add chain (latency-bound at
/// ~2 elements/cycle regardless of vector width — which is why a naive
/// AVX2 matvec ties the auto-vectorized scalar tier); four rows give four
/// independent chains while each row's own accumulation stays in
/// DotAvx2's exact order, so results remain bit-identical.
__attribute__((target("avx2"))) void ProjectMatvecAvx2(const float* matrix,
                                                       size_t k, size_t dim,
                                                       const float* query,
                                                       float* out) {
  const size_t row_bytes = dim * sizeof(float);
  size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    if (i + 4 < k) {
      const size_t next = i + 4;
      const size_t stop = next + 4 < k ? next + 4 : k;
      for (size_t p = next; p < stop; ++p) {
        PrefetchRow(matrix + p * dim, row_bytes);
      }
    }
    const float* r0 = matrix + i * dim;
    const float* r1 = matrix + (i + 1) * dim;
    const float* r2 = matrix + (i + 2) * dim;
    const float* r3 = matrix + (i + 3) * dim;
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    size_t j = 0;
    for (; j + 8 <= dim; j += 8) {
      const __m256 q = _mm256_loadu_ps(query + j);
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(q, _mm256_loadu_ps(r0 + j)));
      acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(q, _mm256_loadu_ps(r1 + j)));
      acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(q, _mm256_loadu_ps(r2 + j)));
      acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(q, _mm256_loadu_ps(r3 + j)));
    }
    float sum0 = ReduceLanesAvx2(acc0);
    float sum1 = ReduceLanesAvx2(acc1);
    float sum2 = ReduceLanesAvx2(acc2);
    float sum3 = ReduceLanesAvx2(acc3);
    for (; j < dim; ++j) {
      const float q = query[j];
      sum0 += r0[j] * q;
      sum1 += r1[j] * q;
      sum2 += r2[j] * q;
      sum3 += r3[j] * q;
    }
    out[i] = sum0;
    out[i + 1] = sum1;
    out[i + 2] = sum2;
    out[i + 3] = sum3;
  }
  for (; i < k; ++i) {
    out[i] = DotAvx2(matrix + i * dim, query, dim);
  }
}

/// AVX2 block form: query groups of four outer, matrix rows inner. The
/// four active queries stay L1-resident while the matrix streams through
/// once per group, so large-dim batches read each row count/4 times
/// instead of per-row re-reading every query vector (the dominant L2
/// traffic when count*dim outgrows L1); the four accumulator chains per
/// row hide add latency exactly like ProjectMatvecAvx2's row interleave.
/// Each query keeps its own accumulator register fed in DotAvx2's exact
/// order, so single and blocked forms agree bitwise.
__attribute__((target("avx2"))) void ProjectBlockAvx2(
    const float* matrix, size_t k, size_t dim, const float* const* queries,
    size_t count, float* out) {
  const size_t row_bytes = dim * sizeof(float);
  size_t q = 0;
  for (; q + 4 <= count; q += 4) {
    const float* qa = queries[q];
    const float* qb = queries[q + 1];
    const float* qc = queries[q + 2];
    const float* qd = queries[q + 3];
    for (size_t i = 0; i < k; ++i) {
      if (i + kProjRowPrefetchAhead < k) {
        PrefetchRow(matrix + (i + kProjRowPrefetchAhead) * dim, row_bytes);
      }
      const float* row = matrix + i * dim;
      __m256 acc_a = _mm256_setzero_ps();
      __m256 acc_b = _mm256_setzero_ps();
      __m256 acc_c = _mm256_setzero_ps();
      __m256 acc_d = _mm256_setzero_ps();
      size_t j = 0;
      for (; j + 8 <= dim; j += 8) {
        const __m256 r = _mm256_loadu_ps(row + j);
        acc_a = _mm256_add_ps(acc_a, _mm256_mul_ps(r, _mm256_loadu_ps(qa + j)));
        acc_b = _mm256_add_ps(acc_b, _mm256_mul_ps(r, _mm256_loadu_ps(qb + j)));
        acc_c = _mm256_add_ps(acc_c, _mm256_mul_ps(r, _mm256_loadu_ps(qc + j)));
        acc_d = _mm256_add_ps(acc_d, _mm256_mul_ps(r, _mm256_loadu_ps(qd + j)));
      }
      float sum_a = ReduceLanesAvx2(acc_a);
      float sum_b = ReduceLanesAvx2(acc_b);
      float sum_c = ReduceLanesAvx2(acc_c);
      float sum_d = ReduceLanesAvx2(acc_d);
      for (; j < dim; ++j) {
        const float r = row[j];
        sum_a += r * qa[j];
        sum_b += r * qb[j];
        sum_c += r * qc[j];
        sum_d += r * qd[j];
      }
      out[q * k + i] = sum_a;
      out[(q + 1) * k + i] = sum_b;
      out[(q + 2) * k + i] = sum_c;
      out[(q + 3) * k + i] = sum_d;
    }
  }
  if (q + 2 <= count) {
    const float* qa = queries[q];
    const float* qb = queries[q + 1];
    for (size_t i = 0; i < k; ++i) {
      if (i + kProjRowPrefetchAhead < k) {
        PrefetchRow(matrix + (i + kProjRowPrefetchAhead) * dim, row_bytes);
      }
      const float* row = matrix + i * dim;
      __m256 acc_a = _mm256_setzero_ps();
      __m256 acc_b = _mm256_setzero_ps();
      size_t j = 0;
      for (; j + 8 <= dim; j += 8) {
        const __m256 r = _mm256_loadu_ps(row + j);
        acc_a = _mm256_add_ps(acc_a, _mm256_mul_ps(r, _mm256_loadu_ps(qa + j)));
        acc_b = _mm256_add_ps(acc_b, _mm256_mul_ps(r, _mm256_loadu_ps(qb + j)));
      }
      float sum_a = ReduceLanesAvx2(acc_a);
      float sum_b = ReduceLanesAvx2(acc_b);
      for (; j < dim; ++j) {
        sum_a += row[j] * qa[j];
        sum_b += row[j] * qb[j];
      }
      out[q * k + i] = sum_a;
      out[(q + 1) * k + i] = sum_b;
    }
    q += 2;
  }
  for (; q < count; ++q) {
    ProjectMatvecAvx2(matrix, k, dim, queries[q], out + q * k);
  }
}

#endif  // HLSH_SIMD_X86

const ProjectionKernelTable kProjScalarTable = {
    .tier = util::simd::Tier::kScalar,
    .matvec = &ProjectMatvecScalar,
    .matvec_block = &ProjectBlockGeneric<&DotScalar>,
};

#if defined(HLSH_SIMD_X86)
const ProjectionKernelTable kProjSse2Table = {
    .tier = util::simd::Tier::kSse2,
    .matvec = &ProjectMatvecSse2,
    .matvec_block = &ProjectBlockGeneric<&DotSse2>,
};

const ProjectionKernelTable kProjAvx2Table = {
    .tier = util::simd::Tier::kAvx2,
    .matvec = &ProjectMatvecAvx2,
    .matvec_block = &ProjectBlockAvx2,
};
#endif  // HLSH_SIMD_X86

/// The one definition of the dense verify key (kernels.h, "Score pass"):
/// calls emit(j, key) for every ids[j] in order, prefetching rows
/// kPrefetchAhead candidates ahead. The verify compares the key against
/// VerifyThreshold and the score pass stores it, so the two cannot differ.
template <typename Emit>
void ForEachDenseKey(const data::DenseDataset& dataset, data::Metric metric,
                     const float* query, std::span<const uint32_t> ids,
                     Emit&& emit) {
  const size_t count = ids.size();
  const size_t dim = dataset.dim();
  const size_t row_bytes = dim * sizeof(float);
  const KernelTable& table = Kernels();
  const auto each = [&](auto key_of) {
    for (size_t j = 0; j < count; ++j) {
      if (j + kPrefetchAhead < count) {
        PrefetchRow(dataset.point(ids[j + kPrefetchAhead]), row_bytes);
      }
      const uint32_t id = ids[j];
      emit(j, key_of(dataset.point(id), id));
    }
  };

  // Each kernel pointer is read once, before its loop: emit may write
  // memory, after which a pointer read through `table` would be reloaded
  // for every candidate.
  switch (metric) {
    case data::Metric::kL2: {
      const auto l2sq = table.l2sq;
      each([&](const float* row, uint32_t) { return l2sq(row, query, dim); });
      return;
    }
    case data::Metric::kL1: {
      const auto l1 = table.l1;
      each([&](const float* row, uint32_t) { return l1(row, query, dim); });
      return;
    }
    case data::Metric::kCosine:
      if (dataset.has_norms()) {
        // Fast path: one dot product per candidate; the candidate's norm
        // comes from the dataset cache, the query's is computed once.
        const auto dot = table.dot;
        const std::span<const float> norms = dataset.norms();
        const float query_norm = std::sqrt(dot(query, query, dim));
        each([&](const float* row, uint32_t id) {
          return CosineFromParts(dot(row, query, dim), norms[id] * query_norm);
        });
      } else {
        const auto cosine = table.cosine;
        each([&](const float* row, uint32_t) {
          return cosine(row, query, dim);
        });
      }
      return;
    default:
      HLSH_CHECK(false && "dense kernels: metric does not apply to dense rows");
  }
}

/// Dense verification over a flat id buffer.
size_t VerifyDenseImpl(const data::DenseDataset& dataset, data::Metric metric,
                       const float* query, std::span<const uint32_t> ids,
                       double radius, std::vector<uint32_t>* out) {
  const double threshold = VerifyThreshold(metric, radius);
  size_t reported = 0;
  ForEachDenseKey(dataset, metric, query, ids, [&](size_t j, float key) {
    if (static_cast<double>(key) <= threshold) {
      out->push_back(ids[j]);
      ++reported;
    }
  });
  return reported;
}

/// The binary verify key, Hamming distance, defined once like
/// ForEachDenseKey.
template <typename Emit>
void ForEachBinaryKey(const data::BinaryDataset& dataset,
                      const uint64_t* query, std::span<const uint32_t> ids,
                      Emit&& emit) {
  const size_t count = ids.size();
  const size_t words = dataset.words_per_code();
  const size_t row_bytes = words * sizeof(uint64_t);
  const auto hamming = Kernels().hamming;
  for (size_t j = 0; j < count; ++j) {
    if (j + kPrefetchAhead < count) {
      PrefetchRow(dataset.point(ids[j + kPrefetchAhead]), row_bytes);
    }
    emit(j, hamming(dataset.point(ids[j]), query, words));
  }
}

size_t VerifyBinaryImpl(const data::BinaryDataset& dataset,
                        const uint64_t* query, std::span<const uint32_t> ids,
                        double radius, std::vector<uint32_t>* out) {
  size_t reported = 0;
  ForEachBinaryKey(dataset, query, ids, [&](size_t j, uint32_t key) {
    if (static_cast<double>(key) <= radius) {
      out->push_back(ids[j]);
      ++reported;
    }
  });
  return reported;
}

/// Compacts `ids` to the subsequence whose filter bit is set (ids the
/// filter does not cover are dropped — see the kernels.h contract). The
/// filtered entry points run the unfiltered kernels over the compacted
/// buffer: order is preserved, so a filtered call emits exactly what the
/// unfiltered call would have emitted, restricted to surviving ids, and
/// the distance loops never pay a per-candidate filter branch.
void CompactFiltered(std::span<const uint32_t> ids,
                     const util::BitVector& filter,
                     std::vector<uint32_t>* survivors) {
  survivors->clear();
  const size_t bound = filter.size();
  const size_t n = ids.size();
  constexpr size_t kFilterPrefetchAhead = 8;
  for (size_t j = 0; j < n; ++j) {
    if (j + kFilterPrefetchAhead < n &&
        ids[j + kFilterPrefetchAhead] < bound) {
      filter.PrefetchWord(ids[j + kFilterPrefetchAhead]);
    }
    const uint32_t id = ids[j];
    if (id < bound && filter.Get(id)) survivors->push_back(id);
  }
}

}  // namespace

const KernelTable& KernelsForTier(util::simd::Tier tier) {
#if defined(HLSH_SIMD_X86)
  switch (std::min(tier, util::simd::MaxSupportedTier())) {
    case util::simd::Tier::kAvx2:
      return kAvx2Table;
    case util::simd::Tier::kSse2:
      return kSse2Table;
    case util::simd::Tier::kScalar:
      break;
  }
#else
  (void)tier;
#endif
  return kScalarTable;
}

const KernelTable& Kernels() {
  return KernelsForTier(util::ResolvedSimdTier());
}

const Int8KernelTable& Int8KernelsForTier(util::simd::Tier tier) {
#if defined(HLSH_SIMD_X86)
  switch (std::min(tier, util::simd::MaxSupportedTier())) {
    case util::simd::Tier::kAvx2:
      return kInt8Avx2Table;
    case util::simd::Tier::kSse2:
      return kInt8Sse2Table;
    case util::simd::Tier::kScalar:
      break;
  }
#else
  (void)tier;
#endif
  return kInt8ScalarTable;
}

const Int8KernelTable& Int8Kernels() {
  return Int8KernelsForTier(util::ResolvedSimdTier());
}

const ProjectionKernelTable& ProjectionKernelsForTier(util::simd::Tier tier) {
#if defined(HLSH_SIMD_X86)
  switch (std::min(tier, util::simd::MaxSupportedTier())) {
    case util::simd::Tier::kAvx2:
      return kProjAvx2Table;
    case util::simd::Tier::kSse2:
      return kProjSse2Table;
    case util::simd::Tier::kScalar:
      break;
  }
#else
  (void)tier;
#endif
  return kProjScalarTable;
}

const ProjectionKernelTable& ProjectionKernels() {
  return ProjectionKernelsForTier(util::ResolvedSimdTier());
}

size_t VerifyBlock(const data::DenseDataset& dataset, data::Metric metric,
                   const float* query, std::span<const uint32_t> ids,
                   double radius, std::vector<uint32_t>* out,
                   const util::BitVector* filter) {
  if (filter != nullptr) {
    thread_local std::vector<uint32_t> survivors;
    CompactFiltered(ids, *filter, &survivors);
    ids = survivors;
  }
  return VerifyDenseImpl(dataset, metric, query, ids, radius, out);
}

void ScoreBlock(const data::DenseDataset& dataset, data::Metric metric,
                const float* query, std::span<const uint32_t> ids,
                double* keys) {
  ForEachDenseKey(dataset, metric, query, ids,
                  [&](size_t j, float key) { keys[j] = key; });
}

size_t VerifyBlockQuantized(const data::DenseDataset& dataset,
                            const data::QuantizedMirror& mirror,
                            data::Metric metric, const float* query,
                            std::span<const uint32_t> ids, double radius,
                            std::vector<uint32_t>* out,
                            QuantizedScreenStats* stats,
                            const util::BitVector* filter) {
  if (filter != nullptr) {
    // Filter before the screen: filtered-out candidates pay one bit test,
    // not an int8 kernel row. Stats then count survivors only. The
    // compacted buffer is a subsequence of `ids`, so emission order still
    // matches the unfiltered call restricted to survivors.
    thread_local std::vector<uint32_t> filter_survivors;
    CompactFiltered(ids, *filter, &filter_survivors);
    return VerifyBlockQuantized(dataset, mirror, metric, query,
                                std::span<const uint32_t>(filter_survivors),
                                radius, out, stats, nullptr);
  }
  const size_t dim = dataset.dim();
  const bool cosine = metric == data::Metric::kCosine;
  const size_t mirror_rows = mirror.size_acquire();
  if (!mirror.enabled() || mirror.dim() != dim || mirror_rows == 0 ||
      (cosine && (!dataset.has_norms() || radius >= 2.0))) {
    // No screen to run (or, for cosine with radius >= 2, the clamp in
    // CosineFromParts caps every float distance at 2 and the out-test
    // would wrongly reject): exact path for everything.
    return VerifyBlock(dataset, metric, query, ids, radius, out);
  }

  const double scale = mirror.scale();
  const double inv_scale = 1.0 / scale;

  // Quantize the query once and measure its quantization error EXACTLY
  // (the data side is bounded by scale/2 per element; the query side need
  // not be — out-of-range or non-finite elements clamp to codes whose
  // error these sums still capture, except NaN, which poisons the sums so
  // every comparison below fails and every candidate goes borderline).
  thread_local std::vector<int8_t> qquery;
  qquery.resize(dim);
  double query_l1_err = 0.0;  // sum |y - s*qy|
  double query_l2_err_sq = 0.0;  // sum (y - s*qy)^2
  double query_norm_sq = 0.0;  // sum y^2 (cosine bound)
  for (size_t d = 0; d < dim; ++d) {
    const double y = static_cast<double>(query[d]);
    long long q = 0;
    if (std::isfinite(y)) {
      // Clamped before rounding: llround of a value past the long long
      // range (a huge coordinate) has no specified result.
      q = std::llround(std::clamp(y * inv_scale, -127.0, 127.0));
    }
    qquery[d] = static_cast<int8_t>(q);
    const double e = y - scale * static_cast<double>(q);
    query_l1_err += std::fabs(e);
    query_l2_err_sq += e * e;
    query_norm_sq += y * y;
  }
  const double query_l2_err = std::sqrt(query_l2_err_sq);
  const double query_norm = std::sqrt(query_norm_sq);
  if (cosine && !(query_norm > 0.0)) {
    // A zero (or non-finite) query norm voids every cosine denominator:
    // nothing can screen, so take the exact path directly.
    return VerifyBlock(dataset, metric, query, ids, radius, out);
  }

  // Slack covering the float32 kernels' own rounding: their sums are
  // within ~dim * 2^-24 relative of exact, so inflating the quantization
  // band by kFpSlackPerDim * dim (two orders looser) guarantees the
  // screen's verdict never disagrees with the float kernel's.
  constexpr double kFpSlackPerDim = 1e-6;
  const double fp_slack = 1e-7 + kFpSlackPerDim * static_cast<double>(dim);
  // Data-side quantization error per element is <= scale/2.
  const double half_l1 = 0.5 * scale * static_cast<double>(dim);
  const double half_l2 = 0.5 * scale * std::sqrt(static_cast<double>(dim));

  const Int8KernelTable& table = Int8Kernels();
  const int8_t* qy = qquery.data();
  const std::span<const float> norms =
      cosine ? dataset.norms() : std::span<const float>{};

  // The L1/L2 verdict predicates are monotone in the int8 kernel sum S, so
  // the per-candidate double math (sqrt, scale-backs, slack inflation)
  // folds into two integer cut points found once per call by binary search
  // over the SAME double predicates: verdicts are identical, but the hot
  // loop compares one int32 against two constants. Sums are bounded by
  // dim * 254^2, which fits int32 (QuantizedMirror::kMaxDim), and so do
  // both cut points.
  const int64_t max_sum = static_cast<int64_t>(dim) * 254 * 254;
  // Largest S in [0, max_sum] where pred holds, -1 if none (pred must be
  // monotone true -> false in S).
  const auto last_true = [max_sum](auto pred) -> int32_t {
    if (!pred(int64_t{0})) return -1;
    int64_t lo = 0, hi = max_sum;
    while (lo < hi) {
      const int64_t mid = lo + (hi - lo + 1) / 2;
      if (pred(mid)) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return static_cast<int32_t>(lo);
  };
  // Smallest S in [0, max_sum] where pred holds, max_sum + 1 if none (pred
  // must be monotone false -> true in S).
  const auto first_true = [max_sum](auto pred) -> int32_t {
    if (!pred(max_sum)) return static_cast<int32_t>(max_sum + 1);
    int64_t lo = 0, hi = max_sum;
    while (lo < hi) {
      const int64_t mid = lo + (hi - lo) / 2;
      if (pred(mid)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return static_cast<int32_t>(lo);
  };

  // Pass 1: the rows the bound cannot cover are forced borderline, one bit
  // per candidate in blocks of 64: ids at or past the acquired mirror row
  // count (a racing reader can hold an id the writer indexed before the
  // mirror append published) and exact_only rows (outside the calibrated
  // range). The kernel still sums them, so every candidate goes through
  // one batched call over `ids` itself; an id past the mirror is summed
  // against row 0 as a stand-in, and a forced candidate's sum is never
  // read as a verdict. exact_only flags are gathered only when the mirror
  // holds any (one relaxed counter load after size_acquire; the writer
  // bumps the counter before publishing the row). The mirror's base
  // pointers are acquire-loaded ONCE: rows below the already-acquired
  // mirror_rows stay valid across concurrent appends (growth retires,
  // never frees, superseded buffers).
  const int8_t* codes = mirror.codes_data();
  const uint8_t* exact_flags =
      mirror.exact_only_count() > 0 ? mirror.exact_only_data() : nullptr;
  const size_t count = ids.size();
  const size_t num_blocks = (count + 63) / 64;
  uint32_t max_id = 0;
  for (const uint32_t id : ids) max_id = std::max(max_id, id);
  const bool past_mirror = max_id >= mirror_rows;  // mirror_rows > 0
  const bool any_forced = past_mirror || exact_flags != nullptr;
  thread_local std::vector<uint64_t> forced;
  thread_local std::vector<uint32_t> stand_in_ids;
  const uint32_t* screen_ids = ids.data();
  if (any_forced) {
    forced.resize(num_blocks);
    if (past_mirror) {
      stand_in_ids.assign(ids.begin(), ids.end());
      screen_ids = stand_in_ids.data();
    }
    // Each block's word is built in a register: or-ing into forced[] per
    // candidate chains every iteration through a store and a reload.
    for (size_t b = 0; b < num_blocks; ++b) {
      const size_t base = b * 64;
      const size_t n = std::min<size_t>(64, count - base);
      uint64_t word = 0;
      for (size_t k = 0; k < n; ++k) {
        const uint32_t id = ids[base + k];
        bool force = true;
        if (id >= mirror_rows) {
          stand_in_ids[base + k] = 0;
        } else {
          force = exact_flags != nullptr && exact_flags[id] != 0;
        }
        word |= static_cast<uint64_t>(force) << k;
      }
      forced[b] = word;
    }
  }

  // Pass 2: int8 sums for every candidate, then one in-mask and one
  // borderline-mask per block. `verdict(j)` returns bit 0 = definitely in,
  // bit 1 = definitely out (in wins when both hold). Borderline ids are
  // collected in candidate order, which the emit below relies on.
  thread_local std::vector<int32_t> sums;
  thread_local std::vector<uint64_t> in_masks;
  thread_local std::vector<uint64_t> borderline_masks;
  thread_local std::vector<uint32_t> rescore;
  thread_local std::vector<uint32_t> rescored_hits;
  sums.resize(count);
  in_masks.resize(num_blocks);
  borderline_masks.resize(num_blocks);
  rescore.clear();
  rescored_hits.clear();
  size_t definite_in = 0;
  const auto classify = [&](auto verdict) {
    for (size_t b = 0; b < num_blocks; ++b) {
      const size_t base = b * 64;
      const size_t n = std::min<size_t>(64, count - base);
      uint64_t in = 0, out_bits = 0;
      for (size_t k = 0; k < n; ++k) {
        const uint32_t v = verdict(base + k);
        in |= static_cast<uint64_t>(v & 1) << k;
        out_bits |= static_cast<uint64_t>(v >> 1) << k;
      }
      const uint64_t block = n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
      uint64_t borderline = block & ~(in | out_bits);
      if (any_forced) {
        borderline |= forced[b];
        in &= ~forced[b];
      }
      in_masks[b] = in;
      borderline_masks[b] = borderline;
      definite_in += static_cast<size_t>(std::popcount(in));
      while (borderline != 0) {
        rescore.push_back(ids[base + std::countr_zero(borderline)]);
        borderline &= borderline - 1;
      }
    }
  };

  const double r2 = radius * radius;
  switch (metric) {
    case data::Metric::kL2: {
      const double eps = half_l2 + query_l2_err;
      const int32_t t_in = last_true([&](int64_t s) {
        const double hi =
            scale * std::sqrt(static_cast<double>(s)) + eps;
        return hi * hi * (1.0 + fp_slack) <= r2;
      });
      const int32_t t_out = first_true([&](int64_t s) {
        const double lo = scale * std::sqrt(static_cast<double>(s)) - eps;
        return lo > 0.0 && lo * lo * (1.0 - fp_slack) > r2;
      });
      table.l2sq_block(codes, dim, screen_ids, count, qy, sums.data());
      classify([&](size_t j) {
        const int32_t s = sums[j];
        return static_cast<uint32_t>(s <= t_in) |
               (static_cast<uint32_t>(s >= t_out) << 1);
      });
      break;
    }
    case data::Metric::kL1: {
      const double eps = half_l1 + query_l1_err;
      const int32_t t_in = last_true([&](int64_t s) {
        const double v = scale * static_cast<double>(s);
        return (v + eps) * (1.0 + fp_slack) <= radius;
      });
      const int32_t t_out = first_true([&](int64_t s) {
        const double lo = scale * static_cast<double>(s) - eps;
        return lo > 0.0 && lo * (1.0 - fp_slack) > radius;
      });
      table.l1_block(codes, dim, screen_ids, count, qy, sums.data());
      classify([&](size_t j) {
        const int32_t s = sums[j];
        return static_cast<uint32_t>(s <= t_in) |
               (static_cast<uint32_t>(s >= t_out) << 1);
      });
      break;
    }
    case data::Metric::kCosine: {
      // With denom = norms[id] * query_norm > 0, the verdict tests
      //   in:  1 - dot/denom + (dot_eps + fp*(|dot| + denom))/denom + fp
      //        <= radius
      //   out: 1 - dot/denom - (dot_eps + fp*(|dot| + denom))/denom - fp
      //        > radius
      // (dot_eps = half_l2*query_norm + (norms[id] + half_l2)*query_l2_err)
      // multiply through by denom into one fused-multiply form per side;
      // double rounding of the rearrangement is orders below fp_slack.
      //   in:  dot - fp*|dot| >= norms[id]*k_in + c0   (and radius >= 0,
      //        since the float path clamps its distance into [0, 2])
      //   out: dot + fp*|dot| <  norms[id]*k_out - c0
      // The norm is gathered through the kernel's ids, so a stand-in
      // candidate reads row 0's norm (its verdict is forced anyway).
      const double s2 = scale * scale;
      const double c0 = half_l2 * (query_norm + query_l2_err);
      const double k_in =
          query_norm * (1.0 + 2.0 * fp_slack - radius) + query_l2_err;
      const double k_out =
          query_norm * (1.0 - 2.0 * fp_slack - radius) - query_l2_err;
      const bool in_possible = radius >= 0.0;
      table.dot_block(codes, dim, screen_ids, count, qy, sums.data());
      classify([&](size_t j) -> uint32_t {
        const double nid = static_cast<double>(norms[screen_ids[j]]);
        if (!(nid > 0.0)) return 0;  // zero vector: borderline
        const double t = s2 * static_cast<double>(sums[j]);
        const double ft = fp_slack * std::fabs(t);
        if (in_possible && t - ft >= nid * k_in + c0) return 1;
        return t + ft < nid * k_out - c0 ? 2 : 0;
      });
      break;
    }
    default:
      HLSH_CHECK(false &&
                 "VerifyBlockQuantized: metric does not apply to dense rows");
  }

  // Rescore the borderline batch exactly, then emit each block's in-mask
  // plus its rescored hits in ascending position order, so *out receives
  // ids in exactly the order VerifyBlock would have appended them (the
  // linear path's callers rely on ascending emission; the screen must not
  // reorder). rescored_hits is a subsequence of rescore, which lists the
  // borderline positions in order, so one forward pointer recovers each
  // borderline candidate's exact verdict.
  VerifyBlock(dataset, metric, query, std::span<const uint32_t>(rescore),
              radius, &rescored_hits);
  const size_t reported = definite_in + rescored_hits.size();
  const size_t out_base = out->size();
  out->resize(out_base + reported);
  uint32_t* cursor = out->data() + out_base;
  size_t p = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    const uint32_t* block_ids = ids.data() + b * 64;
    uint64_t emit = in_masks[b];
    for (uint64_t borderline = borderline_masks[b];
         borderline != 0 && p < rescored_hits.size();
         borderline &= borderline - 1) {
      const int k = std::countr_zero(borderline);
      if (rescored_hits[p] == block_ids[k]) {
        emit |= uint64_t{1} << k;
        ++p;
      }
    }
    while (emit != 0) {
      *cursor++ = block_ids[std::countr_zero(emit)];
      emit &= emit - 1;
    }
  }
  if (stats != nullptr) {
    stats->screened += count;
    stats->definite_in += definite_in;
    stats->definite_out += count - definite_in - rescore.size();
    stats->borderline += rescore.size();
  }
  return reported;
}

size_t VerifyBlock(const data::BinaryDataset& dataset, const uint64_t* query,
                   std::span<const uint32_t> ids, double radius,
                   std::vector<uint32_t>* out, const util::BitVector* filter) {
  if (filter != nullptr) {
    thread_local std::vector<uint32_t> survivors;
    CompactFiltered(ids, *filter, &survivors);
    ids = survivors;
  }
  return VerifyBinaryImpl(dataset, query, ids, radius, out);
}

void ScoreBlock(const data::BinaryDataset& dataset, const uint64_t* query,
                std::span<const uint32_t> ids, double* keys) {
  ForEachBinaryKey(dataset, query, ids,
                   [&](size_t j, uint32_t key) { keys[j] = key; });
}

}  // namespace kernels
}  // namespace core
}  // namespace hybridlsh
