#include "src/text/batch_kernel.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <vector>

#include "src/text/phonetic.h"
#include "src/text/sequence_kernel.h"
#include "src/text/sequence_similarity.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define EMX_X86 1
#endif

namespace emx {

namespace {

// --- runtime SIMD dispatch --------------------------------------------------

SimdLevel CpuLevel() {
#ifdef EMX_X86
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  if (__builtin_cpu_supports("sse2")) return SimdLevel::kSse2;
#endif
  return SimdLevel::kScalar;
}

// EMX_SIMD clamp, read once: lets a deployment (or a CI job) pin the tier
// without recompiling.
SimdLevel EnvClamp() {
  static const SimdLevel clamp = [] {
    const char* env = std::getenv("EMX_SIMD");
    if (env == nullptr) return SimdLevel::kAvx2;
    if (std::strcmp(env, "scalar") == 0) return SimdLevel::kScalar;
    if (std::strcmp(env, "sse2") == 0) return SimdLevel::kSse2;
    return SimdLevel::kAvx2;
  }();
  return clamp;
}

// ForceSimdLevel override; -1 = none. Relaxed is enough: the test hook is
// documented as flip-between-batches only.
std::atomic<int> g_forced{-1};

// --- Jaro window scan -------------------------------------------------------
//
// The hot inner loop of Jaro: find the FIRST j in [lo, hi) with
// b_match[j] == 0 && b[j] == c. The SIMD variants evaluate 32 (AVX2) or 16
// (SSE2) candidate positions per step — compare-equal against the broadcast
// character, AND with "still unmatched", movemask, ctz — and return exactly
// the index the scalar left-to-right scan returns, so match/transposition
// counts (and thus the final double) are bit-identical at every tier.

using WindowScanFn = long (*)(const char* b, const uint8_t* b_match, size_t lo,
                              size_t hi, size_t lb, char c);

long WindowScanScalar(const char* b, const uint8_t* b_match, size_t lo,
                      size_t hi, size_t /*lb*/, char c) {
  for (size_t j = lo; j < hi; ++j) {
    if (!b_match[j] && b[j] == c) return static_cast<long>(j);
  }
  return -1;
}

#ifdef EMX_X86

long WindowScanSse2(const char* b, const uint8_t* b_match, size_t lo,
                    size_t hi, size_t lb, char c) {
  size_t j = lo;
  const __m128i target = _mm_set1_epi8(c);
  const __m128i zero = _mm_setzero_si128();
  // Full 16-byte loads only while they stay inside b / b_match (both are lb
  // bytes long); bits at or past `hi` are masked off before the scan.
  while (j < hi && j + 16 <= lb) {
    __m128i bv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
    __m128i mv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b_match + j));
    __m128i hit = _mm_and_si128(_mm_cmpeq_epi8(bv, target),
                                _mm_cmpeq_epi8(mv, zero));
    uint32_t mask = static_cast<uint32_t>(_mm_movemask_epi8(hit));
    const size_t span = hi - j;
    if (span < 16) mask &= (1u << span) - 1;
    if (mask) return static_cast<long>(j + __builtin_ctz(mask));
    if (span <= 16) return -1;
    j += 16;
  }
  for (; j < hi; ++j) {
    if (!b_match[j] && b[j] == c) return static_cast<long>(j);
  }
  return -1;
}

__attribute__((target("avx2"))) long WindowScanAvx2(const char* b,
                                                    const uint8_t* b_match,
                                                    size_t lo, size_t hi,
                                                    size_t lb, char c) {
  size_t j = lo;
  const __m256i target = _mm256_set1_epi8(c);
  const __m256i zero = _mm256_setzero_si256();
  while (j < hi && j + 32 <= lb) {
    __m256i bv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    __m256i mv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b_match + j));
    __m256i hit = _mm256_and_si256(_mm256_cmpeq_epi8(bv, target),
                                   _mm256_cmpeq_epi8(mv, zero));
    uint32_t mask = static_cast<uint32_t>(_mm256_movemask_epi8(hit));
    const size_t span = hi - j;
    if (span < 32) mask &= (span == 0) ? 0u : (0xFFFFFFFFu >> (32 - span));
    if (mask) return static_cast<long>(j + __builtin_ctz(mask));
    if (span <= 32) return -1;
    j += 32;
  }
  for (; j < hi; ++j) {
    if (!b_match[j] && b[j] == c) return static_cast<long>(j);
  }
  return -1;
}

#endif  // EMX_X86

WindowScanFn SelectWindowScan() {
  switch (ActiveSimdLevel()) {
#ifdef EMX_X86
    case SimdLevel::kAvx2:
      return WindowScanAvx2;
    case SimdLevel::kSse2:
      return WindowScanSse2;
#endif
    default:
      return WindowScanScalar;
  }
}

// One Jaro score through a pluggable window scan: the one Jaro body, which
// JaroSimilarity and JaroWinklerSimilarity call one lane at a time.
// Identical structure to oracle::JaroSimilarity; only the inner candidate
// scan is swapped, and every scan variant returns the same first-eligible
// index.
double JaroOnePair(std::string_view a, std::string_view b, DpScratch* scratch,
                   WindowScanFn scan) {
  const size_t la = a.size(), lb = b.size();
  if (la == 0 && lb == 0) return 1.0;
  if (la == 0 || lb == 0) return 0.0;
  const int window = std::max(0, static_cast<int>(std::max(la, lb)) / 2 - 1);
  uint8_t* a_match = scratch->Bytes(la + lb);
  uint8_t* b_match = a_match + la;
  std::memset(a_match, 0, la + lb);
  int matches = 0;
  for (size_t i = 0; i < la; ++i) {
    size_t lo = (static_cast<int>(i) > window) ? i - window : 0;
    size_t hi = std::min(lb, i + window + 1);
    long j = scan(b.data(), b_match, lo, hi, lb, a[i]);
    if (j >= 0) {
      a_match[i] = 1;
      b_match[j] = 1;
      ++matches;
    }
  }
  if (matches == 0) return 0.0;
  int transpositions = 0;
  size_t k = 0;
  for (size_t i = 0; i < la; ++i) {
    if (!a_match[i]) continue;
    while (!b_match[k]) ++k;
    if (a[i] != b[k]) ++transpositions;
    ++k;
  }
  double m = matches;
  return (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0;
}

// --- length-sorted scheduling for the O(mn) DP measures ---------------------
//
// Lanes are processed longest-first: the thread's grow-only scratch reaches
// its high-water mark on the first lane instead of creeping up, and lanes of
// similar length run back to back over warm row buffers. The out[] slot of
// each lane is fixed by its input position, so the schedule is invisible in
// the results.

const uint32_t* LengthSortedOrder(const std::string_view* a,
                                  const std::string_view* b, size_t n) {
  thread_local std::vector<uint32_t> order;
  order.resize(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    size_t lx = std::max(a[x].size(), b[x].size());
    size_t ly = std::max(a[y].size(), b[y].size());
    if (lx != ly) return lx > ly;
    return x < y;
  });
  return order.data();
}

// --- interleaved NW / SW: 4 pairs per AVX2 vector ---------------------------
//
// The global-alignment recurrences are serial along a row (cell j needs cell
// j-1 through an add+max chain), so vectorizing WITHIN one pair buys little.
// Instead, four pairs ride in the four double lanes of each row vector:
// lane l of row word j holds DP cell [i][j] of pair l. The serial chain cost
// is amortized 4 ways, and because every lane executes exactly the scalar
// per-cell operations (same adds, same two-operand maxes, on the same finite
// values — no NaNs, and the only -0.0 the DP produces is consumed by an
// addition, never compared by max against +0.0), each lane's result is
// bit-identical to the scalar kernel and the oracle.
//
// Lanes have unequal lengths; the group is padded to (mmax, nmax). Padding is
// benign by construction: DP dependencies only flow right/down, so cells
// beyond a lane's true region never feed back into it. NW snapshots lane l's
// score from row M[l] the moment that row completes; SW masks out-of-region
// cells to +0.0 before folding them into the running best (all true SW cells
// are >= 0, so a masked zero can never win).

#ifdef EMX_X86

constexpr double kNwMatch = 1.0;
constexpr double kNwMismatch = -0.5;
constexpr double kNwGap = -0.5;

__attribute__((target("avx2"))) void NwBatch4Avx2(const std::string_view* a,
                                                  const std::string_view* b,
                                                  const uint32_t* idx,
                                                  double* out,
                                                  DpScratch* scratch) {
  std::string_view A[4], B[4];
  size_t M[4], N[4], mmax = 0, nmax = 0;
  for (int l = 0; l < 4; ++l) {
    std::string_view x = a[idx[l]], y = b[idx[l]];
    if (x.size() > y.size()) std::swap(x, y);
    A[l] = x;
    B[l] = y;
    M[l] = x.size();
    N[l] = y.size();
    // Empty-outer lanes never reach a snapshot row; score them through the
    // scalar kernel BEFORE borrowing scratch lanes (it takes Doubles too).
    if (M[l] == 0) out[idx[l]] = NeedlemanWunschSimilarity(x, y);
    mmax = std::max(mmax, M[l]);
    nmax = std::max(nmax, N[l]);
  }
  if (mmax == 0) return;
  double* prev = scratch->Doubles(8 * (nmax + 1));
  double* cur = prev + 4 * (nmax + 1);
  uint8_t* bc = scratch->Bytes(4 * nmax);
  for (size_t j = 0; j < nmax; ++j) {
    for (int l = 0; l < 4; ++l) {
      bc[4 * j + l] = (j < N[l]) ? static_cast<uint8_t>(B[l][j]) : 0;
    }
  }
  for (size_t j = 0; j <= nmax; ++j) {
    double v = kNwGap * static_cast<double>(j);
    for (int l = 0; l < 4; ++l) prev[4 * j + l] = v;
  }
  const __m256d matchv = _mm256_set1_pd(kNwMatch);
  const __m256d mismatchv = _mm256_set1_pd(kNwMismatch);
  const __m256d gapv = _mm256_set1_pd(kNwGap);
  for (size_t i = 1; i <= mmax; ++i) {
    uint32_t ac4 = 0;
    for (int l = 0; l < 4; ++l) {
      // 0xFF never equals a padded-b 0 byte, so dead lanes always mismatch.
      uint8_t c = (i <= M[l]) ? static_cast<uint8_t>(A[l][i - 1]) : 0xFF;
      ac4 |= static_cast<uint32_t>(c) << (8 * l);
    }
    const __m128i acx = _mm_cvtsi32_si128(static_cast<int>(ac4));
    __m256d leftv = _mm256_set1_pd(kNwGap * static_cast<double>(i));
    _mm256_storeu_pd(cur, leftv);
    for (size_t j = 1; j <= nmax; ++j) {
      uint32_t bc4;
      std::memcpy(&bc4, bc + 4 * (j - 1), 4);
      __m128i diff =
          _mm_xor_si128(acx, _mm_cvtsi32_si128(static_cast<int>(bc4)));
      __m256i d64 = _mm256_cvtepu8_epi64(diff);
      __m256d eq = _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(d64, _mm256_setzero_si256()));
      __m256d sub = _mm256_blendv_pd(mismatchv, matchv, eq);
      __m256d diag = _mm256_add_pd(_mm256_loadu_pd(prev + 4 * (j - 1)), sub);
      __m256d up = _mm256_add_pd(_mm256_loadu_pd(prev + 4 * j), gapv);
      __m256d cand = _mm256_max_pd(up, diag);
      leftv = _mm256_max_pd(_mm256_add_pd(leftv, gapv), cand);
      _mm256_storeu_pd(cur + 4 * j, leftv);
    }
    std::swap(prev, cur);
    for (int l = 0; l < 4; ++l) {
      if (M[l] == i) {
        double score = prev[4 * N[l] + l];
        double mx = static_cast<double>(std::max(M[l], N[l]));
        out[idx[l]] = std::clamp(score / mx, 0.0, 1.0);
      }
    }
  }
}

__attribute__((target("avx2"))) void SwBatch4Avx2(const std::string_view* a,
                                                  const std::string_view* b,
                                                  const uint32_t* idx,
                                                  double* out,
                                                  DpScratch* scratch) {
  std::string_view A[4], B[4];
  size_t M[4], N[4], mmax = 0, nmax = 0;
  bool live[4];
  for (int l = 0; l < 4; ++l) {
    std::string_view x = a[idx[l]], y = b[idx[l]];
    if (x.size() > y.size()) std::swap(x, y);
    A[l] = x;
    B[l] = y;
    M[l] = x.size();
    N[l] = y.size();
    live[l] = (M[l] > 0);
    if (!live[l]) out[idx[l]] = SmithWatermanSimilarity(x, y);
    mmax = std::max(mmax, M[l]);
    nmax = std::max(nmax, N[l]);
  }
  if (mmax == 0) return;
  double* prev = scratch->Doubles(12 * (nmax + 1));
  double* cur = prev + 4 * (nmax + 1);
  double* jmask = cur + 4 * (nmax + 1);  // all-ones where j <= N[l]
  uint8_t* bc = scratch->Bytes(4 * nmax);
  const uint64_t kOnes = ~0ull;
  for (size_t j = 0; j <= nmax; ++j) {
    for (int l = 0; l < 4; ++l) {
      uint64_t m0 = (j >= 1 && j <= N[l]) ? kOnes : 0;
      std::memcpy(&jmask[4 * j + l], &m0, 8);
    }
  }
  for (size_t j = 0; j < nmax; ++j) {
    for (int l = 0; l < 4; ++l) {
      bc[4 * j + l] = (j < N[l]) ? static_cast<uint8_t>(B[l][j]) : 0;
    }
  }
  for (size_t j = 0; j <= nmax; ++j) {
    for (int l = 0; l < 4; ++l) prev[4 * j + l] = 0.0;
  }
  const __m256d matchv = _mm256_set1_pd(kNwMatch);
  const __m256d mismatchv = _mm256_set1_pd(kNwMismatch);
  const __m256d gapv = _mm256_set1_pd(kNwGap);
  const __m256d zerov = _mm256_setzero_pd();
  __m256d bestv = zerov;
  for (size_t i = 1; i <= mmax; ++i) {
    uint32_t ac4 = 0;
    alignas(32) uint64_t act[4];
    for (int l = 0; l < 4; ++l) {
      uint8_t c = (i <= M[l]) ? static_cast<uint8_t>(A[l][i - 1]) : 0xFF;
      ac4 |= static_cast<uint32_t>(c) << (8 * l);
      act[l] = (i <= M[l]) ? kOnes : 0;
    }
    const __m128i acx = _mm_cvtsi32_si128(static_cast<int>(ac4));
    const __m256d activev =
        _mm256_loadu_pd(reinterpret_cast<const double*>(act));
    __m256d leftv = zerov;
    _mm256_storeu_pd(cur, zerov);
    for (size_t j = 1; j <= nmax; ++j) {
      uint32_t bc4;
      std::memcpy(&bc4, bc + 4 * (j - 1), 4);
      __m128i diff =
          _mm_xor_si128(acx, _mm_cvtsi32_si128(static_cast<int>(bc4)));
      __m256i d64 = _mm256_cvtepu8_epi64(diff);
      __m256d eq = _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(d64, _mm256_setzero_si256()));
      __m256d sub = _mm256_blendv_pd(mismatchv, matchv, eq);
      __m256d diag = _mm256_add_pd(_mm256_loadu_pd(prev + 4 * (j - 1)), sub);
      __m256d up = _mm256_add_pd(_mm256_loadu_pd(prev + 4 * j), gapv);
      __m256d cand = _mm256_max_pd(_mm256_max_pd(zerov, diag), up);
      leftv = _mm256_max_pd(_mm256_add_pd(leftv, gapv), cand);
      _mm256_storeu_pd(cur + 4 * j, leftv);
      __m256d inbounds =
          _mm256_and_pd(_mm256_loadu_pd(jmask + 4 * j), activev);
      bestv = _mm256_max_pd(bestv, _mm256_and_pd(leftv, inbounds));
    }
    std::swap(prev, cur);
  }
  alignas(32) double best4[4];
  _mm256_storeu_pd(best4, bestv);
  for (int l = 0; l < 4; ++l) {
    if (!live[l]) continue;
    double mn = static_cast<double>(std::min(M[l], N[l]));
    out[idx[l]] = std::clamp(best4[l] / mn, 0.0, 1.0);
  }
}

#endif  // EMX_X86

}  // namespace

SimdLevel DetectedSimdLevel() {
  static const SimdLevel level = CpuLevel();
  return level;
}

SimdLevel ActiveSimdLevel() {
  SimdLevel level = std::min(DetectedSimdLevel(), EnvClamp());
  int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) level = std::min(level, static_cast<SimdLevel>(forced));
  return level;
}

void ForceSimdLevel(SimdLevel level) {
  g_forced.store(static_cast<int>(level), std::memory_order_relaxed);
}

void ResetSimdLevel() { g_forced.store(-1, std::memory_order_relaxed); }

void ExactMatchBatch(const std::string_view* a, const std::string_view* b,
                     size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = (a[i] == b[i]) ? 1.0 : 0.0;
}

void LevenshteinSimilarityBatch(const std::string_view* a,
                                const std::string_view* b, size_t n,
                                double* out) {
  DpScratch& scratch = DpScratch::Tls();
  for (size_t i = 0; i < n; ++i) {
    size_t mx = std::max(a[i].size(), b[i].size());
    if (mx == 0) {
      out[i] = 1.0;
      continue;
    }
    out[i] = 1.0 - static_cast<double>(MyersLevenshtein(a[i], b[i], &scratch)) /
                       static_cast<double>(mx);
  }
}

void JaroSimilarityBatch(const std::string_view* a, const std::string_view* b,
                         size_t n, double* out) {
  DpScratch& scratch = DpScratch::Tls();
  const WindowScanFn scan = SelectWindowScan();
  for (size_t i = 0; i < n; ++i) {
    out[i] = JaroOnePair(a[i], b[i], &scratch, scan);
  }
}

void JaroWinklerSimilarityBatch(const std::string_view* a,
                                const std::string_view* b, size_t n,
                                double* out, double p) {
  DpScratch& scratch = DpScratch::Tls();
  const WindowScanFn scan = SelectWindowScan();
  for (size_t i = 0; i < n; ++i) {
    double jaro = JaroOnePair(a[i], b[i], &scratch, scan);
    size_t prefix = 0;
    size_t limit = std::min({a[i].size(), b[i].size(), size_t{4}});
    while (prefix < limit && a[i][prefix] == b[i][prefix]) ++prefix;
    out[i] = jaro + static_cast<double>(prefix) * p * (1.0 - jaro);
  }
}

void NeedlemanWunschSimilarityBatch(const std::string_view* a,
                                    const std::string_view* b, size_t n,
                                    double* out) {
  const uint32_t* order = LengthSortedOrder(a, b, n);
  size_t k = 0;
#ifdef EMX_X86
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    DpScratch& scratch = DpScratch::Tls();
    // Length-sorted order puts same-sized pairs in the same 4-lane group,
    // minimizing the padding the interleaved kernel wastes work on.
    for (; k + 4 <= n; k += 4) NwBatch4Avx2(a, b, order + k, out, &scratch);
  }
#endif
  for (; k < n; ++k) {
    uint32_t i = order[k];
    out[i] = NeedlemanWunschSimilarity(a[i], b[i]);
  }
}

void SmithWatermanSimilarityBatch(const std::string_view* a,
                                  const std::string_view* b, size_t n,
                                  double* out) {
  const uint32_t* order = LengthSortedOrder(a, b, n);
  size_t k = 0;
#ifdef EMX_X86
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    DpScratch& scratch = DpScratch::Tls();
    for (; k + 4 <= n; k += 4) SwBatch4Avx2(a, b, order + k, out, &scratch);
  }
#endif
  for (; k < n; ++k) {
    uint32_t i = order[k];
    out[i] = SmithWatermanSimilarity(a[i], b[i]);
  }
}

void AffineGapSimilarityBatch(const std::string_view* a,
                              const std::string_view* b, size_t n,
                              double* out) {
  const uint32_t* order = LengthSortedOrder(a, b, n);
  for (size_t k = 0; k < n; ++k) {
    uint32_t i = order[k];
    out[i] = AffineGapSimilarity(a[i], b[i]);
  }
}

}  // namespace emx
