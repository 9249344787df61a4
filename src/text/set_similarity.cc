#include "src/text/set_similarity.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "src/text/sequence_similarity.h"

namespace emx {

namespace {

// Deduplicated view helper.
std::unordered_set<std::string_view> ToSet(const std::vector<std::string>& v) {
  std::unordered_set<std::string_view> s;
  s.reserve(v.size() * 2);
  for (const auto& t : v) s.insert(t);
  return s;
}

struct SetStats {
  size_t size_a;
  size_t size_b;
  size_t intersection;
};

SetStats ComputeStats(const std::vector<std::string>& a,
                      const std::vector<std::string>& b) {
  auto sa = ToSet(a);
  auto sb = ToSet(b);
  const auto& small = sa.size() <= sb.size() ? sa : sb;
  const auto& large = sa.size() <= sb.size() ? sb : sa;
  size_t inter = 0;
  for (const auto& t : small) {
    if (large.count(t)) ++inter;
  }
  return {sa.size(), sb.size(), inter};
}

// Id-span counterpart of ComputeStats: one linear merge over two sorted
// spans, counting distinct values and distinct common values — no hashing,
// no allocation. Runs of equal ids (non-unique tokenizers) collapse to one.
SetStats ComputeStats(IdSpan a, IdSpan b) {
  size_t i = 0, j = 0;
  size_t da = 0, db = 0, inter = 0;
  while (i < a.size && j < b.size) {
    uint32_t va = a.data[i];
    uint32_t vb = b.data[j];
    if (va == vb) {
      ++da;
      ++db;
      ++inter;
      do { ++i; } while (i < a.size && a.data[i] == va);
      do { ++j; } while (j < b.size && b.data[j] == vb);
    } else if (va < vb) {
      ++da;
      do { ++i; } while (i < a.size && a.data[i] == va);
    } else {
      ++db;
      do { ++j; } while (j < b.size && b.data[j] == vb);
    }
  }
  while (i < a.size) {
    uint32_t va = a.data[i];
    ++da;
    do { ++i; } while (i < a.size && a.data[i] == va);
  }
  while (j < b.size) {
    uint32_t vb = b.data[j];
    ++db;
    do { ++j; } while (j < b.size && b.data[j] == vb);
  }
  return {da, db, inter};
}

// Shared score formulas: both representations reduce to the same integer
// triple, so routing them through one set of formulas guarantees the
// double results are bit-identical across representations.
double JaccardFromStats(const SetStats& s) {
  size_t uni = s.size_a + s.size_b - s.intersection;
  if (uni == 0) return 1.0;
  return static_cast<double>(s.intersection) / static_cast<double>(uni);
}

double OverlapCoefficientFromStats(const SetStats& s) {
  size_t mn = std::min(s.size_a, s.size_b);
  if (mn == 0) return (s.size_a == s.size_b) ? 1.0 : 0.0;
  return static_cast<double>(s.intersection) / static_cast<double>(mn);
}

double DiceFromStats(const SetStats& s) {
  size_t denom = s.size_a + s.size_b;
  if (denom == 0) return 1.0;
  return 2.0 * static_cast<double>(s.intersection) /
         static_cast<double>(denom);
}

double CosineFromStats(const SetStats& s) {
  if (s.size_a == 0 || s.size_b == 0) {
    return (s.size_a == s.size_b) ? 1.0 : 0.0;
  }
  return static_cast<double>(s.intersection) /
         std::sqrt(static_cast<double>(s.size_a) *
                   static_cast<double>(s.size_b));
}

}  // namespace

size_t OverlapSize(const std::vector<std::string>& a,
                   const std::vector<std::string>& b) {
  return ComputeStats(a, b).intersection;
}

double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  return JaccardFromStats(ComputeStats(a, b));
}

double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  return OverlapCoefficientFromStats(ComputeStats(a, b));
}

double DiceSimilarity(const std::vector<std::string>& a,
                      const std::vector<std::string>& b) {
  return DiceFromStats(ComputeStats(a, b));
}

double CosineSimilarity(const std::vector<std::string>& a,
                        const std::vector<std::string>& b) {
  return CosineFromStats(ComputeStats(a, b));
}

size_t OverlapSize(IdSpan a, IdSpan b) {
  return ComputeStats(a, b).intersection;
}

double JaccardSimilarity(IdSpan a, IdSpan b) {
  return JaccardFromStats(ComputeStats(a, b));
}

double OverlapCoefficient(IdSpan a, IdSpan b) {
  return OverlapCoefficientFromStats(ComputeStats(a, b));
}

double DiceSimilarity(IdSpan a, IdSpan b) {
  return DiceFromStats(ComputeStats(a, b));
}

double CosineSimilarity(IdSpan a, IdSpan b) {
  return CosineFromStats(ComputeStats(a, b));
}

double MongeElkanAsymmetric(const std::string_view* a, size_t na,
                            const std::string_view* b, size_t nb) {
  if (na == 0) return nb == 0 ? 1.0 : 0.0;
  if (nb == 0) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < na; ++i) {
    double best = 0.0;
    for (size_t j = 0; j < nb; ++j) {
      best = std::max(best, JaroWinklerSimilarity(a[i], b[j]));
    }
    sum += best;
  }
  return sum / static_cast<double>(na);
}

double MongeElkanSimilarity(const std::string_view* a, size_t na,
                            const std::string_view* b, size_t nb) {
  return 0.5 * (MongeElkanAsymmetric(a, na, b, nb) +
                MongeElkanAsymmetric(b, nb, a, na));
}

namespace {

// Sum over the 64 buckets of min(x.histogram[k], y.histogram[k]).
uint32_t HistogramOverlap(const TokenSignature& x, const TokenSignature& y) {
#if defined(__SSE2__)
  __m128i sum = _mm_setzero_si128();
  for (int k = 0; k < 64; k += 16) {
    const __m128i low = _mm_min_epu8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x.histogram + k)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(y.histogram + k)));
    sum = _mm_add_epi64(sum, _mm_sad_epu8(low, _mm_setzero_si128()));
  }
  return static_cast<uint32_t>(_mm_cvtsi128_si64(sum) +
                               _mm_cvtsi128_si64(_mm_unpackhi_epi64(sum, sum)));
#else
  uint32_t sum = 0;
  for (int k = 0; k < 64; ++k) sum += std::min(x.histogram[k], y.histogram[k]);
  return sum;
#endif
}

// JaroWinklerSimilarity's prefix length: equal leading bytes, at most 4.
uint32_t SharedPrefix(const TokenSignature& x, const TokenSignature& y) {
  const uint32_t diff = x.prefix ^ y.prefix;
  const uint32_t equal =
      diff == 0 ? 4 : static_cast<uint32_t>(__builtin_ctz(diff)) / 8;
  return std::min({equal, x.length, y.length});
}

// JaroWinklerUpperBound with each token's 1/length precomputed (0 for an
// empty token).
double Bound(const TokenSignature& x, double inverse_x, const TokenSignature& y,
             double inverse_y) {
  if (x.length == 0 || y.length == 0) return x.length == y.length ? 1.0 : 0.0;
  if ((x.mask & y.mask) == 0) return 0.0;
  uint32_t m = std::min(x.length, y.length);
  // A bucket count saturates only in a token of 255 bytes or more. When the
  // shorter token is below that, its counts are exact and each minimum is
  // too; otherwise the lengths alone bound m.
  if (m < 255) m = std::min(m, HistogramOverlap(x, y));
  // (m/|x| + m/|y| + 1)/3 through reciprocals: a few ulps off, far inside
  // the margin.
  const double jaro = (m * (inverse_x + inverse_y) + 1.0) * (1.0 / 3.0);
  return jaro + SharedPrefix(x, y) * 0.1 * (1.0 - jaro) + 1e-12;
}

double InverseLength(size_t length) {
  return length == 0 ? 0.0 : 1.0 / static_cast<double>(length);
}

// One token of the other side in Monge-Elkan's visit order.
struct Candidate {
  double bound;
  uint32_t index;
};

// Per-thread scratch of the kernel, grown to the largest rows seen. `held`
// and `inverse` hold a's tokens at [0, na) and b's at [na, na + nb).
struct KernelScratch {
  std::vector<uint8_t> held;    // the token's id occurs on the other side
  std::vector<double> inverse;  // InverseLength of the token
  std::vector<double> bounds;   // [i * nb + j]: Bound of (a_i, b_j)
  std::vector<Candidate> visit;
};

// max over k < n of JaroWinklerSimilarity(x, others[k]), given
// bounds[k * stride] >= that score. Tokens are scored in descending order
// of bound, and the first bound <= the running best ends the scan: no later
// token can beat it. The top-bound token usually settles it, so it is found
// by one pass, and only the tokens whose bound beats its score are sorted.
double BestMatch(std::string_view x, const std::string_view* others,
                 const double* bounds, size_t stride, size_t n,
                 std::vector<Candidate>* visit) {
  size_t top = n;
  double top_bound = 0.0;
  for (size_t k = 0; k < n; ++k) {
    if (bounds[k * stride] > top_bound) {
      top_bound = bounds[k * stride];
      top = k;
    }
  }
  if (top == n) return 0.0;
  double best = TokenJaroWinkler(x, others[top]);
  visit->clear();
  for (size_t k = 0; k < n; ++k) {
    const double bound = bounds[k * stride];
    if (k != top && bound > best) {
      visit->push_back({bound, static_cast<uint32_t>(k)});
    }
  }
  std::sort(visit->begin(), visit->end(),
            [](const Candidate& p, const Candidate& q) {
              return p.bound > q.bound;
            });
  for (const Candidate& c : *visit) {
    if (c.bound <= best) break;
    best = std::max(best, TokenJaroWinkler(x, others[c.index]));
  }
  return best;
}

}  // namespace

double MongeElkanSimilarity(const TokenRow& a, const TokenRow& b) {
  const size_t na = a.size, nb = b.size;
  if (na == 0 || nb == 0) {
    return MongeElkanSimilarity(a.tokens, na, b.tokens, nb);
  }
  thread_local KernelScratch s;
  s.held.assign(na + nb, 0);
  for (size_t i = 0; i < na; ++i) {
    for (size_t j = 0; j < nb; ++j) {
      if (a.ids[i] == b.ids[j]) s.held[i] = s.held[na + j] = 1;
    }
  }
  s.inverse.resize(na + nb);
  for (size_t i = 0; i < na; ++i) {
    s.inverse[i] = InverseLength(a.tokens[i].size());
  }
  for (size_t j = 0; j < nb; ++j) {
    s.inverse[na + j] = InverseLength(b.tokens[j].size());
  }
  // The bound is symmetric, so one matrix serves both directions. A cell
  // whose tokens are both held is read by neither.
  s.bounds.resize(na * nb);
  for (size_t i = 0; i < na; ++i) {
    for (size_t j = 0; j < nb; ++j) {
      if (s.held[i] && s.held[na + j]) continue;
      s.bounds[i * nb + j] = Bound(*a.signatures[i], s.inverse[i],
                                   *b.signatures[j], s.inverse[na + j]);
    }
  }
  double ab = 0.0;
  for (size_t i = 0; i < na; ++i) {
    ab += s.held[i] ? 1.0
                    : BestMatch(a.tokens[i], b.tokens, &s.bounds[i * nb], 1,
                                nb, &s.visit);
  }
  double ba = 0.0;
  for (size_t j = 0; j < nb; ++j) {
    ba += s.held[na + j] ? 1.0
                         : BestMatch(b.tokens[j], a.tokens, &s.bounds[j], nb,
                                     na, &s.visit);
  }
  return 0.5 * (ab / static_cast<double>(na) + ba / static_cast<double>(nb));
}

double JaroWinklerUpperBound(const TokenSignature& x,
                             const TokenSignature& y) {
  return Bound(x, InverseLength(x.length), y, InverseLength(y.length));
}

double TokenJaroWinkler(std::string_view a, std::string_view b) {
  const size_t la = a.size(), lb = b.size();
  if (la == 0 || lb == 0 || la > 64 || lb > 64) {
    return JaroWinklerSimilarity(a, b);
  }
  // Position masks of b's bytes; all zero between calls.
  thread_local uint64_t pm[256] = {};
  for (size_t j = 0; j < lb; ++j) {
    pm[static_cast<uint8_t>(b[j])] |= uint64_t{1} << j;
  }
  auto below = [](size_t k) {
    return k >= 64 ? ~uint64_t{0} : (uint64_t{1} << k) - 1;
  };
  // JaroSimilarity's window, and its scan as bit operations.
  const int window = std::max(0, static_cast<int>(std::max(la, lb)) / 2 - 1);
  uint64_t a_matched = 0, b_matched = 0;
  int matches = 0;
  for (size_t i = 0; i < la; ++i) {
    const size_t lo = (static_cast<int>(i) > window) ? i - window : 0;
    const size_t hi = std::min(lb, i + window + 1);
    const uint64_t hits = pm[static_cast<uint8_t>(a[i])] & ~b_matched &
                          below(hi) & ~below(lo);
    if (hits != 0) {
      b_matched |= hits & (~hits + 1);
      a_matched |= uint64_t{1} << i;
      ++matches;
    }
  }
  for (size_t j = 0; j < lb; ++j) pm[static_cast<uint8_t>(b[j])] = 0;
  double jaro = 0.0;
  if (matches != 0) {
    // Matched bytes of a and of b, each in order.
    int transpositions = 0;
    for (uint64_t x = a_matched, y = b_matched; x != 0;
         x &= x - 1, y &= y - 1) {
      if (a[__builtin_ctzll(x)] != b[__builtin_ctzll(y)]) ++transpositions;
    }
    double m = matches;
    jaro = (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0;
  }
  size_t prefix = 0;
  const size_t limit = std::min({la, lb, static_cast<size_t>(4)});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * 0.1 * (1.0 - jaro);
}

double MongeElkanAsymmetric(const std::vector<std::string>& a,
                            const std::vector<std::string>& b) {
  std::vector<std::string_view> va(a.begin(), a.end());
  std::vector<std::string_view> vb(b.begin(), b.end());
  return MongeElkanAsymmetric(va.data(), va.size(), vb.data(), vb.size());
}

double MongeElkanSimilarity(const std::vector<std::string>& a,
                            const std::vector<std::string>& b) {
  std::vector<std::string_view> va(a.begin(), a.end());
  std::vector<std::string_view> vb(b.begin(), b.end());
  return MongeElkanSimilarity(va.data(), va.size(), vb.data(), vb.size());
}

TfIdfScorer::TfIdfScorer(
    const std::vector<std::vector<std::string>>& documents)
    : num_documents_(documents.size()) {
  for (const auto& doc : documents) {
    std::unordered_set<std::string_view> seen;
    for (const auto& t : doc) {
      if (seen.insert(t).second) ++document_frequency_[t];
    }
  }
}

double TfIdfScorer::Idf(const std::string& token) const {
  auto it = document_frequency_.find(token);
  double df = (it == document_frequency_.end())
                  ? 0.0
                  : static_cast<double>(it->second);
  // Smoothed idf; unknown tokens (df=0) get the maximum weight.
  return std::log((static_cast<double>(num_documents_) + 1.0) / (df + 1.0));
}

double TfIdfScorer::Similarity(const std::vector<std::string>& a,
                               const std::vector<std::string>& b) const {
  std::unordered_map<std::string, double> wa, wb;
  for (const auto& t : a) wa[t] += 1.0;
  for (const auto& t : b) wb[t] += 1.0;
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (auto& [t, tf] : wa) {
    double w = tf * Idf(t);
    wa[t] = w;
    na += w * w;
  }
  for (auto& [t, tf] : wb) {
    double w = tf * Idf(t);
    wb[t] = w;
    nb += w * w;
  }
  for (const auto& [t, w] : wa) {
    auto it = wb.find(t);
    if (it != wb.end()) dot += w * it->second;
  }
  if (na == 0.0 || nb == 0.0) return (na == nb) ? 1.0 : 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

}  // namespace emx
