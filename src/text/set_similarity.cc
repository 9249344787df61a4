#include "src/text/set_similarity.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

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

// Thread-local token-pair Jaro-Winkler memo for MongeElkanSimilarityMemo.
// Keyed by the ids' interner uid: a lookup against a different interner
// resets the table (ids are only comparable within one interner). Bounded
// by kMongeElkanMemoMaxEntries — a pathological vocabulary flushes the
// table instead of growing forever — and generation-stamped so
// ClearMongeElkanMemo() can flush every thread's table lazily.
std::atomic<uint64_t> g_memo_generation{0};

struct JwMemo {
  uint64_t interner_uid = 0;
  uint64_t generation = 0;
  std::unordered_map<uint64_t, double> scores;  // (aid << 32 | bid) -> jw
};

double MemoizedJw(JwMemo& memo, std::string_view a, uint32_t aid,
                  std::string_view b, uint32_t bid) {
  const uint64_t key = (static_cast<uint64_t>(aid) << 32) | bid;
  auto it = memo.scores.find(key);
  if (it != memo.scores.end()) return it->second;
  double v = JaroWinklerSimilarity(a, b);
  memo.scores.emplace(key, v);
  return v;
}

double MongeElkanAsymmetricMemo(JwMemo& memo, const std::string_view* a,
                                const uint32_t* aid, size_t na,
                                const std::string_view* b, const uint32_t* bid,
                                size_t nb) {
  if (na == 0) return nb == 0 ? 1.0 : 0.0;
  if (nb == 0) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < na; ++i) {
    double best = 0.0;
    for (size_t j = 0; j < nb; ++j) {
      best = std::max(best, MemoizedJw(memo, a[i], aid[i], b[j], bid[j]));
    }
    sum += best;
  }
  return sum / static_cast<double>(na);
}

}  // namespace

double MongeElkanSimilarityMemo(const std::string_view* a, const uint32_t* aid,
                                size_t na, const std::string_view* b,
                                const uint32_t* bid, size_t nb,
                                uint64_t interner_uid) {
  thread_local JwMemo memo;
  const uint64_t generation =
      g_memo_generation.load(std::memory_order_relaxed);
  if (memo.interner_uid != interner_uid || memo.generation != generation ||
      memo.scores.size() > kMongeElkanMemoMaxEntries) {
    memo.interner_uid = interner_uid;
    memo.generation = generation;
    memo.scores.clear();
  }
  // Directional keys on purpose: the reverse direction scores jw(b_j, a_i),
  // stored under (bid << 32 | aid), so no symmetry assumption about the
  // Jaro-Winkler implementation is baked into the memo.
  return 0.5 * (MongeElkanAsymmetricMemo(memo, a, aid, na, b, bid, nb) +
                MongeElkanAsymmetricMemo(memo, b, bid, nb, a, aid, na));
}

void ClearMongeElkanMemo() {
  g_memo_generation.fetch_add(1, std::memory_order_relaxed);
}

uint64_t MongeElkanMemoGeneration() {
  return g_memo_generation.load(std::memory_order_relaxed);
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
