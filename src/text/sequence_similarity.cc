#include "src/text/sequence_similarity.h"

#include <algorithm>
#include <vector>

#include "src/text/batch_kernel.h"
#include "src/text/sequence_kernel.h"

namespace emx {

int LevenshteinDistance(std::string_view a, std::string_view b) {
  return MyersLevenshtein(a, b, &DpScratch::Tls());
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  size_t mx = std::max(a.size(), b.size());
  if (mx == 0) return 1.0;
  return 1.0 - static_cast<double>(LevenshteinDistance(a, b)) /
                   static_cast<double>(mx);
}

// One-lane calls into the batch kernels, so the Jaro match scan has one
// body (and one SIMD dispatch) for features, rules and tests alike.
double JaroSimilarity(std::string_view a, std::string_view b) {
  double out;
  JaroSimilarityBatch(&a, &b, 1, &out);
  return out;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b, double p) {
  double out;
  JaroWinklerSimilarityBatch(&a, &b, 1, &out, p);
  return out;
}

double NeedlemanWunschScore(std::string_view a, std::string_view b,
                            double match, double mismatch, double gap) {
  // The score is symmetric (transposing the DP matrix swaps the roles of the
  // up/left gap candidates, and max over the same values is unchanged), so
  // orient the LONGER string as the inner row: fewer row initializations and
  // a better-amortized hoisted outer character. Matches the Levenshtein
  // convention of normalizing orientation before the DP.
  if (a.size() > b.size()) std::swap(a, b);
  const size_t m = a.size(), n = b.size();
  double* prev = DpScratch::Tls().Doubles(2 * (n + 1));
  double* cur = prev + (n + 1);
  for (size_t j = 0; j <= n; ++j) prev[j] = gap * static_cast<double>(j);
  for (size_t i = 1; i <= m; ++i) {
    const char ai = a[i - 1];
    cur[0] = gap * static_cast<double>(i);
    for (size_t j = 1; j <= n; ++j) {
      double diag = prev[j - 1] + (ai == b[j - 1] ? match : mismatch);
      cur[j] = std::max({diag, prev[j] + gap, cur[j - 1] + gap});
    }
    std::swap(prev, cur);
  }
  return prev[n];
}

double NeedlemanWunschSimilarity(std::string_view a, std::string_view b) {
  size_t mx = std::max(a.size(), b.size());
  if (mx == 0) return 1.0;
  double s = NeedlemanWunschScore(a, b) / static_cast<double>(mx);
  return std::clamp(s, 0.0, 1.0);
}

double SmithWatermanScore(std::string_view a, std::string_view b,
                          double match, double mismatch, double gap) {
  // Symmetric for the same reason as Needleman-Wunsch (`best` is a max over
  // every cell, and the transposed matrix holds the same cell values).
  if (a.size() > b.size()) std::swap(a, b);
  const size_t m = a.size(), n = b.size();
  double* prev = DpScratch::Tls().Doubles(2 * (n + 1));
  double* cur = prev + (n + 1);
  for (size_t j = 0; j <= n; ++j) prev[j] = 0.0;
  double best = 0.0;
  for (size_t i = 1; i <= m; ++i) {
    const char ai = a[i - 1];
    cur[0] = 0.0;
    for (size_t j = 1; j <= n; ++j) {
      double diag = prev[j - 1] + (ai == b[j - 1] ? match : mismatch);
      cur[j] = std::max({0.0, diag, prev[j] + gap, cur[j - 1] + gap});
      best = std::max(best, cur[j]);
    }
    std::swap(prev, cur);
  }
  return best;
}

double SmithWatermanSimilarity(std::string_view a, std::string_view b) {
  size_t mn = std::min(a.size(), b.size());
  if (mn == 0) return (a.size() == b.size()) ? 1.0 : 0.0;
  double s = SmithWatermanScore(a, b) / static_cast<double>(mn);
  return std::clamp(s, 0.0, 1.0);
}

double HammingSimilarity(std::string_view a, std::string_view b) {
  size_t mx = std::max(a.size(), b.size());
  if (mx == 0) return 1.0;
  size_t mn = std::min(a.size(), b.size());
  size_t same = 0;
  for (size_t i = 0; i < mn; ++i) {
    if (a[i] == b[i]) ++same;
  }
  return static_cast<double>(same) / static_cast<double>(mx);
}

double ExactMatch(std::string_view a, std::string_view b) {
  return a == b ? 1.0 : 0.0;
}

// --- scalar oracle ---------------------------------------------------------
// The seed implementations, unchanged. Every kernel above must reproduce
// these bit-exactly; keep them boring.

namespace oracle {

int LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);  // a is the shorter: O(min) space
  const size_t m = a.size(), n = b.size();
  if (m == 0) return static_cast<int>(n);
  std::vector<int> prev(m + 1), cur(m + 1);
  for (size_t i = 0; i <= m; ++i) prev[i] = static_cast<int>(i);
  for (size_t j = 1; j <= n; ++j) {
    cur[0] = static_cast<int>(j);
    for (size_t i = 1; i <= m; ++i) {
      int sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  size_t mx = std::max(a.size(), b.size());
  if (mx == 0) return 1.0;
  return 1.0 - static_cast<double>(LevenshteinDistance(a, b)) /
                   static_cast<double>(mx);
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  const size_t la = a.size(), lb = b.size();
  if (la == 0 && lb == 0) return 1.0;
  if (la == 0 || lb == 0) return 0.0;
  const int window =
      std::max(0, static_cast<int>(std::max(la, lb)) / 2 - 1);
  std::vector<bool> a_match(la, false), b_match(lb, false);
  int matches = 0;
  for (size_t i = 0; i < la; ++i) {
    size_t lo = (static_cast<int>(i) > window) ? i - window : 0;
    size_t hi = std::min(lb, i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (!b_match[j] && a[i] == b[j]) {
        a_match[i] = true;
        b_match[j] = true;
        ++matches;
        break;
      }
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

double JaroWinklerSimilarity(std::string_view a, std::string_view b, double p) {
  double jaro = JaroSimilarity(a, b);
  size_t prefix = 0;
  size_t limit = std::min({a.size(), b.size(), static_cast<size_t>(4)});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * p * (1.0 - jaro);
}

double NeedlemanWunschScore(std::string_view a, std::string_view b,
                            double match, double mismatch, double gap) {
  const size_t m = a.size(), n = b.size();
  std::vector<double> prev(n + 1), cur(n + 1);
  for (size_t j = 0; j <= n; ++j) prev[j] = gap * static_cast<double>(j);
  for (size_t i = 1; i <= m; ++i) {
    cur[0] = gap * static_cast<double>(i);
    for (size_t j = 1; j <= n; ++j) {
      double diag = prev[j - 1] + (a[i - 1] == b[j - 1] ? match : mismatch);
      cur[j] = std::max({diag, prev[j] + gap, cur[j - 1] + gap});
    }
    std::swap(prev, cur);
  }
  return prev[n];
}

double NeedlemanWunschSimilarity(std::string_view a, std::string_view b) {
  size_t mx = std::max(a.size(), b.size());
  if (mx == 0) return 1.0;
  double s = NeedlemanWunschScore(a, b) / static_cast<double>(mx);
  return std::clamp(s, 0.0, 1.0);
}

double SmithWatermanScore(std::string_view a, std::string_view b,
                          double match, double mismatch, double gap) {
  const size_t m = a.size(), n = b.size();
  std::vector<double> prev(n + 1, 0.0), cur(n + 1, 0.0);
  double best = 0.0;
  for (size_t i = 1; i <= m; ++i) {
    cur[0] = 0.0;
    for (size_t j = 1; j <= n; ++j) {
      double diag = prev[j - 1] + (a[i - 1] == b[j - 1] ? match : mismatch);
      cur[j] = std::max({0.0, diag, prev[j] + gap, cur[j - 1] + gap});
      best = std::max(best, cur[j]);
    }
    std::swap(prev, cur);
  }
  return best;
}

double SmithWatermanSimilarity(std::string_view a, std::string_view b) {
  size_t mn = std::min(a.size(), b.size());
  if (mn == 0) return (a.size() == b.size()) ? 1.0 : 0.0;
  double s = SmithWatermanScore(a, b) / static_cast<double>(mn);
  return std::clamp(s, 0.0, 1.0);
}

}  // namespace oracle

}  // namespace emx
