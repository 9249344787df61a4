#include "src/feature/feature.h"

#include <cmath>
#include <limits>

#include "src/core/strings.h"
#include "src/text/batch_kernel.h"
#include "src/text/numeric_similarity.h"
#include "src/text/phonetic.h"
#include "src/text/sequence_similarity.h"
#include "src/text/set_similarity.h"
#include "src/text/tokenizer.h"

namespace emx {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Normalized view of a value for the legacy per-pair path. String values
// needing no lowercasing are viewed in place — no copy; everything else
// (numerics to format, strings to lowercase) materializes into `buf`.
std::string_view PrepView(const Value& v, bool lowercase, std::string* buf) {
  if (!lowercase && v.is_string()) return v.AsStringView();
  *buf = v.AsString();
  if (lowercase) {
    for (char& c : *buf) {
      if (c >= 'A' && c <= 'Z') c += 'a' - 'A';
    }
  }
  return *buf;
}

// Builds a string feature: scorer over two normalized strings, evaluable
// per pair (fn) or over the normalized texts of prepped columns a whole
// column at a time (batch_fn, the measure's batch kernel).
template <typename Fn>
Feature StringFeature(std::string name, const std::string& left_attr,
                      const std::string& right_attr, Fn scorer,
                      bool lowercase, Feature::BatchScoreFn batch_fn) {
  Feature f;
  f.name = std::move(name);
  f.left_attr = left_attr;
  f.right_attr = right_attr;
  f.fn = [scorer, lowercase](const Value& a, const Value& b) -> double {
    if (a.is_null() || b.is_null()) return kNaN;
    std::string ba, bb;
    return scorer(PrepView(a, lowercase, &ba), PrepView(b, lowercase, &bb));
  };
  f.prep = {lowercase, /*tokenize=*/false, /*qgram=*/0};
  f.batch_fn = batch_fn;
  return f;
}

// Builds a token-set feature: `scorer` runs the legacy path over token
// strings, `id_scorer` the merge kernel over the cached sorted id spans.
// Both reduce to the same (|A|, |B|, |A ∩ B|), so results are bit-identical.
template <typename Fn, typename IdFn>
Feature TokenSetFeature(std::string name, const std::string& left_attr,
                        const std::string& right_attr, Fn scorer,
                        IdFn id_scorer, int qgram, bool lowercase) {
  Feature f;
  f.name = std::move(name);
  f.left_attr = left_attr;
  f.right_attr = right_attr;
  f.fn = [scorer, qgram, lowercase](const Value& a,
                                    const Value& b) -> double {
    if (a.is_null() || b.is_null()) return kNaN;
    std::string ba, bb;
    std::vector<std::string> ta, tb;
    if (qgram > 0) {
      QgramTokenizer tok(qgram);
      ta = tok.Tokenize(PrepView(a, lowercase, &ba));
      tb = tok.Tokenize(PrepView(b, lowercase, &bb));
    } else {
      WhitespaceTokenizer tok;
      ta = tok.Tokenize(PrepView(a, lowercase, &ba));
      tb = tok.Tokenize(PrepView(b, lowercase, &bb));
    }
    return scorer(ta, tb);
  };
  f.prep = {lowercase, /*tokenize=*/true, qgram};
  f.prep_fn = [id_scorer](const PreparedColumn& lc, size_t i,
                          const PreparedColumn& rc, size_t j) -> double {
    if (lc.is_null(i) || rc.is_null(j)) return kNaN;
    return id_scorer(lc.ids(i), rc.ids(j));
  };
  return f;
}

std::string TokName(int qgram) {
  return qgram > 0 ? "qgm" + std::to_string(qgram) : "ws";
}

std::string FeatName(const std::string& attr, const std::string& sim,
                     bool lowercase) {
  return (lowercase ? "lc_" : "") + attr + "_" + sim;
}

// Extracts a 4-digit year from a date-like string ("2008-34103-19449",
// "10/1/08", "1997-07-01"); returns NaN-signal via ok=false when absent.
bool ExtractYear(const std::string& s, int* year) {
  // Leading 4-digit year.
  if (s.size() >= 4 && IsAllDigits(s.substr(0, 4))) {
    int y = std::stoi(s.substr(0, 4));
    if (y >= 1900 && y <= 2100) {
      *year = y;
      return true;
    }
  }
  // Trailing 4- or 2-digit year after the last '/' or '-'. Other digit-run
  // lengths can't be a year — and unbounded runs would overflow std::stoi
  // (a 10-digit tail used to throw out_of_range here).
  size_t pos = s.find_last_of("/-");
  if (pos != std::string::npos && pos + 1 < s.size()) {
    std::string tail = s.substr(pos + 1);
    if ((tail.size() == 2 || tail.size() == 4) && IsAllDigits(tail)) {
      int y = std::stoi(tail);
      if (tail.size() == 2) y += (y < 50) ? 2000 : 1900;
      if (y >= 1900 && y <= 2100) {
        *year = y;
        return true;
      }
    }
  }
  return false;
}

}  // namespace

Feature MakeExactMatchFeature(const std::string& left_attr,
                              const std::string& right_attr, bool lowercase) {
  return StringFeature(
      FeatName(left_attr, "exact", lowercase), left_attr, right_attr,
      [](std::string_view a, std::string_view b) { return ExactMatch(a, b); },
      lowercase, &ExactMatchBatch);
}

Feature MakeLevenshteinFeature(const std::string& left_attr,
                               const std::string& right_attr, bool lowercase) {
  return StringFeature(
      FeatName(left_attr, "lev", lowercase), left_attr, right_attr,
      [](std::string_view a, std::string_view b) {
        return LevenshteinSimilarity(a, b);
      },
      lowercase, &LevenshteinSimilarityBatch);
}

Feature MakeJaroFeature(const std::string& left_attr,
                        const std::string& right_attr, bool lowercase) {
  return StringFeature(
      FeatName(left_attr, "jaro", lowercase), left_attr, right_attr,
      [](std::string_view a, std::string_view b) {
        return JaroSimilarity(a, b);
      },
      lowercase, &JaroSimilarityBatch);
}

Feature MakeJaroWinklerFeature(const std::string& left_attr,
                               const std::string& right_attr, bool lowercase) {
  return StringFeature(
      FeatName(left_attr, "jwn", lowercase), left_attr, right_attr,
      [](std::string_view a, std::string_view b) {
        return JaroWinklerSimilarity(a, b);
      },
      lowercase,
      +[](const std::string_view* a, const std::string_view* b, size_t n,
          double* out) { JaroWinklerSimilarityBatch(a, b, n, out); });
}

Feature MakeNeedlemanWunschFeature(const std::string& left_attr,
                                   const std::string& right_attr,
                                   bool lowercase) {
  return StringFeature(
      FeatName(left_attr, "nmw", lowercase), left_attr, right_attr,
      [](std::string_view a, std::string_view b) {
        return NeedlemanWunschSimilarity(a, b);
      },
      lowercase, &NeedlemanWunschSimilarityBatch);
}

Feature MakeSmithWatermanFeature(const std::string& left_attr,
                                 const std::string& right_attr,
                                 bool lowercase) {
  return StringFeature(
      FeatName(left_attr, "sw", lowercase), left_attr, right_attr,
      [](std::string_view a, std::string_view b) {
        return SmithWatermanSimilarity(a, b);
      },
      lowercase, &SmithWatermanSimilarityBatch);
}

Feature MakeAffineGapFeature(const std::string& left_attr,
                             const std::string& right_attr, bool lowercase) {
  return StringFeature(
      FeatName(left_attr, "ag", lowercase), left_attr, right_attr,
      [](std::string_view a, std::string_view b) {
        return AffineGapSimilarity(a, b);
      },
      lowercase, &AffineGapSimilarityBatch);
}

Feature MakeJaccardFeature(const std::string& left_attr,
                           const std::string& right_attr, int qgram,
                           bool lowercase) {
  return TokenSetFeature(
      FeatName(left_attr, "jac_" + TokName(qgram), lowercase), left_attr,
      right_attr,
      [](const std::vector<std::string>& a, const std::vector<std::string>& b) {
        return JaccardSimilarity(a, b);
      },
      [](IdSpan a, IdSpan b) { return JaccardSimilarity(a, b); }, qgram,
      lowercase);
}

Feature MakeCosineFeature(const std::string& left_attr,
                          const std::string& right_attr, int qgram,
                          bool lowercase) {
  return TokenSetFeature(
      FeatName(left_attr, "cos_" + TokName(qgram), lowercase), left_attr,
      right_attr,
      [](const std::vector<std::string>& a, const std::vector<std::string>& b) {
        return CosineSimilarity(a, b);
      },
      [](IdSpan a, IdSpan b) { return CosineSimilarity(a, b); }, qgram,
      lowercase);
}

Feature MakeDiceFeature(const std::string& left_attr,
                        const std::string& right_attr, int qgram,
                        bool lowercase) {
  return TokenSetFeature(
      FeatName(left_attr, "dice_" + TokName(qgram), lowercase), left_attr,
      right_attr,
      [](const std::vector<std::string>& a, const std::vector<std::string>& b) {
        return DiceSimilarity(a, b);
      },
      [](IdSpan a, IdSpan b) { return DiceSimilarity(a, b); }, qgram,
      lowercase);
}

Feature MakeOverlapCoefficientFeature(const std::string& left_attr,
                                      const std::string& right_attr, int qgram,
                                      bool lowercase) {
  return TokenSetFeature(
      FeatName(left_attr, "ovc_" + TokName(qgram), lowercase), left_attr,
      right_attr,
      [](const std::vector<std::string>& a, const std::vector<std::string>& b) {
        return OverlapCoefficient(a, b);
      },
      [](IdSpan a, IdSpan b) { return OverlapCoefficient(a, b); }, qgram,
      lowercase);
}

Feature MakeMongeElkanFeature(const std::string& left_attr,
                              const std::string& right_attr, bool lowercase) {
  // Monge-Elkan needs the token STRINGS (it runs Jaro-Winkler between
  // tokens), so its prepared path reads the column's token rows: views,
  // ids and signatures in tokenizer-emission order, which preserves the
  // legacy summation order (PrepForFeature preps word tokens with
  // signatures).
  Feature f;
  f.name = FeatName(left_attr, "mel", lowercase);
  f.left_attr = left_attr;
  f.right_attr = right_attr;
  f.fn = [lowercase](const Value& a, const Value& b) -> double {
    if (a.is_null() || b.is_null()) return kNaN;
    std::string ba, bb;
    WhitespaceTokenizer tok;
    std::vector<std::string> ta = tok.Tokenize(PrepView(a, lowercase, &ba));
    std::vector<std::string> tb = tok.Tokenize(PrepView(b, lowercase, &bb));
    return MongeElkanSimilarity(ta, tb);
  };
  f.prep = {lowercase, /*tokenize=*/true, /*qgram=*/0};
  f.prep_fn = [](const PreparedColumn& lc, size_t i, const PreparedColumn& rc,
                 size_t j) -> double {
    if (lc.is_null(i) || rc.is_null(j)) return kNaN;
    return MongeElkanSimilarity(lc.token_row(i), rc.token_row(j));
  };
  return f;
}

Feature MakeAbsDiffFeature(const std::string& left_attr,
                           const std::string& right_attr) {
  Feature f;
  f.name = left_attr + "_absdiff";
  f.left_attr = left_attr;
  f.right_attr = right_attr;
  f.fn = [](const Value& a, const Value& b) -> double {
    if (!a.is_numeric() || !b.is_numeric()) return kNaN;
    return AbsoluteDifference(a.AsDouble(), b.AsDouble());
  };
  return f;
}

Feature MakeRelativeSimFeature(const std::string& left_attr,
                               const std::string& right_attr) {
  Feature f;
  f.name = left_attr + "_relsim";
  f.left_attr = left_attr;
  f.right_attr = right_attr;
  f.fn = [](const Value& a, const Value& b) -> double {
    if (!a.is_numeric() || !b.is_numeric()) return kNaN;
    return RelativeSimilarity(a.AsDouble(), b.AsDouble());
  };
  return f;
}

Feature MakeNumericExactFeature(const std::string& left_attr,
                                const std::string& right_attr) {
  Feature f;
  f.name = left_attr + "_numexact";
  f.left_attr = left_attr;
  f.right_attr = right_attr;
  f.fn = [](const Value& a, const Value& b) -> double {
    if (!a.is_numeric() || !b.is_numeric()) return kNaN;
    return NumericExactMatch(a.AsDouble(), b.AsDouble());
  };
  return f;
}

Feature MakeYearDiffFeature(const std::string& left_attr,
                            const std::string& right_attr) {
  Feature f;
  f.name = left_attr + "_yeardiff";
  f.left_attr = left_attr;
  f.right_attr = right_attr;
  f.fn = [](const Value& a, const Value& b) -> double {
    if (a.is_null() || b.is_null()) return kNaN;
    int ya = 0, yb = 0;
    if (!ExtractYear(a.AsString(), &ya) || !ExtractYear(b.AsString(), &yb)) {
      return kNaN;
    }
    return std::abs(ya - yb);
  };
  return f;
}

}  // namespace emx
