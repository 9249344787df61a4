#ifndef EMX_TEXT_TOKENIZER_H_
#define EMX_TEXT_TOKENIZER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace emx {

// Splits a string into tokens. Implementations are stateless and
// thread-compatible; `unique` controls set vs bag semantics (set semantics
// are what the paper's overlap/Jaccard blockers use).
class Tokenizer {
 public:
  virtual ~Tokenizer() = default;

  // Tokenizes `s`. When `unique()` is set, duplicates are removed (first
  // occurrence order preserved).
  std::vector<std::string> Tokenize(std::string_view s) const;

  // The one tokenization body: replaces `*out` with every token of `s` in
  // emission order, repeats included whatever unique() says (callers that
  // want set semantics drop repeats themselves, as Tokenize does). The
  // views point into `s` or into `*buffer`, a caller-owned scratch string
  // (q-gram padding), so they stay valid until either changes. Reusing
  // `out` and `buffer` across calls makes tokenization allocation-free.
  virtual void TokenViews(std::string_view s, std::string* buffer,
                          std::vector<std::string_view>* out) const = 0;

  // A stable name for feature naming, e.g. "ws", "qgm_3". Together with
  // unique() it identifies the tokenizer's output, so prep caches key on it.
  virtual std::string name() const = 0;

  bool unique() const { return unique_; }
  void set_unique(bool unique) { unique_ = unique; }

 private:
  bool unique_ = true;
};

// Tokens are maximal runs of non-whitespace ("word-level tokenizer" in §7).
class WhitespaceTokenizer : public Tokenizer {
 public:
  std::string name() const override { return "ws"; }
  void TokenViews(std::string_view s, std::string* buffer,
                  std::vector<std::string_view>* out) const override;
};

// Tokens are maximal runs of [A-Za-z0-9]; punctuation separates.
class AlphanumericTokenizer : public Tokenizer {
 public:
  std::string name() const override { return "alnum"; }
  void TokenViews(std::string_view s, std::string* buffer,
                  std::vector<std::string_view>* out) const override;
};

// Sliding character q-grams. With `pad` set, the string is padded with q-1
// leading/trailing '#'/'$' sentinels (py_stringmatching convention), so
// "ab" with q=3 yields {"##a","#ab","ab$","b$$"}.
class QgramTokenizer : public Tokenizer {
 public:
  explicit QgramTokenizer(int q, bool pad = true);

  // "qgm_3" padded, "qgm_3_nopad" unpadded: the two emit different tokens.
  std::string name() const override {
    return "qgm_" + std::to_string(q_) + (pad_ ? "" : "_nopad");
  }
  int q() const { return q_; }
  void TokenViews(std::string_view s, std::string* buffer,
                  std::vector<std::string_view>* out) const override;

 private:
  int q_;
  bool pad_;
};

// Splits on a fixed delimiter character (used for the '|'-joined employee
// name lists of §6).
class DelimiterTokenizer : public Tokenizer {
 public:
  explicit DelimiterTokenizer(char delim) : delim_(delim) {}

  std::string name() const override { return std::string("delim_") + delim_; }
  void TokenViews(std::string_view s, std::string* buffer,
                  std::vector<std::string_view>* out) const override;

 private:
  char delim_;
};

}  // namespace emx

#endif  // EMX_TEXT_TOKENIZER_H_
