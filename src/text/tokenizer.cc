#include "src/text/tokenizer.h"

#include <cctype>
#include <unordered_set>

#include "src/core/strings.h"

namespace emx {

std::vector<std::string> Tokenizer::Tokenize(std::string_view s) const {
  std::string buffer;
  std::vector<std::string_view> views;
  TokenViews(s, &buffer, &views);
  if (!unique_) return std::vector<std::string>(views.begin(), views.end());
  std::unordered_set<std::string_view> seen;
  std::vector<std::string> out;
  out.reserve(views.size());
  for (std::string_view t : views) {
    if (seen.insert(t).second) out.emplace_back(t);
  }
  return out;
}

void WhitespaceTokenizer::TokenViews(std::string_view s, std::string*,
                                     std::vector<std::string_view>* out) const {
  out->clear();
  auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) out->push_back(s.substr(start, i - start));
  }
}

void AlphanumericTokenizer::TokenViews(
    std::string_view s, std::string*,
    std::vector<std::string_view>* out) const {
  out->clear();
  auto is_alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && !is_alnum(s[i])) ++i;
    size_t start = i;
    while (i < s.size() && is_alnum(s[i])) ++i;
    if (i > start) out->push_back(s.substr(start, i - start));
  }
}

QgramTokenizer::QgramTokenizer(int q, bool pad) : q_(q < 1 ? 1 : q), pad_(pad) {}

void QgramTokenizer::TokenViews(std::string_view s, std::string* buffer,
                                std::vector<std::string_view>* out) const {
  out->clear();
  std::string_view padded = s;
  if (pad_) {
    buffer->assign(static_cast<size_t>(q_ - 1), '#');
    buffer->append(s);
    buffer->append(static_cast<size_t>(q_ - 1), '$');
    padded = *buffer;
  }
  const size_t q = static_cast<size_t>(q_);
  for (size_t i = 0; i + q <= padded.size(); ++i) {
    out->push_back(padded.substr(i, q));
  }
}

void DelimiterTokenizer::TokenViews(std::string_view s, std::string*,
                                    std::vector<std::string_view>* out) const {
  out->clear();
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim_) {
      std::string_view stripped = StripWhitespace(s.substr(start, i - start));
      if (!stripped.empty()) out->push_back(stripped);
      start = i + 1;
    }
  }
}

}  // namespace emx
