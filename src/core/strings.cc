#include "src/core/strings.h"

#include <cctype>
#include <cstdarg>
#include <cstdint>
#include <cstdio>

namespace emx {

std::string AsciiToLower(std::string_view s) {
  std::string out(s);
  AsciiToLowerInPlace(&out);
  return out;
}

void AsciiToLowerInPlace(std::string* s) {
  for (char& c : *s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
}

std::string AsciiToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string StripPunctuation(std::string_view s) {
  std::string out(s);
  StripPunctuationInPlace(&out);
  return out;
}

void StripPunctuationInPlace(std::string* s) {
  for (char& c : *s) {
    bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == ' ';
    if (!keep) c = ' ';
  }
}

bool IsAllDigits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

bool ParseByteSize(std::string_view s, size_t* out) {
  s = StripWhitespace(s);
  if (s.empty()) return false;
  size_t digits = 0;
  while (digits < s.size() && s[digits] >= '0' && s[digits] <= '9') ++digits;
  if (digits == 0) return false;
  uint64_t value = 0;
  for (size_t i = 0; i < digits; ++i) {
    uint64_t d = static_cast<uint64_t>(s[i] - '0');
    if (value > (UINT64_MAX - d) / 10) return false;
    value = value * 10 + d;
  }
  std::string_view suffix = s.substr(digits);
  uint64_t multiplier = 1;
  if (!suffix.empty()) {
    char unit = suffix[0];
    if (unit >= 'A' && unit <= 'Z') unit = static_cast<char>(unit - 'A' + 'a');
    switch (unit) {
      case 'k': multiplier = 1ull << 10; break;
      case 'm': multiplier = 1ull << 20; break;
      case 'g': multiplier = 1ull << 30; break;
      case 't': multiplier = 1ull << 40; break;
      case 'b':  // bare bytes suffix, "512b"
        if (suffix.size() != 1) return false;
        *out = static_cast<size_t>(value);
        return true;
      default: return false;
    }
    // Optional trailing 'b'/'B' ("64MB"); anything else is malformed.
    if (suffix.size() == 2) {
      if (suffix[1] != 'b' && suffix[1] != 'B') return false;
    } else if (suffix.size() > 2) {
      return false;
    }
  }
  if (multiplier != 1 && value > UINT64_MAX / multiplier) return false;
  *out = static_cast<size_t>(value * multiplier);
  return true;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace emx
