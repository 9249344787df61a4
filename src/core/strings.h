#ifndef EMX_CORE_STRINGS_H_
#define EMX_CORE_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace emx {

// ASCII-only string helpers used throughout the library. Entity-matching
// normalization in the paper's pipeline (lowercasing, punctuation stripping)
// operates on ASCII award titles; non-ASCII bytes pass through unchanged.

// Lowercases ASCII letters.
std::string AsciiToLower(std::string_view s);
void AsciiToLowerInPlace(std::string* s);

// Uppercases ASCII letters.
std::string AsciiToUpper(std::string_view s);

// Removes leading and trailing whitespace.
std::string_view StripWhitespace(std::string_view s);

// Splits on a single character delimiter. Keeps empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

// Splits on runs of whitespace. Drops empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Replaces every character not in [A-Za-z0-9 ] with a space. This is the
// "remove special characters" normalization of Section 7 of the paper.
std::string StripPunctuation(std::string_view s);
void StripPunctuationInPlace(std::string* s);

// True if `s` consists only of ASCII digits (and is non-empty).
bool IsAllDigits(std::string_view s);

// Parses a human byte size: a non-negative integer with an optional
// k/m/g/t suffix (case-insensitive, optional trailing 'b'), e.g. "64M",
// "512kb", "2g", "1048576". Returns false on malformed input or overflow.
// Used by the --block-mem-budget flag and the partitioned blocking engine.
bool ParseByteSize(std::string_view s, size_t* out);

// True if `prefix`/`suffix` bounds `s`.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace emx

#endif  // EMX_CORE_STRINGS_H_
