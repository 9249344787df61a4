#ifndef EMX_TEXT_TOKEN_INTERNER_H_
#define EMX_TEXT_TOKEN_INTERNER_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace emx {

// A non-owning view over a run of token ids inside a flat arena — the unit
// the allocation-free set-similarity kernels operate on. Spans produced by
// PreparedColumn are sorted ascending; they contain duplicates only when
// the producing tokenizer had unique() unset (set kernels deduplicate on
// the fly, so either way scores match the legacy string path exactly).
struct IdSpan {
  const uint32_t* data = nullptr;
  uint32_t size = 0;

  const uint32_t* begin() const { return data; }
  const uint32_t* end() const { return data + size; }
  bool empty() const { return size == 0; }
};

// What Monge-Elkan's pruned token max reads of a token instead of its
// string: enough to bound the token's Jaro-Winkler score against any other
// token (JaroWinklerUpperBound, set_similarity.h). Byte b counts in bucket
// b & 63, which keeps upper- and lowercase letters apart.
struct TokenSignature {
  uint8_t histogram[64];  // bytes per bucket, saturating at 255
  uint64_t mask;          // bit k set iff histogram[k] > 0
  uint32_t length;        // bytes
  uint32_t prefix;        // first min(4, length) bytes, little-endian,
                          // zero-padded
};

TokenSignature MakeTokenSignature(std::string_view token);

// One row's tokens as Monge-Elkan's kernel reads them: parallel arrays in
// tokenizer-emission order (ids[k] and signatures[k] belong to tokens[k]).
struct TokenRow {
  const std::string_view* tokens = nullptr;
  const uint32_t* ids = nullptr;
  const TokenSignature* const* signatures = nullptr;
  size_t size = 0;
};

// Interns token strings into dense uint32_t ids (0, 1, 2, ... in first-seen
// order). Two tokens are equal iff their ids are equal, so set-similarity
// kernels compare 4-byte ids instead of hashing strings.
//
// Every downstream consumer is invariant to the id PERMUTATION (scores
// depend only on span sizes and intersection cardinalities; the similarity
// join orders tokens by (frequency, token string), not by id), so the same
// interner may be shared by caches filled in any order without affecting
// results. Interned strings are stored in a deque: references returned by
// TokenString() stay valid across later Intern() calls, so views of them
// can stand in for the tokens. Lookup is an open-addressing table of
// (hash, id) slots over that deque: no node per token, and growing the
// table moves 8-byte slots, never strings.
//
// Not internally synchronized. The const members (Find, TokenString, size)
// may run concurrently with each other while nothing interns; Intern and
// Signature mutate and need exclusive access. PrepCache serializes its
// interning under its own mutex; MatchService's lookups call only the
// const members, under the service's shared lock.
class TokenInterner {
 public:
  TokenInterner() = default;
  TokenInterner(const TokenInterner&) = delete;
  TokenInterner& operator=(const TokenInterner&) = delete;

  // Returns the id of `token`, assigning the next dense id if unseen.
  uint32_t Intern(std::string_view token);

  // Id of `token` if already interned.
  std::optional<uint32_t> Find(std::string_view token) const;

  // The string for an id; reference stable until Clear.
  const std::string& TokenString(uint32_t id) const { return strings_[id]; }

  // Number of distinct tokens interned so far (== smallest unassigned id).
  size_t size() const { return strings_.size(); }

  // Forgets every token, so ids restart at 0 and every string reference
  // and signature handed out dangles; keeps the table's storage.
  void Clear();

  // The signature of an interned id, computed on its first request and
  // kept at a stable address until Clear. Readers hold the
  // pointer, never an index into the interner: another thread may intern
  // (under PrepCache's mutex) while they score. Mutates on an id's first
  // request, so a read-only caller computes MakeTokenSignature itself.
  const TokenSignature* Signature(uint32_t id);

 private:
  // One slot of the table: the token's hash and its id + 1 (0 = empty).
  struct Slot {
    uint32_t hash = 0;
    uint32_t id_plus_one = 0;
  };

  static uint32_t Hash(std::string_view token);

  // The slot holding `token`, or the empty slot where it belongs. The
  // table is never more than half full, so the linear probe terminates.
  size_t Probe(std::string_view token, uint32_t hash) const;

  // Doubles the table (16 slots at first) and re-places every slot by its
  // stored hash.
  void Grow();

  std::deque<std::string> strings_;  // id -> token; deque keeps refs stable
  std::vector<Slot> slots_;          // power-of-two size, at most half full
  // Signatures of the ids asked for so far (deque: stable addresses), and
  // id -> index + 1 into them (0 = not computed; ids past the end too).
  std::deque<TokenSignature> signatures_;
  std::vector<uint32_t> signature_of_;
};

}  // namespace emx

#endif  // EMX_TEXT_TOKEN_INTERNER_H_
