#ifndef EMX_PREP_PREPARED_COLUMN_H_
#define EMX_PREP_PREPARED_COLUMN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/table/value.h"
#include "src/text/token_interner.h"
#include "src/text/tokenizer.h"

namespace emx {

// How a column is normalized (and optionally tokenized) before similarity
// scoring. Mirrors the two prep pipelines in the codebase: features
// lowercase only (feature.cc's Prep), blockers lowercase AND strip
// punctuation (OverlapBlockerOptions).
struct PrepOptions {
  bool lowercase = false;
  bool strip_punctuation = false;

  friend bool operator<(const PrepOptions& a, const PrepOptions& b) {
    if (a.lowercase != b.lowercase) return a.lowercase < b.lowercase;
    return a.strip_punctuation < b.strip_punctuation;
  }
};

// One column of one table, prepped ONCE (every row, or only the rows a
// reader will read — see the row-list constructor): per row the normalized
// string, the tokens exactly as the tokenizer emitted them
// (first-occurrence order — the order the legacy per-pair path saw, so
// order-sensitive scorers like Monge-Elkan sum in the same order), and a
// SORTED span of token ids in a flat arena for the merge-based set
// kernels. Token ids come from the owning PrepCache's interner, so spans
// from any two columns of the same cache are directly comparable. Each
// token is a view of the interner's string for its id; the column shares
// ownership of the interner, so the views stay valid for the column's
// lifetime.
//
// Safe to read from any number of threads while nothing appends to it.
class PreparedColumn {
 public:
  // Preps every row of `column`. `tokenizer` may be null for text-only
  // prep (string features need no tokens). `interner` is mutated (new
  // tokens interned) during construction and kept alive by the column.
  PreparedColumn(const std::vector<Value>& column, const PrepOptions& options,
                 const Tokenizer* tokenizer,
                 std::shared_ptr<TokenInterner> interner);

  // Preps only `rows` of `column` (ascending, unique, each below
  // column.size()). The column keeps column.size() rows, so a row index
  // means what it means in `column`; every unlisted row is an empty null
  // row that no reader may rely on. Listed rows are prepped exactly as the
  // constructor above preps them, and tokens are interned in listed-row
  // order.
  PreparedColumn(const std::vector<Value>& column,
                 const std::vector<uint32_t>& rows, const PrepOptions& options,
                 const Tokenizer* tokenizer,
                 std::shared_ptr<TokenInterner> interner);

  // Preps one more row, exactly as the constructor preps each row.
  // `options`, `tokenizer` (null or not) and `interner` must be the ones
  // the column was built with. Appending may move storage that ids(),
  // text() and tokens() returned, so no reader may run concurrently.
  void Append(const Value& value, const PrepOptions& options,
              const Tokenizer* tokenizer, TokenInterner* interner);

  size_t rows() const { return null_.size(); }
  bool is_null(size_t row) const { return null_[row] != 0; }

  // The normalized string of a row ("" for null rows).
  const std::string& text(size_t row) const { return text_[row]; }

  // Sorted token-id span of a row (empty unless built with a tokenizer).
  IdSpan ids(size_t row) const {
    return {id_arena_.data() + offsets_[row],
            offsets_[row + 1] - offsets_[row]};
  }

  // Tokens of a row in tokenizer-emission order, as views of the
  // interner's strings; `*count` receives the token count. Contiguous, so
  // callers can pass (ptr, count) straight to the Monge-Elkan span
  // overloads.
  const std::string_view* tokens(size_t row, size_t* count) const {
    *count = offsets_[row + 1] - offsets_[row];
    return token_store_.data() + offsets_[row];
  }

  // Token ids of a row in tokenizer-EMISSION order, parallel to tokens():
  // emission_ids(row)[k] is the id of tokens(row)[k]. Lets order-sensitive
  // scorers key per-token-pair memos by id while still summing in the
  // legacy order.
  const uint32_t* emission_ids(size_t row, size_t* count) const {
    *count = offsets_[row + 1] - offsets_[row];
    return emit_ids_.data() + offsets_[row];
  }

  // uid() of the interner the ids were assigned by; columns from the same
  // PrepCache share it. See TokenInterner::uid().
  uint64_t interner_uid() const { return interner_->uid(); }

  bool tokenized() const { return tokenized_; }

 private:
  bool tokenized_;
  std::shared_ptr<const TokenInterner> interner_;  // owns the token strings
  std::vector<uint8_t> null_;
  std::vector<std::string> text_;
  // The three token arrays are parallel: row r owns [offsets_[r],
  // offsets_[r + 1]) of each.
  std::vector<std::string_view> token_store_;  // emission order
  std::vector<uint32_t> emit_ids_;             // emission order
  std::vector<uint32_t> id_arena_;             // each row's run sorted
  std::vector<uint32_t> offsets_;              // rows+1
};

// Caches PreparedColumns keyed on (column identity, prep options,
// tokenizer), all sharing ONE TokenInterner so id spans from different
// columns — left vs right table, or columns requested by different
// blockers/features — intersect directly. This is what collapses the
// per-(pair × feature) tokenization of the legacy path to one pass per
// (column, prep config): each record is prepped once no matter how many
// candidate pairs it appears in. Only whole columns are cached (Get);
// vectorize binds through GetRows, which reuses a cached whole column or
// preps just the rows its pairs touch into a column it never caches.
//
// Thread-safety: Get() and GetRows() are fully synchronized (builds are
// serialized under the cache mutex — concurrent blockers requesting
// columns simply take turns prepping). Returned shared_ptrs stay valid
// across Clear().
//
// Invalidation contract: entries are keyed on the COLUMN'S STORAGE ADDRESS
// plus its row count, so a cache must not outlive the tables it prepped
// (EmWorkflow scopes its cache to itself and its tables; checkpoint/resume
// never persists the cache — prepped state is always rebuilt from live
// tables, see DESIGN.md §8).
class PrepCache {
 public:
  PrepCache() = default;
  PrepCache(const PrepCache&) = delete;
  PrepCache& operator=(const PrepCache&) = delete;

  // The prepared form of `column` under (options, tokenizer), built on
  // first use. `tokenizer` may be null for text-only prep; its name() and
  // unique() flag identify it in the cache key.
  std::shared_ptr<const PreparedColumn> Get(const std::vector<Value>& column,
                                            const PrepOptions& options,
                                            const Tokenizer* tokenizer);

  // The prepared form of `column` for a reader that reads only `rows`
  // (ascending, unique, each below column.size()). When the cache already
  // holds the whole column under (options, tokenizer), that is returned.
  // Otherwise only `rows` are prepped, through this cache's interner, into
  // a column that is NEVER entered into the cache: a later Get (a
  // blocker's) can never receive a partial column.
  std::shared_ptr<const PreparedColumn> GetRows(
      const std::vector<Value>& column, const std::vector<uint32_t>& rows,
      const PrepOptions& options, const Tokenizer* tokenizer);

  // Builds a PreparedColumn sharing THIS cache's interner without entering
  // it into the cache. For columns whose storage address may be reused by
  // a later, different column — a serve-path query record, a corpus that
  // grows by Insert: caching them under an address key would let a
  // recycled address alias a dead entry, so they are prepped fresh while
  // still interning into the shared id universe (spans remain directly
  // comparable with every cached column).
  PreparedColumn PrepUncached(const std::vector<Value>& column,
                              const PrepOptions& options,
                              const Tokenizer* tokenizer);

  // PreparedColumn::Append through this cache's interner, for a column
  // built by PrepUncached with the same options and tokenizer.
  void AppendUncached(PreparedColumn* column, const Value& value,
                      const PrepOptions& options, const Tokenizer* tokenizer);

  // Snapshot of id -> token string for every token interned so far. The
  // views point at interner storage, which is append-only and
  // reference-stable, so they stay valid for the cache's lifetime. Used by
  // the similarity join to order tokens by (frequency, string) without
  // racing a concurrent build.
  std::vector<std::string_view> TokenStringsSnapshot() const;

  // Drops all cache entries (outstanding shared_ptrs stay alive). The
  // interner and its id assignments are retained. Must not run concurrently
  // with a Get() consumer that is still pairing up spans.
  void Clear();

  // Introspection for tests/benches.
  size_t entries() const;
  size_t interned_tokens() const;

 private:
  struct Key {
    const void* column;  // column storage address
    size_t rows;
    PrepOptions options;
    std::string tokenizer_key;  // "" when untokenized

    friend bool operator<(const Key& a, const Key& b) {
      if (a.column != b.column) return a.column < b.column;
      if (a.rows != b.rows) return a.rows < b.rows;
      if (a.options < b.options || b.options < a.options)
        return a.options < b.options;
      return a.tokenizer_key < b.tokenizer_key;
    }
  };
  static Key MakeKey(const std::vector<Value>& column,
                     const PrepOptions& options, const Tokenizer* tokenizer);

  mutable std::mutex mu_;
  // Shared with every column built here, whose tokens view its strings.
  const std::shared_ptr<TokenInterner> interner_ =
      std::make_shared<TokenInterner>();
  std::map<Key, std::shared_ptr<const PreparedColumn>> cache_;
};

}  // namespace emx

#endif  // EMX_PREP_PREPARED_COLUMN_H_
