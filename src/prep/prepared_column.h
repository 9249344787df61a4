#ifndef EMX_PREP_PREPARED_COLUMN_H_
#define EMX_PREP_PREPARED_COLUMN_H_

#include <cstddef>
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
// `token_rows` makes a tokenized column also keep each row's tokens in
// emission order, with their ids and interner-owned TokenSignatures
// (PreparedColumn::token_row), which only Monge-Elkan's kernel reads;
// feature columns of word tokens set it (PrepForFeature), q-gram and
// blocker columns do not pay for it.
struct PrepOptions {
  bool lowercase = false;
  bool strip_punctuation = false;
  bool token_rows = false;
};

// The identity of a prep: two (options, tokenizer) pairs with equal keys
// prep any column identically. `tokenizer` may be null (text-only prep);
// its name() and unique() flag identify it. PrepCache keys its entries on
// this, and MatchService its resident prep families.
std::string PrepKey(const PrepOptions& options, const Tokenizer* tokenizer);

// One column of one table, prepped ONCE (every row, or only the rows a
// reader will read — see the row-list constructor). What a row keeps
// depends on the column's kind, and only what readers read is stored:
//   - untokenized (no tokenizer): the normalized string, text();
//   - tokenized: a SORTED span of token ids in a flat arena for the
//     merge-based set kernels and the blockers, ids();
//   - tokenized with token_rows: also the tokens exactly as the tokenizer
//     emitted them (first-occurrence order — the order the legacy per-pair
//     path saw, so Monge-Elkan sums in the same order), token_row().
// Token ids come from the owning PrepCache's interner, so spans from any
// two columns of the same cache are directly comparable. Each emitted
// token is a view of the interner's string for its id, with a pointer to
// the interner's signature for it; the column shares ownership of the
// interner, so views and pointers stay valid for the column's lifetime.
// A query column (PrepQuery) is the exception: it holds one row prepped
// read-only, and owns its views' bytes and its signatures itself.
//
// Safe to read from any number of threads while nothing appends to it.
class PreparedColumn {
 public:
  // An empty untokenized column holding no interner, for PrepQuery.
  PreparedColumn();

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
  // text() and token_row() returned, so no reader may run concurrently.
  void Append(const Value& value, const PrepOptions& options,
              const Tokenizer* tokenizer, TokenInterner* interner);

  // Replaces every row with the one row `value`, prepped as Append preps
  // it but read-only against `interner`, which may not change meanwhile
  // (TokenInterner's const members only, so concurrent PrepQuery calls on
  // distinct columns are safe):
  //   - a token the interner knows gets its id (Find); an unseen one gets
  //     a local id at or above interner.size(), the same for the same
  //     string within the row and distinct across strings, so it equals
  //     no id of any column prepped through `interner`;
  //   - token_row() views point into this column's own copy of the row's
  //     text, and signatures into its own array (MakeTokenSignature).
  // So the column holds no interner and no pointer into one. Storage is
  // reused: a column re-prepped for rows of similar size allocates
  // nothing. Moving the column may invalidate its token views until the
  // next PrepQuery.
  void PrepQuery(const Value& value, const PrepOptions& options,
                 const Tokenizer* tokenizer, const TokenInterner& interner);

  size_t rows() const { return null_.size(); }
  bool is_null(size_t row) const { return null_[row] != 0; }

  // The normalized string of a row of an untokenized column ("" for null
  // rows). A tokenized column keeps no text and returns "" for every row.
  std::string_view text(size_t row) const {
    return tokenized_ ? std::string_view() : std::string_view(text_[row]);
  }

  // Sorted token-id span of a row; empty for every row of an untokenized
  // column.
  IdSpan ids(size_t row) const {
    if (!tokenized_) return {};
    return {id_arena_.data() + offsets_[row],
            offsets_[row + 1] - offsets_[row]};
  }

  // A row's tokens in tokenizer-emission order, as views of the interner's
  // strings, with their ids and signatures (parallel arrays, contiguous:
  // Monge-Elkan's kernel reads them directly). Only a tokenized column
  // prepped with token_rows keeps them; every other column returns an
  // empty TokenRow (size 0, null pointers) for every row.
  TokenRow token_row(size_t row) const {
    if (!token_rows_) return {};
    const uint32_t first = offsets_[row];
    return {token_store_.data() + first, emit_ids_.data() + first,
            signature_store_.data() + first, offsets_[row + 1] - first};
  }

  bool tokenized() const { return tokenized_; }

 private:
  // An empty column of this kind, with room for `reserve_rows` rows.
  PreparedColumn(size_t reserve_rows, const PrepOptions& options,
                 const Tokenizer* tokenizer,
                 std::shared_ptr<TokenInterner> interner);

  // The one row-prep body of Append and PrepQuery: normalizes `value` into
  // *text, tokenizes it (q-gram padding in *buffer), resolves each token
  // through `tokens` (its id, and with token_rows its view and signature),
  // drops repeated ids for a unique tokenizer and sorts the row's ids.
  template <typename Tokens>
  void AppendRow(const Value& value, const PrepOptions& options,
                 const Tokenizer* tokenizer, std::string* text,
                 std::string* buffer, Tokens& tokens);

  bool tokenized_;
  bool token_rows_;  // tokenized_ and prepped with token_rows
  std::shared_ptr<const TokenInterner> interner_;  // owns the token strings
  std::vector<uint8_t> null_;
  // Untokenized columns only, except that a query column keeps its row's
  // text here whatever its kind: its token views point into it.
  std::vector<std::string> text_;
  // Tokenized columns only: row r owns [offsets_[r], offsets_[r + 1]) of
  // id_arena_, and with token_rows of the three emission-order arrays too.
  std::vector<uint32_t> id_arena_;  // each row's run sorted
  std::vector<uint32_t> offsets_;   // rows+1
  std::vector<std::string_view> token_store_;
  std::vector<uint32_t> emit_ids_;
  std::vector<const TokenSignature*> signature_store_;
  // A query column only: its row's q-gram padding, which its token views
  // may point into, and the signatures signature_store_ points at.
  std::string query_buffer_;
  std::vector<TokenSignature> query_signatures_;
};

namespace internal_prep {

// Sorts ids[0, n) ascending with repeats kept, exactly as std::sort does:
// insertion sort for short runs, otherwise an LSD radix sort on 8-bit
// digits with only as many passes as the largest id needs.
// Exposed for tests.
void SortIds(uint32_t* ids, size_t n);

}  // namespace internal_prep

// Caches PreparedColumns keyed on (column identity, PrepKey), all sharing
// ONE TokenInterner so id spans from different columns — left vs right
// table, or columns requested by different blockers/features — intersect
// directly. This is what collapses the per-(pair × feature) tokenization
// of the legacy path to one pass per (column, prep config): each record is
// prepped once no matter how many candidate pairs it appears in. Only
// whole columns are cached (Get); vectorize binds through GetRows, which
// reuses a cached whole column or preps just the rows its pairs touch into
// a column it never caches.
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
  // first use. `tokenizer` may be null for text-only prep.
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
  // it into the cache. For a column whose storage address may be reused
  // by a later, different column, such as a served corpus that grows by
  // Insert: caching it under an address key would let a recycled address
  // alias a dead entry, so it is prepped fresh while still interning into
  // the shared id universe (spans remain directly comparable with every
  // cached column). A served query record is not prepped here: it goes
  // through PreparedColumn::PrepQuery against interner(), and interns
  // nothing.
  PreparedColumn PrepUncached(const std::vector<Value>& column,
                              const PrepOptions& options,
                              const Tokenizer* tokenizer);

  // PreparedColumn::Append through this cache's interner, for a column
  // built by PrepUncached with the same options and tokenizer.
  void AppendUncached(PreparedColumn* column, const Value& value,
                      const PrepOptions& options, const Tokenizer* tokenizer);

  // The cache's interner, for read-only use without the cache mutex. The
  // caller must ensure nothing interns through this cache while it reads:
  // MatchService reads it under its shared lock, and interns (Insert)
  // only under its exclusive one.
  const TokenInterner& interner() const { return *interner_; }

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
    std::string prep;  // PrepKey

    friend bool operator<(const Key& a, const Key& b) {
      if (a.column != b.column) return a.column < b.column;
      if (a.rows != b.rows) return a.rows < b.rows;
      return a.prep < b.prep;
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
