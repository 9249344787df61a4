#ifndef EMX_PREP_PREPARED_COLUMN_H_
#define EMX_PREP_PREPARED_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "src/core/result.h"
#include "src/table/table.h"
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
// Token ids come from the interner the column is built with (a
// PrepCache's, or a MatchService's), so spans from any two columns built
// with one interner are directly comparable. Each emitted token is a view
// of the interner's string for its id, with a pointer to the interner's
// signature for it; the column shares ownership of the interner, so views
// and pointers stay valid for the column's lifetime.
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

// Caches PreparedColumns keyed on (table version, column, PrepKey), all
// sharing ONE TokenInterner so id spans from different columns — left vs
// right table, or columns requested by different blockers/features —
// intersect directly. This is what collapses the per-(pair × feature)
// tokenization of the legacy path to one pass per (column, prep config):
// each record is prepped once no matter how many candidate pairs it
// appears in. Only whole columns are cached (Get); vectorize binds through
// GetRows, which reuses a cached whole column or preps just the rows its
// pairs touch into a column it never caches.
//
// A table's version names its contents (Table::version), so an entry is
// only ever read for the contents it was prepped from: an edited table, or
// a new table built where a freed one lived, has a version no entry holds
// and is prepped afresh. No caller clears the cache; a run drops the
// entries of every other version first (RetainTables), so entries for
// dead tables do not pile up across runs.
//
// Thread-safety: Get() and GetRows() are fully synchronized (builds are
// serialized under the cache mutex — concurrent blockers requesting
// columns simply take turns prepping). Returned shared_ptrs outlive the
// cache: each column shares ownership of the interner its tokens view.
class PrepCache {
 public:
  PrepCache() = default;
  PrepCache(const PrepCache&) = delete;
  PrepCache& operator=(const PrepCache&) = delete;

  // The prepared form of `table`'s column `attr` under (options,
  // tokenizer), built on first use. `tokenizer` may be null for text-only
  // prep. NotFound when the table has no such column.
  Result<std::shared_ptr<const PreparedColumn>> Get(
      const Table& table, const std::string& attr, const PrepOptions& options,
      const Tokenizer* tokenizer);

  // The prepared form of `table`'s column `attr` for a reader that reads
  // only `rows` (ascending, unique, each below table.num_rows()). When the
  // cache already holds the whole column under (options, tokenizer), that
  // is returned. Otherwise only `rows` are prepped, through this cache's
  // interner, into a column that is NEVER entered into the cache: a later
  // Get (a blocker's) can never receive a partial column. NotFound when the
  // table has no such column.
  Result<std::shared_ptr<const PreparedColumn>> GetRows(
      const Table& table, const std::string& attr,
      const std::vector<uint32_t>& rows, const PrepOptions& options,
      const Tokenizer* tokenizer);

  // Drops every entry whose table version is neither `left`'s nor
  // `right`'s, i.e. every entry a run over (left, right) cannot read.
  // Columns already returned stay valid. EmWorkflow::Run and
  // PipelineRunner::Run call it first.
  void RetainTables(const Table& left, const Table& right);

  // Snapshot of id -> token string for every token interned so far. The
  // views point at interner storage, which is append-only and
  // reference-stable, so they stay valid for the cache's lifetime. Used by
  // the similarity join to order tokens by (frequency, string) without
  // racing a concurrent build.
  std::vector<std::string_view> TokenStringsSnapshot() const;

  // Introspection for tests/benches.
  size_t entries() const;
  size_t interned_tokens() const;

 private:
  struct Key {
    uint64_t version;  // Table::version
    size_t column;     // column index in the table's schema
    std::string prep;  // PrepKey

    friend bool operator<(const Key& a, const Key& b) {
      return std::tie(a.version, a.column, a.prep) <
             std::tie(b.version, b.column, b.prep);
    }
  };
  static Result<Key> MakeKey(const Table& table, const std::string& attr,
                             const PrepOptions& options,
                             const Tokenizer* tokenizer);

  mutable std::mutex mu_;
  // Shared with every column built here, whose tokens view its strings.
  const std::shared_ptr<TokenInterner> interner_ =
      std::make_shared<TokenInterner>();
  std::map<Key, std::shared_ptr<const PreparedColumn>> cache_;
};

}  // namespace emx

#endif  // EMX_PREP_PREPARED_COLUMN_H_
