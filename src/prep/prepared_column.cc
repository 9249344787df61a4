#include "src/prep/prepared_column.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "src/core/strings.h"

namespace emx {

namespace {

// Runs shorter than this are insertion-sorted: below it, the radix sort's
// fixed cost (256 counters per pass) outweighs what it saves per id.
constexpr size_t kInsertionSortBelow = 48;

// Per-thread scratch of the row-prep body, reused across rows: the
// tokenizer's views, and an id-indexed stamp array that drops a row's
// repeated ids without allocating (stamp[id] == row_stamp iff the row
// already emitted id). Append also normalizes into `text` and pads into
// `buffer`; a query column keeps both itself.
struct AppendScratch {
  std::string text;
  std::string buffer;
  std::vector<std::string_view> views;
  std::vector<uint32_t> stamp;
  uint32_t row_stamp = 0;
};

thread_local AppendScratch t_scratch;

// Append's tokens: interned, each viewed as and signed by the interner.
struct InternedTokens {
  TokenInterner* interner;

  void Begin(size_t /*max_tokens*/) {}
  uint32_t Id(std::string_view token) { return interner->Intern(token); }
  std::string_view View(std::string_view /*token*/, uint32_t id) const {
    return interner->TokenString(id);
  }
  const TokenSignature* Signature(std::string_view /*token*/, uint32_t id) {
    return interner->Signature(id);
  }
};

// PrepQuery's tokens: found in the interner, or else given a local id,
// base + the token's id in `unseen`, a per-row interner of the tokens the
// interner lacks (so a repeat gets its first occurrence's id); each
// viewed where the tokenizer emitted it (the query column's own text or
// padding) and signed into the column's own array (null without
// token_rows).
struct QueryTokens {
  const TokenInterner* interner;
  TokenInterner* unseen;
  std::vector<TokenSignature>* signatures;
  uint32_t base = 0;

  void Begin(size_t max_tokens) {
    base = static_cast<uint32_t>(interner->size());
    unseen->Clear();
    if (signatures == nullptr) return;
    signatures->clear();
    signatures->reserve(max_tokens);  // pointers into it stay valid
  }
  uint32_t Id(std::string_view token) {
    if (std::optional<uint32_t> id = interner->Find(token)) return *id;
    return base + unseen->Intern(token);
  }
  std::string_view View(std::string_view token, uint32_t /*id*/) const {
    return token;
  }
  const TokenSignature* Signature(std::string_view token, uint32_t /*id*/) {
    return &signatures->emplace_back(MakeTokenSignature(token));
  }
};

// A non-null `value` normalized under `options` into `out`.
void Normalize(const Value& value, const PrepOptions& options,
               std::string* out) {
  if (value.is_string()) {
    out->assign(value.AsStringView());
  } else {
    *out = value.AsString();
  }
  if (options.lowercase) AsciiToLowerInPlace(out);
  if (options.strip_punctuation) StripPunctuationInPlace(out);
}

}  // namespace

std::string PrepKey(const PrepOptions& options, const Tokenizer* tokenizer) {
  std::string key = options.lowercase ? "lc|" : "-|";
  key += options.strip_punctuation ? "sp|" : "-|";
  key += options.token_rows ? "rows|" : "-|";
  if (tokenizer != nullptr) {
    key += tokenizer->name();
    key += tokenizer->unique() ? "/u" : "/b";
  }
  return key;
}

namespace internal_prep {

void SortIds(uint32_t* ids, size_t n) {
  if (n < kInsertionSortBelow) {
    for (size_t i = 1; i < n; ++i) {
      const uint32_t id = ids[i];
      size_t j = i;
      for (; j > 0 && ids[j - 1] > id; --j) ids[j] = ids[j - 1];
      ids[j] = id;
    }
    return;
  }
  // LSD radix sort. Each pass is a stable counting sort on one byte, so
  // after the pass on byte k the run is ordered by its low k + 1 bytes.
  // A byte above the largest id's highest set bit is zero in every id,
  // and its pass would keep the order, so the passes stop below it.
  uint32_t any_bits = 0;
  for (size_t i = 0; i < n; ++i) any_bits |= ids[i];
  thread_local std::vector<uint32_t> spare;
  if (spare.size() < n) spare.resize(n);
  uint32_t* from = ids;
  uint32_t* to = spare.data();
  for (int shift = 0; shift < 32 && (any_bits >> shift) != 0; shift += 8) {
    size_t next[256] = {};  // counts, then each digit's next output slot
    for (size_t i = 0; i < n; ++i) ++next[(from[i] >> shift) & 0xFF];
    size_t sum = 0;
    for (size_t& slot : next) {
      const size_t count = slot;
      slot = sum;
      sum += count;
    }
    for (size_t i = 0; i < n; ++i) {
      to[next[(from[i] >> shift) & 0xFF]++] = from[i];
    }
    std::swap(from, to);
  }
  if (from != ids) std::memcpy(ids, from, n * sizeof(uint32_t));
}

}  // namespace internal_prep

PreparedColumn::PreparedColumn(size_t reserve_rows, const PrepOptions& options,
                               const Tokenizer* tokenizer,
                               std::shared_ptr<TokenInterner> interner)
    : tokenized_(tokenizer != nullptr),
      token_rows_(tokenizer != nullptr && options.token_rows),
      interner_(std::move(interner)) {
  null_.reserve(reserve_rows);
  if (tokenized_) {
    offsets_.reserve(reserve_rows + 1);
    offsets_.push_back(0);
  } else {
    text_.reserve(reserve_rows);
  }
}

PreparedColumn::PreparedColumn() : PreparedColumn(0, {}, nullptr, nullptr) {}

PreparedColumn::PreparedColumn(const std::vector<Value>& column,
                               const PrepOptions& options,
                               const Tokenizer* tokenizer,
                               std::shared_ptr<TokenInterner> interner)
    : PreparedColumn(column.size(), options, tokenizer, interner) {
  for (const Value& v : column) Append(v, options, tokenizer, interner.get());
}

PreparedColumn::PreparedColumn(const std::vector<Value>& column,
                               const std::vector<uint32_t>& rows,
                               const PrepOptions& options,
                               const Tokenizer* tokenizer,
                               std::shared_ptr<TokenInterner> interner)
    : PreparedColumn(column.size(), options, tokenizer, interner) {
  const Value null = Value::Null();
  auto next = rows.begin();
  for (size_t r = 0; r < column.size(); ++r) {
    const bool listed = next != rows.end() && *next == r;
    if (listed) ++next;
    Append(listed ? column[r] : null, options, tokenizer, interner.get());
  }
}

template <typename Tokens>
void PreparedColumn::AppendRow(const Value& value, const PrepOptions& options,
                               const Tokenizer* tokenizer, std::string* text,
                               std::string* buffer, Tokens& tokens) {
  null_.push_back(value.is_null() ? 1 : 0);
  if (value.is_null()) {
    text->clear();
  } else {
    Normalize(value, options, text);
  }
  if (tokenizer == nullptr) return;
  if (!value.is_null()) {
    AppendScratch& scratch = t_scratch;
    tokenizer->TokenViews(*text, buffer, &scratch.views);
    tokens.Begin(scratch.views.size());
    const bool unique = tokenizer->unique();
    if (unique && ++scratch.row_stamp == 0) {  // wrapped: forget stamps
      std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0);
      scratch.row_stamp = 1;
    }
    const size_t first = id_arena_.size();
    // Resolving every view in emission order and dropping repeats by id
    // assigns the ids that interning the string-deduplicated tokens did.
    for (std::string_view token : scratch.views) {
      const uint32_t id = tokens.Id(token);
      if (unique) {
        if (id >= scratch.stamp.size()) scratch.stamp.resize(id + 1);
        if (scratch.stamp[id] == scratch.row_stamp) continue;
        scratch.stamp[id] = scratch.row_stamp;
      }
      id_arena_.push_back(id);
      if (token_rows_) {
        emit_ids_.push_back(id);
        token_store_.push_back(tokens.View(token, id));
        signature_store_.push_back(tokens.Signature(token, id));
      }
    }
    // Sorted for the merge kernels; duplicates (non-unique tokenizers
    // only) are preserved so the blockers' per-occurrence probe counts
    // match the legacy string index exactly.
    internal_prep::SortIds(id_arena_.data() + first,
                           id_arena_.size() - first);
  }
  offsets_.push_back(static_cast<uint32_t>(id_arena_.size()));
}

void PreparedColumn::Append(const Value& value, const PrepOptions& options,
                            const Tokenizer* tokenizer,
                            TokenInterner* interner) {
  InternedTokens tokens{interner};
  std::string* text =
      tokenizer == nullptr ? &text_.emplace_back() : &t_scratch.text;
  AppendRow(value, options, tokenizer, text, &t_scratch.buffer, tokens);
}

void PreparedColumn::PrepQuery(const Value& value, const PrepOptions& options,
                               const Tokenizer* tokenizer,
                               const TokenInterner& interner) {
  tokenized_ = tokenizer != nullptr;
  token_rows_ = tokenized_ && options.token_rows;
  interner_.reset();
  null_.clear();
  text_.resize(1);
  id_arena_.clear();
  offsets_.assign(1, 0);
  token_store_.clear();
  emit_ids_.clear();
  signature_store_.clear();
  thread_local TokenInterner unseen;
  QueryTokens tokens{&interner, &unseen,
                     token_rows_ ? &query_signatures_ : nullptr};
  AppendRow(value, options, tokenizer, &text_[0], &query_buffer_, tokens);
}

Result<PrepCache::Key> PrepCache::MakeKey(const Table& table,
                                          const std::string& attr,
                                          const PrepOptions& options,
                                          const Tokenizer* tokenizer) {
  const int col = table.schema().IndexOf(attr);
  if (col < 0) return Status::NotFound("no column named " + attr);
  return Key{table.version(), static_cast<size_t>(col),
             PrepKey(options, tokenizer)};
}

Result<std::shared_ptr<const PreparedColumn>> PrepCache::Get(
    const Table& table, const std::string& attr, const PrepOptions& options,
    const Tokenizer* tokenizer) {
  EMX_ASSIGN_OR_RETURN(Key key, MakeKey(table, attr, options, tokenizer));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  auto prepared = std::make_shared<const PreparedColumn>(
      table.column(key.column), options, tokenizer, interner_);
  cache_.emplace(std::move(key), prepared);
  return prepared;
}

Result<std::shared_ptr<const PreparedColumn>> PrepCache::GetRows(
    const Table& table, const std::string& attr,
    const std::vector<uint32_t>& rows, const PrepOptions& options,
    const Tokenizer* tokenizer) {
  EMX_ASSIGN_OR_RETURN(const Key key,
                       MakeKey(table, attr, options, tokenizer));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  return std::make_shared<const PreparedColumn>(
      table.column(key.column), rows, options, tokenizer, interner_);
}

std::vector<std::string_view> PrepCache::TokenStringsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string_view> out;
  out.reserve(interner_->size());
  for (size_t id = 0; id < interner_->size(); ++id) {
    out.push_back(interner_->TokenString(static_cast<uint32_t>(id)));
  }
  return out;
}

size_t PrepCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

size_t PrepCache::interned_tokens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return interner_->size();
}

}  // namespace emx
