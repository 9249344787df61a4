#include "src/prep/prepared_column.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/core/strings.h"

namespace emx {

namespace {

// Runs shorter than this are insertion-sorted: below it, the radix sort's
// fixed cost (256 counters per pass) outweighs what it saves per id.
constexpr size_t kInsertionSortBelow = 48;

// Per-thread scratch of PreparedColumn::Append, reused across rows: a
// tokenized row's normalized text, the tokenizer's views and padding
// buffer, and an id-indexed stamp array that drops a row's repeated ids
// without allocating (stamp[id] == row_stamp iff the row already emitted
// id).
struct AppendScratch {
  std::string text;
  std::string buffer;
  std::vector<std::string_view> views;
  std::vector<uint32_t> stamp;
  uint32_t row_stamp = 0;
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

void PreparedColumn::Append(const Value& value, const PrepOptions& options,
                            const Tokenizer* tokenizer,
                            TokenInterner* interner) {
  null_.push_back(value.is_null() ? 1 : 0);
  if (tokenizer == nullptr) {
    std::string& text = text_.emplace_back();
    if (!value.is_null()) Normalize(value, options, &text);
    return;
  }
  if (!value.is_null()) {
    thread_local AppendScratch scratch;
    Normalize(value, options, &scratch.text);
    tokenizer->TokenViews(scratch.text, &scratch.buffer, &scratch.views);
    const bool unique = tokenizer->unique();
    if (unique && ++scratch.row_stamp == 0) {  // wrapped: forget stamps
      std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0);
      scratch.row_stamp = 1;
    }
    const size_t first = id_arena_.size();
    // Interning every view in emission order and dropping repeats by id
    // assigns the ids that interning the string-deduplicated tokens did.
    for (std::string_view token : scratch.views) {
      const uint32_t id = interner->Intern(token);
      if (unique) {
        if (id >= scratch.stamp.size()) scratch.stamp.resize(id + 1);
        if (scratch.stamp[id] == scratch.row_stamp) continue;
        scratch.stamp[id] = scratch.row_stamp;
      }
      id_arena_.push_back(id);
      if (token_rows_) {
        emit_ids_.push_back(id);
        token_store_.push_back(interner->TokenString(id));
        signature_store_.push_back(interner->Signature(id));
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

PrepCache::Key PrepCache::MakeKey(const std::vector<Value>& column,
                                  const PrepOptions& options,
                                  const Tokenizer* tokenizer) {
  return {column.data(), column.size(), PrepKey(options, tokenizer)};
}

std::shared_ptr<const PreparedColumn> PrepCache::Get(
    const std::vector<Value>& column, const PrepOptions& options,
    const Tokenizer* tokenizer) {
  Key key = MakeKey(column, options, tokenizer);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  auto prepared = std::make_shared<const PreparedColumn>(column, options,
                                                         tokenizer, interner_);
  cache_.emplace(std::move(key), prepared);
  return prepared;
}

std::shared_ptr<const PreparedColumn> PrepCache::GetRows(
    const std::vector<Value>& column, const std::vector<uint32_t>& rows,
    const PrepOptions& options, const Tokenizer* tokenizer) {
  const Key key = MakeKey(column, options, tokenizer);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  return std::make_shared<const PreparedColumn>(column, rows, options,
                                                tokenizer, interner_);
}

PreparedColumn PrepCache::PrepUncached(const std::vector<Value>& column,
                                       const PrepOptions& options,
                                       const Tokenizer* tokenizer) {
  // Builds under mu_ because the interner is not internally synchronized:
  // the cache mutex is the one lock every interning path takes.
  std::lock_guard<std::mutex> lock(mu_);
  return PreparedColumn(column, options, tokenizer, interner_);
}

void PrepCache::AppendUncached(PreparedColumn* column, const Value& value,
                               const PrepOptions& options,
                               const Tokenizer* tokenizer) {
  std::lock_guard<std::mutex> lock(mu_);
  column->Append(value, options, tokenizer, interner_.get());
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

void PrepCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
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
