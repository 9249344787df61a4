#include "src/prep/prepared_column.h"

#include <algorithm>

#include "src/core/strings.h"

namespace emx {

namespace {

// Per-thread scratch of PreparedColumn::Append, reused across rows: the
// tokenizer's views and padding buffer, and an id-indexed stamp array
// that drops a row's repeated ids without allocating (stamp[id] ==
// row_stamp iff the row already emitted id).
struct AppendScratch {
  std::string buffer;
  std::vector<std::string_view> views;
  std::vector<uint32_t> stamp;
  uint32_t row_stamp = 0;
};

}  // namespace

PreparedColumn::PreparedColumn(const std::vector<Value>& column,
                               const PrepOptions& options,
                               const Tokenizer* tokenizer,
                               std::shared_ptr<TokenInterner> interner)
    : tokenized_(tokenizer != nullptr), interner_(interner) {
  size_t n = column.size();
  null_.reserve(n);
  text_.reserve(n);
  offsets_.reserve(n + 1);
  offsets_.push_back(0);
  for (const Value& v : column) Append(v, options, tokenizer, interner.get());
}

PreparedColumn::PreparedColumn(const std::vector<Value>& column,
                               const std::vector<uint32_t>& rows,
                               const PrepOptions& options,
                               const Tokenizer* tokenizer,
                               std::shared_ptr<TokenInterner> interner)
    : tokenized_(tokenizer != nullptr), interner_(interner) {
  size_t n = column.size();
  null_.reserve(n);
  text_.reserve(n);
  offsets_.reserve(n + 1);
  offsets_.push_back(0);
  const Value null = Value::Null();
  auto next = rows.begin();
  for (size_t r = 0; r < n; ++r) {
    const bool listed = next != rows.end() && *next == r;
    if (listed) ++next;
    Append(listed ? column[r] : null, options, tokenizer, interner.get());
  }
}

void PreparedColumn::Append(const Value& value, const PrepOptions& options,
                            const Tokenizer* tokenizer,
                            TokenInterner* interner) {
  null_.push_back(value.is_null() ? 1 : 0);
  text_.emplace_back();
  if (!value.is_null()) {
    std::string& text = text_.back();
    text = value.AsString();
    if (options.lowercase) AsciiToLowerInPlace(&text);
    if (options.strip_punctuation) StripPunctuationInPlace(&text);
    if (tokenizer != nullptr) {
      thread_local AppendScratch scratch;
      tokenizer->TokenViews(text, &scratch.buffer, &scratch.views);
      const bool unique = tokenizer->unique();
      if (unique && ++scratch.row_stamp == 0) {  // wrapped: forget stamps
        std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0);
        scratch.row_stamp = 1;
      }
      const size_t first = emit_ids_.size();
      // Interning every view in emission order and dropping repeats by id
      // assigns the ids that interning the string-deduplicated tokens did.
      for (std::string_view token : scratch.views) {
        const uint32_t id = interner->Intern(token);
        if (unique) {
          if (id >= scratch.stamp.size()) scratch.stamp.resize(id + 1);
          if (scratch.stamp[id] == scratch.row_stamp) continue;
          scratch.stamp[id] = scratch.row_stamp;
        }
        emit_ids_.push_back(id);
        token_store_.push_back(interner->TokenString(id));
        if (options.token_signatures) {
          signature_store_.push_back(interner->Signature(id));
        }
      }
      // Sorted for the merge kernels; duplicates (non-unique tokenizers
      // only) are preserved so the blockers' per-occurrence probe counts
      // match the legacy string index exactly.
      id_arena_.insert(id_arena_.end(), emit_ids_.begin() + first,
                       emit_ids_.end());
      std::sort(id_arena_.begin() + first, id_arena_.end());
    }
  }
  offsets_.push_back(static_cast<uint32_t>(emit_ids_.size()));
}

PrepCache::Key PrepCache::MakeKey(const std::vector<Value>& column,
                                  const PrepOptions& options,
                                  const Tokenizer* tokenizer) {
  return {column.data(), column.size(), options,
          tokenizer == nullptr
              ? std::string()
              : tokenizer->name() + (tokenizer->unique() ? "/u" : "/b")};
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
