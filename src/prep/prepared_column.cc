#include "src/prep/prepared_column.h"

#include <algorithm>

#include "src/core/strings.h"
#include "src/text/set_similarity.h"

namespace emx {

PreparedColumn::PreparedColumn(const std::vector<Value>& column,
                               const PrepOptions& options,
                               const Tokenizer* tokenizer,
                               TokenInterner* interner)
    : tokenized_(tokenizer != nullptr), interner_uid_(interner->uid()) {
  size_t n = column.size();
  null_.reserve(n);
  text_.reserve(n);
  token_offsets_.reserve(n + 1);
  id_offsets_.reserve(n + 1);
  token_offsets_.push_back(0);
  id_offsets_.push_back(0);
  for (const Value& v : column) Append(v, options, tokenizer, interner);
}

void PreparedColumn::Append(const Value& value, const PrepOptions& options,
                            const Tokenizer* tokenizer,
                            TokenInterner* interner) {
  null_.push_back(value.is_null() ? 1 : 0);
  text_.emplace_back();
  if (!value.is_null()) {
    std::string s = value.AsString();
    if (options.lowercase) s = AsciiToLower(s);
    if (options.strip_punctuation) s = StripPunctuation(s);
    text_.back() = std::move(s);
    if (tokenizer != nullptr) {
      std::vector<std::string> tokens = tokenizer->Tokenize(text_.back());
      size_t first = id_arena_.size();
      id_arena_.resize(first + tokens.size());
      for (size_t k = 0; k < tokens.size(); ++k) {
        id_arena_[first + k] = interner->Intern(tokens[k]);
      }
      emit_ids_.insert(emit_ids_.end(), id_arena_.begin() + first,
                       id_arena_.end());
      // Sorted for the merge kernels; duplicates (non-unique tokenizers
      // only) are preserved so the blockers' per-occurrence probe counts
      // match the legacy string index exactly.
      std::sort(id_arena_.begin() + first, id_arena_.end());
      for (std::string& t : tokens) token_store_.push_back(std::move(t));
    }
  }
  token_offsets_.push_back(static_cast<uint32_t>(token_store_.size()));
  id_offsets_.push_back(static_cast<uint32_t>(id_arena_.size()));
}

std::shared_ptr<const PreparedColumn> PrepCache::Get(
    const std::vector<Value>& column, const PrepOptions& options,
    const Tokenizer* tokenizer) {
  Key key{column.data(), column.size(), options,
          tokenizer == nullptr
              ? std::string()
              : tokenizer->name() + (tokenizer->unique() ? "/u" : "/b")};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  auto prepared = std::make_shared<const PreparedColumn>(column, options,
                                                         tokenizer, &interner_);
  cache_.emplace(std::move(key), prepared);
  return prepared;
}

PreparedColumn PrepCache::PrepUncached(const std::vector<Value>& column,
                                       const PrepOptions& options,
                                       const Tokenizer* tokenizer) {
  // Builds under mu_ because the interner is not internally synchronized:
  // the cache mutex is the one lock every interning path takes.
  std::lock_guard<std::mutex> lock(mu_);
  return PreparedColumn(column, options, tokenizer, &interner_);
}

void PrepCache::AppendUncached(PreparedColumn* column, const Value& value,
                               const PrepOptions& options,
                               const Tokenizer* tokenizer) {
  std::lock_guard<std::mutex> lock(mu_);
  column->Append(value, options, tokenizer, &interner_);
}

std::vector<std::string_view> PrepCache::TokenStringsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string_view> out;
  out.reserve(interner_.size());
  for (size_t id = 0; id < interner_.size(); ++id) {
    out.push_back(interner_.TokenString(static_cast<uint32_t>(id)));
  }
  return out;
}

void PrepCache::Clear() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.clear();
  }
  // Token ids handed out by our interner may sit in the per-thread
  // Monge-Elkan memo; dropping the prepared columns invalidates the memo's
  // usefulness, so flush it rather than letting stale entries pin memory.
  ClearMongeElkanMemo();
}

size_t PrepCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

size_t PrepCache::interned_tokens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return interner_.size();
}

}  // namespace emx
