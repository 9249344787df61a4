#include "src/text/token_interner.h"

#include <algorithm>
#include <functional>

namespace emx {

TokenSignature MakeTokenSignature(std::string_view token) {
  TokenSignature sig{};
  for (char c : token) {
    uint8_t& count = sig.histogram[static_cast<uint8_t>(c) & 63];
    if (count < 255) ++count;
    sig.mask |= uint64_t{1} << (static_cast<uint8_t>(c) & 63);
  }
  sig.length = static_cast<uint32_t>(token.size());
  const size_t n = std::min<size_t>(token.size(), 4);
  for (size_t i = 0; i < n; ++i) {
    sig.prefix |= static_cast<uint32_t>(static_cast<uint8_t>(token[i]))
                  << (8 * i);
  }
  return sig;
}

uint32_t TokenInterner::Hash(std::string_view token) {
  const uint64_t h = std::hash<std::string_view>{}(token);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

size_t TokenInterner::Probe(std::string_view token, uint32_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id_plus_one == 0) return i;
    if (slot.hash == hash && strings_[slot.id_plus_one - 1] == token) return i;
  }
}

void TokenInterner::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id_plus_one == 0) continue;
    size_t i = slot.hash & mask;
    while (slots_[i].id_plus_one != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

uint32_t TokenInterner::Intern(std::string_view token) {
  if (2 * (strings_.size() + 1) > slots_.size()) Grow();
  const uint32_t hash = Hash(token);
  Slot& slot = slots_[Probe(token, hash)];
  if (slot.id_plus_one == 0) {
    strings_.emplace_back(token);
    slot = {hash, static_cast<uint32_t>(strings_.size())};
  }
  return slot.id_plus_one - 1;
}

void TokenInterner::Clear() {
  if (strings_.empty()) return;
  strings_.clear();
  std::fill(slots_.begin(), slots_.end(), Slot{});
  signatures_.clear();
  signature_of_.clear();
}

std::optional<uint32_t> TokenInterner::Find(std::string_view token) const {
  if (slots_.empty()) return std::nullopt;
  const Slot& slot = slots_[Probe(token, Hash(token))];
  if (slot.id_plus_one == 0) return std::nullopt;
  return slot.id_plus_one - 1;
}

const TokenSignature* TokenInterner::Signature(uint32_t id) {
  if (id >= signature_of_.size()) signature_of_.resize(id + 1, 0);
  uint32_t& slot = signature_of_[id];
  if (slot == 0) {
    signatures_.push_back(MakeTokenSignature(strings_[id]));
    slot = static_cast<uint32_t>(signatures_.size());
  }
  return &signatures_[slot - 1];
}

}  // namespace emx
