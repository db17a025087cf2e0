#include "rmt/table.hpp"

#include <algorithm>
#include <stdexcept>

namespace ht::rmt {

KeyMatch lpm_match(std::uint64_t value, unsigned prefix_len, unsigned field_bits) {
  KeyMatch k;
  k.prefix_len = prefix_len;
  k.mask = prefix_len == 0
               ? 0
               : (net::low_mask(field_bits) & ~net::low_mask(field_bits - prefix_len));
  k.value = value & k.mask;
  return k;
}

MatchActionTable::MatchActionTable(std::string name, std::vector<MatchSpec> key,
                                   std::size_t size_hint)
    : name_(std::move(name)), key_(std::move(key)), size_hint_(size_hint) {
  all_exact_ = std::all_of(key_.begin(), key_.end(),
                           [](const MatchSpec& s) { return s.kind == MatchKind::kExact; });
}

void MatchActionTable::add_entry(TableEntry entry) {
  if (entry.keys.size() != key_.size()) {
    throw std::invalid_argument("table " + name_ + ": entry key arity mismatch");
  }
  if (entries_.size() >= size_hint_) {
    throw std::length_error("table " + name_ + ": capacity exceeded (" +
                            std::to_string(size_hint_) + ")");
  }
  if (all_exact_ && !key_.empty()) {
    const std::string packed = pack_entry_key(entry);
    if (exact_index_.count(packed) != 0) {
      throw std::invalid_argument("table " + name_ + ": duplicate exact entry");
    }
    exact_index_.emplace(packed, entries_.size());
  }
  entries_.push_back(std::move(entry));
}

void MatchActionTable::set_default(std::string action_name, ActionFn action) {
  default_entry_ = TableEntry{{}, -1, std::move(action_name), std::move(action)};
}

std::string MatchActionTable::pack_exact_key(const Phv& phv) const {
  std::string out;
  out.reserve(key_.size() * 8);
  for (const MatchSpec& s : key_) {
    const std::uint64_t v = phv.get(s.field);
    for (int b = 0; b < 8; ++b) out.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
  }
  return out;
}

std::string MatchActionTable::pack_entry_key(const TableEntry& e) const {
  std::string out;
  out.reserve(key_.size() * 8);
  for (const KeyMatch& k : e.keys) {
    for (int b = 0; b < 8; ++b) out.push_back(static_cast<char>((k.value >> (8 * b)) & 0xff));
  }
  return out;
}

bool MatchActionTable::entry_matches(const TableEntry& e, const Phv& phv) const {
  for (std::size_t i = 0; i < key_.size(); ++i) {
    const std::uint64_t v = phv.get(key_[i].field);
    const KeyMatch& k = e.keys[i];
    switch (key_[i].kind) {
      case MatchKind::kExact:
        if (v != k.value) return false;
        break;
      case MatchKind::kTernary:
        if ((v & k.mask) != (k.value & k.mask)) return false;
        break;
      case MatchKind::kRange:
        if (v < k.value || v > k.high) return false;
        break;
      case MatchKind::kLpm:
        if ((v & k.mask) != k.value) return false;
        break;
    }
  }
  return true;
}

const TableEntry* MatchActionTable::lookup(const Phv& phv) const {
  if (all_exact_ && !key_.empty()) {
    const auto it = exact_index_.find(pack_exact_key(phv));
    if (it == exact_index_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    return &entries_[it->second];
  }
  const auto total_prefix = [this](const TableEntry& e) {
    unsigned sum = 0;
    for (std::size_t i = 0; i < key_.size(); ++i) {
      if (key_[i].kind == MatchKind::kLpm) sum += e.keys[i].prefix_len;
    }
    return sum;
  };
  const TableEntry* best = nullptr;
  for (const TableEntry& e : entries_) {
    if (!entry_matches(e, phv)) continue;
    if (best == nullptr || e.priority > best->priority ||
        (e.priority == best->priority && total_prefix(e) > total_prefix(*best))) {
      best = &e;
    }
  }
  best != nullptr ? ++hits_ : ++misses_;
  return best;
}

bool MatchActionTable::apply(ActionContext& ctx) {
  const TableEntry* e = lookup(ctx.phv);
  if (e != nullptr) {
    if (e->action) e->action(ctx);
    return true;
  }
  if (default_entry_ && default_entry_->action) default_entry_->action(ctx);
  return false;
}

}  // namespace ht::rmt
