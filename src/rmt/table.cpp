#include "rmt/table.hpp"

#include <stdexcept>

namespace ht::rmt {

MatchActionTable::MatchActionTable(std::string name, std::optional<net::FieldId> key,
                                   std::size_t size_hint)
    : name_(std::move(name)), key_(key), size_hint_(size_hint) {}

void MatchActionTable::add_entry(std::uint64_t value, ActionFn action) {
  if (!key_) throw std::logic_error("table " + name_ + ": keyless table takes no entries");
  if (entries_.size() >= size_hint_) {
    throw std::length_error("table " + name_ + ": capacity exceeded (" +
                            std::to_string(size_hint_) + ")");
  }
  if (!entries_.emplace(value, std::move(action)).second) {
    throw std::invalid_argument("table " + name_ + ": duplicate exact entry");
  }
}

void MatchActionTable::set_default(ActionFn action) { default_action_ = std::move(action); }

const ActionFn* MatchActionTable::lookup(const Phv& phv) const {
  if (key_) {
    const auto it = entries_.find(phv.get(*key_));
    if (it != entries_.end()) {
      ++hits_;
      return &it->second;
    }
  }
  ++misses_;
  return nullptr;
}

bool MatchActionTable::apply(ActionContext& ctx) {
  const ActionFn* action = lookup(ctx.phv);
  if (action != nullptr) {
    if (*action) (*action)(ctx);
    return true;
  }
  if (default_action_) default_action_(ctx);
  return false;
}

}  // namespace ht::rmt
