#include "analysis/symx/solver.hpp"

#include <algorithm>

namespace ht::analysis::symx {

// --- IntervalSet -------------------------------------------------------------

IntervalSet IntervalSet::range(std::uint64_t lo, std::uint64_t hi) {
  IntervalSet s;
  if (lo <= hi) s.intervals_.push_back({lo, hi});
  return s;
}

IntervalSet IntervalSet::from_cmp(htpr::Cmp cmp, std::uint64_t value, unsigned width) {
  const std::uint64_t dmax = domain_max(width);
  switch (cmp) {
    case htpr::Cmp::kEq:
      return value <= dmax ? singleton(value) : none();
    case htpr::Cmp::kNe:
      return value <= dmax ? singleton(value).complement(width) : full(width);
    case htpr::Cmp::kLt:
      return value == 0 ? none() : range(0, std::min(value - 1, dmax));
    case htpr::Cmp::kLe:
      return range(0, std::min(value, dmax));
    case htpr::Cmp::kGt:
      return value >= dmax ? none() : range(value + 1, dmax);
    case htpr::Cmp::kGe:
      return value > dmax ? none() : range(value, dmax);
  }
  return none();
}

IntervalSet IntervalSet::stepped(std::uint64_t start, std::uint64_t end, std::uint64_t step,
                                 std::size_t cap) {
  if (end < start) return none();
  if (step <= 1) return range(start, end);
  const std::uint64_t points = (end - start) / step + 1;
  if (points > cap) return range(start, end);  // over-approximation: holes are filled
  IntervalSet s;
  for (std::uint64_t k = 0; k < points; ++k) {
    const std::uint64_t v = start + k * step;
    s.intervals_.push_back({v, v});
  }
  return s;
}

void IntervalSet::insert(std::uint64_t lo, std::uint64_t hi) {
  // Starting at or after the last interval's start, [lo, hi] can only
  // merge with that interval: ascending builds (value supports) skip the
  // O(n) rebuild below.
  if (!intervals_.empty() && lo >= intervals_.back().first) {
    auto& last = intervals_.back();
    if (lo <= last.second || lo - last.second == 1) {
      last.second = std::max(last.second, hi);
    } else {
      intervals_.push_back({lo, hi});
    }
    return;
  }
  // Find the insertion window, merging every interval that overlaps or is
  // adjacent to [lo, hi].
  std::vector<Interval> out;
  out.reserve(intervals_.size() + 1);
  bool placed = false;
  for (const auto& [a, b] : intervals_) {
    const bool before = b < lo && lo - b > 1;   // strictly left, non-adjacent
    const bool after = hi < a && a - hi > 1;    // strictly right, non-adjacent
    if (before) {
      out.push_back({a, b});
    } else if (after) {
      if (!placed) {
        out.push_back({lo, hi});
        placed = true;
      }
      out.push_back({a, b});
    } else {
      lo = std::min(lo, a);
      hi = std::max(hi, b);
    }
  }
  if (!placed) out.push_back({lo, hi});
  intervals_ = std::move(out);
}

bool IntervalSet::contains(std::uint64_t v) const {
  for (const auto& [a, b] : intervals_) {
    if (v < a) return false;
    if (v <= b) return true;
  }
  return false;
}

std::uint64_t IntervalSet::count() const {
  std::uint64_t n = 0;
  for (const auto& [a, b] : intervals_) {
    const std::uint64_t span = b - a;
    if (span == ~std::uint64_t{0} || n + span + 1 < n) return ~std::uint64_t{0};
    n += span + 1;
  }
  return n;
}

std::uint64_t IntervalSet::value_at(std::uint64_t k) const {
  for (const auto& [a, b] : intervals_) {
    const std::uint64_t span = b - a;
    if (k <= span) return a + k;
    k -= span + 1;
  }
  return max();
}

void IntervalSet::union_with(const IntervalSet& other) {
  for (const auto& [a, b] : other.intervals_) insert(a, b);
}

void IntervalSet::intersect_with(const IntervalSet& other) {
  std::vector<Interval> out;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < intervals_.size() && j < other.intervals_.size()) {
    const auto& [a1, b1] = intervals_[i];
    const auto& [a2, b2] = other.intervals_[j];
    const std::uint64_t lo = std::max(a1, a2);
    const std::uint64_t hi = std::min(b1, b2);
    if (lo <= hi) out.push_back({lo, hi});
    if (b1 < b2) {
      ++i;
    } else {
      ++j;
    }
  }
  intervals_ = std::move(out);
}

IntervalSet IntervalSet::complement(unsigned width) const {
  const std::uint64_t dmax = domain_max(width);
  IntervalSet out;
  std::uint64_t next = 0;
  bool open = true;  // [next, ...] still uncovered
  for (const auto& [a, b] : intervals_) {
    if (a > next) out.intervals_.push_back({next, a - 1});
    if (b >= dmax) {
      open = false;
      break;
    }
    next = b + 1;
  }
  if (open && next <= dmax) out.intervals_.push_back({next, dmax});
  return out;
}

bool IntervalSet::subset_of(const IntervalSet& other) const {
  std::size_t j = 0;
  for (const auto& [a, b] : intervals_) {
    while (j < other.intervals_.size() && other.intervals_[j].second < a) ++j;
    if (j >= other.intervals_.size()) return false;
    if (other.intervals_[j].first > a || other.intervals_[j].second < b) return false;
  }
  return true;
}

// --- Cube --------------------------------------------------------------------

bool Cube::meet(net::FieldId field, const IntervalSet& set) {
  auto it = fields_.find(field);
  if (it == fields_.end()) {
    it = fields_.emplace(field, IntervalSet::full(net::field_width(field))).first;
  }
  it->second.intersect_with(set);
  if (it->second.empty()) feasible_ = false;
  return feasible_;
}

IntervalSet Cube::get(net::FieldId field) const {
  const auto it = fields_.find(field);
  if (it != fields_.end()) return it->second;
  return IntervalSet::full(net::field_width(field));
}

std::map<net::FieldId, std::uint64_t> Cube::witness() const {
  std::map<net::FieldId, std::uint64_t> out;
  for (const auto& [field, set] : fields_) {
    if (!set.empty()) out[field] = set.min();
  }
  return out;
}

}  // namespace ht::analysis::symx
