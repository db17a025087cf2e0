// The symbolic oracle's constraint solver (no external SMT).
//
// Path constraints the symbolic executor collects are conjunctions of
// per-field predicates: parser transition selects, filter comparisons,
// range/list membership, table hit/miss conditions. Every predicate over
// an unsigned field of width <= 64 denotes a finite set of values, so the
// whole theory solves with one primitive, IntervalSet: a canonical sorted
// union of inclusive [lo, hi] intervals over the field's domain.
// Comparisons, equalities and ranges all map onto it; meet/complement/
// witness are exact.
//
// A `Cube` is the conjunction over all constrained fields; a path is
// feasible iff no field's set went empty, and `witness()` produces the
// concrete packet values the conformance suite materializes.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "htpr/receiver.hpp"
#include "net/fields.hpp"

namespace ht::analysis::symx {

/// Sorted, disjoint, merged union of inclusive intervals over
/// [0, 2^width - 1]. Width is the constructing predicate's field width;
/// operations assume both operands live in the same domain.
class IntervalSet {
 public:
  using Interval = std::pair<std::uint64_t, std::uint64_t>;

  static std::uint64_t domain_max(unsigned width) {
    return width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  }

  static IntervalSet none() { return IntervalSet{}; }
  static IntervalSet full(unsigned width) { return range(0, domain_max(width)); }
  static IntervalSet singleton(std::uint64_t v) { return range(v, v); }
  static IntervalSet range(std::uint64_t lo, std::uint64_t hi);

  /// The set satisfying `x <cmp> value` within a `width`-bit domain.
  static IntervalSet from_cmp(htpr::Cmp cmp, std::uint64_t value, unsigned width);

  /// A stepped range {start, start+step, ...} clipped to `end`, exact up
  /// to `cap` points; beyond the cap it widens to [start, end] (a sound
  /// over-approximation).
  static IntervalSet stepped(std::uint64_t start, std::uint64_t end, std::uint64_t step,
                             std::size_t cap = 4096);

  bool empty() const { return intervals_.empty(); }
  bool contains(std::uint64_t v) const;
  std::uint64_t min() const { return intervals_.front().first; }
  std::uint64_t max() const { return intervals_.back().second; }
  /// Number of values, saturating at UINT64_MAX.
  std::uint64_t count() const;
  /// The k-th smallest value (k < count()).
  std::uint64_t value_at(std::uint64_t k) const;

  void union_with(const IntervalSet& other);
  void intersect_with(const IntervalSet& other);
  IntervalSet complement(unsigned width) const;
  bool subset_of(const IntervalSet& other) const;

 private:
  void insert(std::uint64_t lo, std::uint64_t hi);

  std::vector<Interval> intervals_;
};

/// A conjunction of per-field constraints: the path condition. Fields not
/// present are unconstrained (full domain of their width).
class Cube {
 public:
  /// Meet `field` with `set`; returns false (and marks the cube
  /// infeasible) when the intersection is empty.
  bool meet(net::FieldId field, const IntervalSet& set);

  bool feasible() const { return feasible_; }
  IntervalSet get(net::FieldId field) const;

  /// A concrete assignment satisfying the cube: the smallest value of
  /// every constrained field (unconstrained fields are free).
  std::map<net::FieldId, std::uint64_t> witness() const;

 private:
  std::map<net::FieldId, IntervalSet> fields_;
  bool feasible_ = true;
};

}  // namespace ht::analysis::symx
