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
#include <string>
#include <vector>

#include "htpr/receiver.hpp"
#include "net/fields.hpp"
#include "rmt/table.hpp"

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
  /// to `cap` points; beyond the cap it widens to [start, end] (sound
  /// over-approximation, flagged via the return of exact()).
  static IntervalSet stepped(std::uint64_t start, std::uint64_t end, std::uint64_t step,
                             std::size_t cap = 4096);

  bool empty() const { return intervals_.empty(); }
  bool exact() const { return exact_; }
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

  const std::vector<Interval>& intervals() const { return intervals_; }

 private:
  void insert(std::uint64_t lo, std::uint64_t hi);

  std::vector<Interval> intervals_;
  bool exact_ = true;
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
  bool constrains(net::FieldId field) const { return fields_.count(field) != 0; }

  /// A concrete assignment satisfying the cube: the smallest value of
  /// every constrained field (unconstrained fields are free).
  std::map<net::FieldId, std::uint64_t> witness() const;

  const std::map<net::FieldId, IntervalSet>& fields() const { return fields_; }

 private:
  std::map<net::FieldId, IntervalSet> fields_;
  bool feasible_ = true;
};

// --- rule cover / shadow machinery -------------------------------------------

/// One installed match-action rule, abstracted for cover reasoning.
struct SymRule {
  std::vector<rmt::KeyMatch> keys;  ///< parallel to the table's MatchSpec
  int priority = 0;
  std::string label;
};

/// Does criterion `a` match every value criterion `b` matches?
/// `width` is the field width in bits (LPM needs it).
bool covers(const rmt::KeyMatch& a, const rmt::KeyMatch& b, rmt::MatchKind kind, unsigned width);

/// Indices of rules that can never hit because an earlier/higher-priority
/// rule's key space fully covers theirs. Returns (shadowing, shadowed)
/// pairs; a rule is reported once, against its first shadower.
std::vector<std::pair<std::size_t, std::size_t>> shadowed_rules(
    const std::vector<rmt::MatchSpec>& key, const std::vector<SymRule>& rules);

}  // namespace ht::analysis::symx
