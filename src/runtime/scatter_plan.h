// Conflict-free deterministic scatter-accumulation for the parallel runtime.
//
// The runtime's discipline is "parallel evaluate, ordered combine" (DESIGN.md
// §7): work items write to disjoint slots, and whatever overlaps is folded in
// a fixed order. That discipline covers sums and maxima, but not the sparse
// scatter `out[targets[k]] += value[k]` that dominates Hessian-vector
// products: there, many items hit the *same* target, so a naive parallel
// loop races and an atomic loop loses determinism (the fold order would
// depend on thread timing).
//
// ScatterPlan removes the conflict structurally by transposing the scatter
// into a gather. The plan is built once per *structure* (the target lists of
// the items never change between evaluations, only the values do):
//
//   build:  add_item(targets, n) per item, in the serial loop's item order —
//           each contribution gets a slot id, contiguous per item;
//           freeze() inverts the slot->target map into target->slots CSR,
//           with each target's slot list in ascending slot order.
//   use:    phase 1 (parallel over items): item i computes its contribution
//           values into slots [slot_begin(i), slot_begin(i) + n) of a scratch
//           buffer — disjoint writes, any schedule.
//           phase 2 (fold_add, parallel over *targets*): each target t does
//           out[t] += vals[s0] + vals[s1] + ... over its slots in ascending
//           slot order. A target is owned by exactly one chunk, so there are
//           no concurrent writes, and ascending slot order reproduces the
//           serial loop's accumulation order exactly — the additions hitting
//           any given target happen with the same operands in the same order
//           as `for item: for k: out[t] += v`, hence equal results at any
//           thread count (including the inline 1-thread path).
//
// Used by nlp::AugLagModel::hess_vec (element + Gauss-Newton scatters).

#pragma once

#include <cstddef>
#include <vector>

namespace statsize::runtime {

class ScatterPlan {
 public:
  /// Appends an item contributing to `targets[0..n)` (in that order, which
  /// must match the serial scatter's write order — duplicates allowed) and
  /// returns the item's first slot id. Only valid before freeze().
  std::size_t add_item(const int* targets, std::size_t n);

  /// Builds the target-major fold structure. `num_targets` bounds the target
  /// index space; every added target must be in [0, num_targets).
  void freeze(std::size_t num_targets);

  bool frozen() const { return frozen_; }
  std::size_t num_slots() const { return slot_target_.size(); }
  std::size_t num_targets() const { return num_targets_; }

  /// out[t] += sum of vals[s] over target t's slots in ascending slot order,
  /// fanned out across the global pool with `grain` targets per chunk (inline
  /// when the fold fits one grain). `vals` must hold num_slots()
  /// entries and `out` at least num_targets() entries. Deterministic at any
  /// thread count; equal to the serial item-order scatter wherever that
  /// scatter adds the same values.
  void fold_add(const double* vals, double* out, std::size_t grain = 32) const;

 private:
  bool frozen_ = false;
  std::size_t num_targets_ = 0;
  std::vector<int> slot_target_;          ///< slot -> target (build input)
  std::vector<int> targets_;              ///< distinct targets, ascending
  std::vector<std::size_t> row_begin_;    ///< CSR rows over targets_
  std::vector<std::size_t> slot_of_;      ///< CSR payload: slot ids, ascending
};

}  // namespace statsize::runtime
