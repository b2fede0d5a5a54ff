// Reduced-space evaluation of the sizing objectives: the speed factors S are
// the only free variables; arrival statistics are *functions* of S computed
// by a forward SSTA sweep, and gradients come from one reverse (adjoint)
// sweep through the same computation graph using the hand-derived Clark
// derivatives.
//
// This is not the paper's formulation (which keeps all timing quantities as
// NLP variables — see full_space.h); it is the ablation partner (DESIGN.md
// sec. 5.1) and the scalability mode: the optimizer only sees |gates|
// variables, a value costs one forward sweep and a gradient one adjoint
// sweep on top, regardless of circuit size. A line search asks for values
// at its trial points (eval_forward, which records the tape) and for the
// gradient at the accepted one (eval_with_grad at the same speed, which
// re-propagates no gate and runs the adjoint alone).
//
// Both sweeps run level-parallel on the global runtime pool (DESIGN.md §7).
// The forward sweep's writes are per-gate disjoint; the adjoint sweep's
// overlapping amu/avar/grad scatters go through per-level ScatterPlans
// (parallel evaluate into disjoint slots, conflict-free target-major fold),
// so results are equal at any thread count, including the serial fallback.
//
// ECO path (DESIGN.md §12): the evaluator keeps its forward tape (arrivals,
// delays, recorded Clark steps) across eval_forward and gradient calls. When
// the next call's speed vector differs from the cached one on a few gates
// only — or the view's delay-model constants were edited and note_edits()
// named the nodes — the forward sweep repropagates just the affected cone,
// worklist-style, and the adjoint runs over the patched tape. A gate not
// recomputed has bitwise-identical fanin arrivals, hence bitwise-identical
// cached steps, so the incremental gradient is bit-identical to a cold
// evaluation (pinned by tests and bench/eco_incremental).

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/spec.h"
#include "netlist/circuit.h"
#include "ssta/delay_model.h"
#include "stat/normal.h"

namespace statsize::core {

class ReducedEvaluator {
 public:
  ReducedEvaluator(const netlist::Circuit& circuit, ssta::SigmaModel sigma_model);

  /// Evaluates against a standalone view — e.g. an ECO-edited copy owned by
  /// an IncrementalEngine or a derived serve cache entry. The caller keeps
  /// `view` alive (and does not move it) for this evaluator's lifetime.
  /// circuit() throws on an evaluator built this way.
  ReducedEvaluator(const netlist::TimingView& view, ssta::SigmaModel sigma_model);

  ~ReducedEvaluator();

  const netlist::Circuit& circuit() const;

  /// Adjoint seed (seed_mu, seed_var) as a function of the forward Tmax.
  using SeedFn = std::function<std::pair<double, double>(const stat::NormalRV& tmax)>;

  /// Forward sweep only: the circuit-delay distribution at `speed`.
  /// Stateless (does not consult or update the gradient tape).
  stat::NormalRV eval(const std::vector<double>& speed) const;

  /// Forward sweep that records the gradient tape (full or dirty-cone
  /// incremental, like a gradient call's): Tmax is bit-equal to eval(), and
  /// an eval_with_grad at the same speed right after it re-propagates no
  /// gate (last_forward_recomputes() == 0) — only the adjoint runs. The
  /// value-only half of a line search. Same preconditions and concurrency
  /// rules as eval_with_grad.
  stat::NormalRV eval_forward(const std::vector<double>& speed) const;

  /// Forward + adjoint: returns Tmax and fills `grad` (indexed by NodeId;
  /// non-gate entries 0) with the gradient of
  ///     seed_mu * mu_Tmax + seed_var * var_Tmax
  /// with respect to every speed factor. Linear combinations cover all
  /// objectives: e.g. d(mu + k sigma)/dS uses seed_mu = 1,
  /// seed_var = k / (2 sigma).
  ///
  /// Degenerate circuits are rejected with std::invalid_argument naming the
  /// problem (no primary outputs — Tmax undefined; a zero-fanin gate — no
  /// arrival to fold) instead of underflowing the step-slice arithmetic.
  ///
  /// Not safe for concurrent calls on one instance: the adjoint's scatter
  /// plans and the forward tape are cached across calls (the sweeps
  /// themselves fan out across the global pool internally).
  stat::NormalRV eval_with_grad(const std::vector<double>& speed, double seed_mu,
                                double seed_var, std::vector<double>& grad) const;

  /// As above, with the seed derived from this call's own forward Tmax — the
  /// gradient of an objective whose weights depend on Tmax (e.g. through
  /// sigma) without a separate probe sweep.
  stat::NormalRV eval_with_grad(const std::vector<double>& speed, const SeedFn& seed,
                                std::vector<double>& grad) const;

  /// Gradient of mu + k * sigma directly (the common case). The adjoint seed
  /// is derived from the forward sweep's own Tmax — one forward + one
  /// adjoint sweep total, no separate sigma probe.
  double eval_metric(const std::vector<double>& speed, double sigma_weight,
                     std::vector<double>* grad) const;

  /// Marks view nodes whose delay-model constants were edited (via
  /// TimingView::update_node_params on this evaluator's view) since the last
  /// tape-recording call. Call *after* the edits: the evaluator records the
  /// view's current epoch, and the next forward sweep repropagates only the
  /// cone of the noted nodes (plus any speed-diff dirt). Edits made without a
  /// note are still safe — the epoch mismatch forces a full resweep.
  void note_edits(const std::vector<netlist::NodeId>& nodes);

  /// Drops the forward tape; the next tape-recording call runs a full sweep.
  void invalidate();

  /// Gates whose arrival fold actually ran in the forward sweep of the last
  /// tape-recording call, eval_forward or gradient (== num_gates for a full
  /// sweep) — the observable "re-eval scales with cone size" contract.
  std::size_t last_forward_recomputes() const;

 private:
  struct AdjointPlans;
  struct ForwardCache;

  const netlist::TimingView& resolve_view() const;
  /// resolve_view() after rejecting a mis-sized speed vector or a circuit
  /// without primary outputs.
  const netlist::TimingView& checked_view(const std::vector<double>& speed) const;

  /// Full-or-incremental forward sweep recording the Clark-step tape into
  /// the cache; returns Tmax.
  stat::NormalRV forward_sweep(const netlist::TimingView& view,
                               const std::vector<double>& speed) const;

  template <class Seed>
  stat::NormalRV eval_with_grad_impl(const std::vector<double>& speed, const Seed& seed_fn,
                                     std::vector<double>& grad) const;

  const netlist::Circuit* circuit_ = nullptr;  ///< null when view-constructed
  const netlist::TimingView* view_ = nullptr;  ///< null when circuit-constructed
  ssta::SigmaModel sigma_model_;
  mutable std::unique_ptr<AdjointPlans> plans_;  ///< lazy; structure-only cache
  mutable std::unique_ptr<ForwardCache> fwd_;    ///< lazy; forward tape
};

}  // namespace statsize::core
