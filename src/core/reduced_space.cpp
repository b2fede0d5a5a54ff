#include "core/reduced_space.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

#include "netlist/timing_view.h"
#include "runtime/level_schedule.h"
#include "runtime/runtime.h"
#include "runtime/scatter_plan.h"
#include "ssta/ssta.h"
#include "stat/clark.h"

namespace statsize::core {

using netlist::NodeId;
using netlist::NodeKind;
using stat::ClarkGrad;
using stat::NormalRV;

namespace {

/// Bitwise moment comparison — the incremental sweep's propagation-
/// termination predicate (see IncrementalEngine; same rationale).
bool same_bits(const NormalRV& a, const NormalRV& b) {
  return std::memcmp(&a.mu, &b.mu, sizeof(double)) == 0 &&
         std::memcmp(&a.var, &b.var, sizeof(double)) == 0;
}

}  // namespace

// Per-level scatter structure for the adjoint sweep. Structural only — it
// depends on the circuit topology, not on speeds or seeds — so it is built
// once (lazily, on the first parallel adjoint) and reused by every gradient
// call for the lifetime of the evaluator.
//
// Each gate contributes one fanin item (targets: its fanins in the serial
// fold's write order — fanins[n-1] .. fanins[1], then fanins[0]) folded into
// both amu and avar, and one fanout item (targets: its fanouts in order)
// folded into grad. Slot order inside a level is gate position then
// within-gate write order, which is exactly the serial sweep's accumulation
// order — so fold_add produces equal doubles (DESIGN.md §7).
struct ReducedEvaluator::AdjointPlans {
  struct Level {
    runtime::ScatterPlan fanin_plan;
    runtime::ScatterPlan fanout_plan;
  };
  std::vector<Level> levels;
  std::vector<std::size_t> fanin_slot;   ///< NodeId -> level-local first fanin slot
  std::vector<std::size_t> fanout_slot;  ///< NodeId -> level-local first fanout slot
  // Scratch reused across calls, sized to the widest level.
  std::vector<double> amu_vals;
  std::vector<double> avar_vals;
  std::vector<double> grad_vals;

  AdjointPlans(const netlist::TimingView& view, const runtime::LevelSchedule& sched) {
    const std::size_t n = static_cast<std::size_t>(view.num_nodes());
    fanin_slot.assign(n, 0);
    fanout_slot.assign(n, 0);
    levels.resize(static_cast<std::size_t>(sched.num_levels()));
    std::size_t max_fanin = 0;
    std::size_t max_fanout = 0;
    std::vector<NodeId> rev;
    for (int l = 0; l < sched.num_levels(); ++l) {
      Level& lv = levels[static_cast<std::size_t>(l)];
      for (NodeId id : sched.level(l)) {
        const netlist::NodeSpan fanins = view.fanins(id);
        const netlist::NodeSpan fanouts = view.fanouts(id);
        rev.assign(std::make_reverse_iterator(fanins.end()),
                   std::make_reverse_iterator(fanins.begin()));
        fanin_slot[static_cast<std::size_t>(id)] = lv.fanin_plan.add_item(rev.data(), rev.size());
        fanout_slot[static_cast<std::size_t>(id)] =
            lv.fanout_plan.add_item(fanouts.begin(), fanouts.size());
      }
      lv.fanin_plan.freeze(n);
      lv.fanout_plan.freeze(n);
      max_fanin = std::max(max_fanin, lv.fanin_plan.num_slots());
      max_fanout = std::max(max_fanout, lv.fanout_plan.num_slots());
    }
    amu_vals.resize(max_fanin);
    avar_vals.resize(max_fanin);
    grad_vals.resize(max_fanout);
  }
};

// The persistent forward tape (DESIGN.md §12): everything the adjoint sweep
// reads, kept across calls so an incremental forward only rewrites the
// recomputed cone's slices. `steps` slices are preassigned per gate
// (structure-only, like the scatter plans), so a partial rewrite cannot
// shift any other gate's slice.
struct ReducedEvaluator::ForwardCache {
  // Structure-only, built once per evaluator.
  bool structure_built = false;
  std::vector<std::size_t> step_begin;  ///< NodeId -> first step slot
  std::size_t out_step_begin = 0;
  std::vector<ClarkGrad> steps;

  // Tape state from the last forward sweep.
  bool valid = false;
  std::uint64_t view_epoch = 0;  ///< view.epoch() when the tape was written
  std::vector<double> speed;
  std::vector<NormalRV> arrival;
  std::vector<NormalRV> delay;

  // Edits declared via note_edits since the last sweep.
  std::vector<NodeId> noted;
  std::vector<unsigned char> noted_mask;
  std::uint64_t noted_epoch = 0;

  // Worklist scratch (persistent to avoid per-call allocation).
  std::vector<NodeId> dirty;
  std::vector<unsigned char> dirty_mask;
  std::vector<std::vector<NodeId>> bucket;  ///< per gate level
  std::vector<unsigned char> queued_mask;

  std::size_t last_recomputes = 0;
};

ReducedEvaluator::ReducedEvaluator(const netlist::Circuit& circuit, ssta::SigmaModel sigma_model)
    : circuit_(&circuit), sigma_model_(sigma_model) {}

ReducedEvaluator::ReducedEvaluator(const netlist::TimingView& view, ssta::SigmaModel sigma_model)
    : view_(&view), sigma_model_(sigma_model) {}

ReducedEvaluator::~ReducedEvaluator() = default;

const netlist::Circuit& ReducedEvaluator::circuit() const {
  if (circuit_ == nullptr) {
    throw std::logic_error(
        "ReducedEvaluator::circuit: evaluator was constructed from a bare "
        "TimingView (ECO edit path) and has no backing Circuit");
  }
  return *circuit_;
}

const netlist::TimingView& ReducedEvaluator::resolve_view() const {
  return circuit_ != nullptr ? circuit_->view() : *view_;
}

NormalRV ReducedEvaluator::eval(const std::vector<double>& speed) const {
  const ssta::DelayCalculator calc(resolve_view(), sigma_model_);
  return ssta::run_ssta(calc, speed).circuit_delay;
}

void ReducedEvaluator::note_edits(const std::vector<NodeId>& nodes) {
  const netlist::TimingView& view = resolve_view();
  if (!fwd_) fwd_ = std::make_unique<ForwardCache>();
  ForwardCache& f = *fwd_;
  const std::size_t n = static_cast<std::size_t>(view.num_nodes());
  if (f.noted_mask.size() != n) f.noted_mask.assign(n, 0);
  for (NodeId u : nodes) {
    if (u < 0 || u >= static_cast<NodeId>(n)) {
      throw std::invalid_argument("ReducedEvaluator::note_edits: node " + std::to_string(u) +
                                  " is out of range");
    }
    unsigned char& m = f.noted_mask[static_cast<std::size_t>(u)];
    if (!m) {
      m = 1;
      f.noted.push_back(u);
    }
  }
  f.noted_epoch = view.epoch();
}

void ReducedEvaluator::invalidate() {
  if (!fwd_) return;
  fwd_->valid = false;
  for (NodeId u : fwd_->noted) fwd_->noted_mask[static_cast<std::size_t>(u)] = 0;
  fwd_->noted.clear();
}

std::size_t ReducedEvaluator::last_forward_recomputes() const {
  return fwd_ ? fwd_->last_recomputes : 0;
}

NormalRV ReducedEvaluator::forward_sweep(const netlist::TimingView& view,
                                         const std::vector<double>& speed) const {
  const std::size_t n = static_cast<std::size_t>(view.num_nodes());
  if (!fwd_) fwd_ = std::make_unique<ForwardCache>();
  ForwardCache& f = *fwd_;
  const std::vector<NodeId>& outs = view.outputs();

  if (!f.structure_built) {
    f.step_begin.assign(n, 0);
    std::size_t gate_steps = 0;
    for (NodeId id : view.gates_in_topo_order()) {
      const netlist::NodeSpan fanins = view.fanins(id);
      if (fanins.empty()) {
        // Unreachable through the public builders (CellLibrary rejects cells
        // with num_inputs < 1 and the BLIF reader maps zero-fanin .names to
        // auxiliary inputs), but a fanin-less gate would underflow the
        // step-slice arithmetic below — fail loudly instead.
        const std::string name =
            circuit_ != nullptr ? circuit_->node(id).name : "gate#" + std::to_string(id);
        throw std::invalid_argument("ReducedEvaluator::eval_with_grad: gate '" + name +
                                    "' has no fanins; its arrival fold is undefined");
      }
      f.step_begin[static_cast<std::size_t>(id)] = gate_steps;
      gate_steps += fanins.size() - 1;
    }
    f.out_step_begin = gate_steps;
    f.steps.resize(gate_steps + outs.size() - 1);
    if (f.noted_mask.size() != n) f.noted_mask.assign(n, 0);
    f.dirty_mask.assign(n, 0);
    f.queued_mask.assign(n, 0);
    f.bucket.assign(static_cast<std::size_t>(view.num_levels()), {});
    f.structure_built = true;
  }

  const ssta::DelayCalculator calc(view, sigma_model_);

  // Records gate `id`'s fold into the tape. Fold convention everywhere:
  // operand A = running accumulator, operand B = the new fanin/output
  // arrival. A gate writes only arrival/delay[i] and its own step slice and
  // reads strictly-lower-level arrivals, so the full sweep can run
  // level-parallel with bit-identical results; the incremental path below
  // reuses the identical per-gate arithmetic serially.
  auto eval_gate = [&](NodeId id) {
    const netlist::NodeSpan fanins = view.fanins(id);
    const std::size_t i = static_cast<std::size_t>(id);
    NormalRV u = f.arrival[static_cast<std::size_t>(fanins[0])];
    for (std::size_t k = 1; k < fanins.size(); ++k) {
      ClarkGrad g;
      u = stat::clark_max_grad(u, f.arrival[static_cast<std::size_t>(fanins[k])], g);
      f.steps[f.step_begin[i] + (k - 1)] = g;
    }
    f.delay[i] = calc.delay(id, speed);
    f.arrival[i] = stat::add(u, f.delay[i]);
  };

  // Incremental is sound only when the tape is valid AND every view edit
  // since the tape was written is accounted for: either the epoch is
  // unchanged (speed-diff dirt only) or note_edits was called after the last
  // edit (noted_epoch caught up). An un-noted edit leaves noted_epoch
  // behind and forces the full resweep.
  const std::uint64_t cur_epoch = view.epoch();
  const bool incremental =
      f.valid && f.speed.size() == n &&
      (cur_epoch == f.view_epoch || (!f.noted.empty() && cur_epoch == f.noted_epoch));

  if (!incremental) {
    f.arrival.assign(n, NormalRV{});
    f.delay.assign(n, NormalRV{});
    const bool parallel =
        runtime::threads() > 1 && view.num_gates() >= ssta::kParallelGateCutoff;
    if (parallel) {
      runtime::LevelSchedule(view).for_each_gate(ssta::kGateGrain, eval_gate);
    } else {
      for (NodeId id : view.gates_in_topo_order()) eval_gate(id);
    }
    f.last_recomputes = static_cast<std::size_t>(view.num_gates());
  } else {
    // Delay-dirty set: speed-diff gates and noted nodes, each widened by its
    // gate fanins (a driver's load carries the edited gate's c_in * S term).
    f.dirty.clear();
    auto mark = [&](NodeId g) {
      if (!view.is_gate(g)) return;
      unsigned char& m = f.dirty_mask[static_cast<std::size_t>(g)];
      if (!m) {
        m = 1;
        f.dirty.push_back(g);
      }
    };
    for (NodeId g : view.gates_in_topo_order()) {
      const std::size_t i = static_cast<std::size_t>(g);
      if (std::memcmp(&speed[i], &f.speed[i], sizeof(double)) != 0) {
        mark(g);
        for (NodeId fi : view.fanins(g)) mark(fi);
      }
    }
    for (NodeId u : f.noted) {
      mark(u);
      for (NodeId fi : view.fanins(u)) mark(fi);
    }
    // Recompute dirty delays; a bitwise-changed delay seeds the worklist.
    for (NodeId g : f.dirty) {
      const std::size_t i = static_cast<std::size_t>(g);
      f.dirty_mask[i] = 0;
      const NormalRV d = calc.delay(g, speed);
      if (!same_bits(d, f.delay[i])) {
        f.delay[i] = d;
        if (!f.queued_mask[i]) {
          f.queued_mask[i] = 1;
          f.bucket[static_cast<std::size_t>(view.level(g) - 1)].push_back(g);
        }
      }
    }
    f.dirty.clear();

    // Level-ordered cone repropagation (serial: the cone is the small case
    // this path exists for; a gate not refolded keeps its bitwise-identical
    // tape slice). A changed arrival enqueues the gate's fanouts — always at
    // strictly higher levels, so the bucket being drained never grows.
    std::size_t recomputes = 0;
    const int num_levels = view.num_levels();
    for (int l = 0; l < num_levels; ++l) {
      std::vector<NodeId>& bucket = f.bucket[static_cast<std::size_t>(l)];
      if (bucket.empty()) continue;
      for (std::size_t bi = 0; bi < bucket.size(); ++bi) {
        const NodeId g = bucket[bi];
        const std::size_t i = static_cast<std::size_t>(g);
        f.queued_mask[i] = 0;
        const NormalRV before = f.arrival[i];
        eval_gate(g);
        ++recomputes;
        if (same_bits(before, f.arrival[i])) continue;
        for (NodeId fo : view.fanouts(g)) {
          const std::size_t o = static_cast<std::size_t>(fo);
          if (!f.queued_mask[o]) {
            f.queued_mask[o] = 1;
            f.bucket[static_cast<std::size_t>(view.level(fo) - 1)].push_back(fo);
          }
        }
      }
      bucket.clear();
    }
    f.last_recomputes = recomputes;
  }

  // The primary-output fold is always re-recorded (it is O(outputs) and its
  // operand-A accumulator depends on every output's arrival).
  NormalRV tmax = f.arrival[static_cast<std::size_t>(outs[0])];
  for (std::size_t k = 1; k < outs.size(); ++k) {
    ClarkGrad g;
    tmax = stat::clark_max_grad(tmax, f.arrival[static_cast<std::size_t>(outs[k])], g);
    f.steps[f.out_step_begin + (k - 1)] = g;
  }

  f.speed = speed;
  f.view_epoch = cur_epoch;
  for (NodeId u : f.noted) f.noted_mask[static_cast<std::size_t>(u)] = 0;
  f.noted.clear();
  f.valid = true;
  return tmax;
}

const netlist::TimingView& ReducedEvaluator::checked_view(const std::vector<double>& speed) const {
  const std::size_t n =
      static_cast<std::size_t>(circuit_ != nullptr ? circuit_->num_nodes() : view_->num_nodes());
  if (speed.size() != n) throw std::invalid_argument("speed must be indexed by NodeId");
  // Guard before view(): an output-less circuit cannot survive finalize(), so
  // this diagnostic must fire pre-finalize (core_test pins it).
  const std::vector<NodeId>& outs = circuit_ != nullptr ? circuit_->outputs() : view_->outputs();
  if (outs.empty()) {
    throw std::invalid_argument(
        "ReducedEvaluator::eval_with_grad: circuit has no primary outputs, so the "
        "circuit delay (and its gradient) is undefined");
  }
  return resolve_view();
}

NormalRV ReducedEvaluator::eval_forward(const std::vector<double>& speed) const {
  return forward_sweep(checked_view(speed), speed);
}

template <class Seed>
NormalRV ReducedEvaluator::eval_with_grad_impl(const std::vector<double>& speed,
                                               const Seed& seed_fn,
                                               std::vector<double>& grad) const {
  const netlist::TimingView& view = checked_view(speed);
  const std::size_t n = speed.size();
  const std::vector<NodeId>& outs = view.outputs();

  // ---- Forward sweep (full or dirty-cone incremental), recording the tape.
  const NormalRV tmax = forward_sweep(view, speed);
  ForwardCache& f = *fwd_;

  // The adjoint seed may depend on the forward result (eval_metric derives
  // its var seed from Tmax's own sigma — no separate probe sweep needed).
  const std::pair<double, double> seed = seed_fn(tmax);
  const double seed_mu = seed.first;
  const double seed_var = seed.second;

  // ---- Adjoint sweep.
  grad.assign(n, 0.0);
  std::vector<double> amu(n, 0.0);   // adjoint of arrival mu
  std::vector<double> avar(n, 0.0);  // adjoint of arrival var

  // Through the primary-output fold (reverse order). The accumulator adjoint
  // flows backward through operand-A slots; operand-B feeds each output.
  {
    double acc_mu = seed_mu;
    double acc_var = seed_var;
    for (std::size_t k = outs.size(); k-- > 1;) {
      const ClarkGrad& g = f.steps[f.out_step_begin + (k - 1)];
      const std::size_t o = static_cast<std::size_t>(outs[k]);
      amu[o] += acc_mu * g.dmu[1] + acc_var * g.dvar[1];
      avar[o] += acc_mu * g.dmu[3] + acc_var * g.dvar[3];
      const double new_mu = acc_mu * g.dmu[0] + acc_var * g.dvar[0];
      const double new_var = acc_mu * g.dmu[2] + acc_var * g.dvar[2];
      acc_mu = new_mu;
      acc_var = new_var;
    }
    amu[static_cast<std::size_t>(outs[0])] += acc_mu;
    avar[static_cast<std::size_t>(outs[0])] += acc_var;
  }

  // Through the gates, highest level first: a gate's amu/avar are final once
  // every fanout (always at a strictly higher level) has run. Both execution
  // modes traverse the *same* reverse level order and share gate_adjoint, so
  // every per-target accumulation happens in the same order with the same
  // per-contribution arithmetic — the parallel path merely stages the
  // contributions in ScatterPlan slots and folds them per level instead of
  // scattering directly.
  const double kappa = sigma_model_.kappa;
  const double offset = sigma_model_.offset;

  // Computes gate `id`'s adjoint contributions: applies the own-speed term to
  // grad[id] directly (disjoint across gates), writes the fanout grad terms
  // to fo_g (fanout order) and the fanin amu/avar terms to fin_mu/fin_var in
  // the serial fold's write order (fanins[n-1] .. fanins[1], then fanins[0]).
  // Returns false — nothing written — when the gate's adjoint is zero.
  auto gate_adjoint = [&](NodeId id, double* fo_g, double* fin_mu, double* fin_var) -> bool {
    const std::size_t i = static_cast<std::size_t>(id);
    const double a_mu = amu[i];
    const double a_var = avar[i];
    if (a_mu == 0.0 && a_var == 0.0) return false;

    // T = U + t: gate-delay adjoints equal the arrival adjoints.
    // var_t = (kappa mu_t + offset)^2 chains var sensitivity onto mu_t.
    const double sigma_t = kappa * f.delay[i].mu + offset;
    const double adj_mu_t = a_mu + a_var * 2.0 * kappa * sigma_t;

    // mu_t = t_int + c * load / S: sensitivities to this gate's own S and to
    // every fanout's S (their pins are part of the load). The per-edge sink
    // pin capacitances are the view's precomputed fanout_cin array — the same
    // doubles the load dot product reads.
    const double drive_c = view.drive_c(id);
    const double s_own = speed[i];
    const double load = view.load_capacitance(id, speed.data());
    grad[i] += adj_mu_t * (-drive_c * load / (s_own * s_own));
    const netlist::NodeSpan fanouts = view.fanouts(id);
    const double* fo_cin = view.fanout_cin(id);
    for (std::size_t k = 0; k < fanouts.size(); ++k) {
      fo_g[k] = adj_mu_t * drive_c * fo_cin[k] / s_own;
    }

    // Through this gate's fanin fold, reverse order.
    double acc_mu = a_mu;
    double acc_var = a_var;
    const netlist::NodeSpan fanins = view.fanins(id);
    const std::size_t nf = fanins.size();
    for (std::size_t k = nf; k-- > 1;) {
      const ClarkGrad& g = f.steps[f.step_begin[i] + (k - 1)];
      fin_mu[nf - 1 - k] = acc_mu * g.dmu[1] + acc_var * g.dvar[1];
      fin_var[nf - 1 - k] = acc_mu * g.dmu[3] + acc_var * g.dvar[3];
      const double new_mu = acc_mu * g.dmu[0] + acc_var * g.dvar[0];
      const double new_var = acc_mu * g.dmu[2] + acc_var * g.dvar[2];
      acc_mu = new_mu;
      acc_var = new_var;
    }
    fin_mu[nf - 1] = acc_mu;
    fin_var[nf - 1] = acc_var;
    return true;
  };

  const bool parallel =
      runtime::threads() > 1 && view.num_gates() >= ssta::kParallelGateCutoff;
  const runtime::LevelSchedule sched(view);
  if (parallel) {
    if (!plans_) plans_ = std::make_unique<AdjointPlans>(view, sched);
    AdjointPlans& plans = *plans_;
    sched.for_each_gate_reverse(
        ssta::kGateGrain,
        [&](NodeId id) {
          const std::size_t i = static_cast<std::size_t>(id);
          // Slot offsets are level-local: each level's gates write disjoint
          // slices of the shared scratch, folded before the next level runs.
          double* fo_g = plans.grad_vals.data() + plans.fanout_slot[i];
          double* fin_mu = plans.amu_vals.data() + plans.fanin_slot[i];
          double* fin_var = plans.avar_vals.data() + plans.fanin_slot[i];
          if (!gate_adjoint(id, fo_g, fin_mu, fin_var)) {
            // Zero adjoint: the serial sweep skips this gate entirely; fold
            // zeros so the folded sums stay equal (x + 0.0 == x).
            for (std::size_t k = 0; k < view.fanouts(id).size(); ++k) fo_g[k] = 0.0;
            for (std::size_t k = 0; k < view.fanins(id).size(); ++k) {
              fin_mu[k] = 0.0;
              fin_var[k] = 0.0;
            }
          }
        },
        [&](int l) {
          const AdjointPlans::Level& lv = plans.levels[static_cast<std::size_t>(l)];
          lv.fanin_plan.fold_add(plans.amu_vals.data(), amu.data());
          lv.fanin_plan.fold_add(plans.avar_vals.data(), avar.data());
          lv.fanout_plan.fold_add(plans.grad_vals.data(), grad.data());
        });
  } else {
    std::size_t max_fanin = 0;
    std::size_t max_fanout = 0;
    for (int l = 0; l < sched.num_levels(); ++l) {
      for (NodeId id : sched.level(l)) {
        max_fanin = std::max(max_fanin, view.fanins(id).size());
        max_fanout = std::max(max_fanout, view.fanouts(id).size());
      }
    }
    std::vector<double> fo_g(max_fanout);
    std::vector<double> fin_mu(max_fanin);
    std::vector<double> fin_var(max_fanin);
    for (int l = sched.num_levels(); l-- > 0;) {
      for (NodeId id : sched.level(l)) {
        if (!gate_adjoint(id, fo_g.data(), fin_mu.data(), fin_var.data())) continue;
        const netlist::NodeSpan fanouts = view.fanouts(id);
        for (std::size_t k = 0; k < fanouts.size(); ++k) {
          grad[static_cast<std::size_t>(fanouts[k])] += fo_g[k];
        }
        const netlist::NodeSpan fanins = view.fanins(id);
        const std::size_t nf = fanins.size();
        for (std::size_t j = 0; j < nf; ++j) {
          // Slot j targets fanins[nf-1-j] (the serial fold's write order).
          const std::size_t f2 = static_cast<std::size_t>(fanins[nf - 1 - j]);
          amu[f2] += fin_mu[j];
          avar[f2] += fin_var[j];
        }
      }
    }
  }
  return tmax;
}

NormalRV ReducedEvaluator::eval_with_grad(const std::vector<double>& speed, double seed_mu,
                                          double seed_var, std::vector<double>& grad) const {
  return eval_with_grad_impl(
      speed, [&](const NormalRV&) { return std::pair<double, double>(seed_mu, seed_var); }, grad);
}

NormalRV ReducedEvaluator::eval_with_grad(const std::vector<double>& speed, const SeedFn& seed,
                                          std::vector<double>& grad) const {
  return eval_with_grad_impl(speed, seed, grad);
}

double ReducedEvaluator::eval_metric(const std::vector<double>& speed, double sigma_weight,
                                     std::vector<double>* grad) const {
  if (grad == nullptr) {
    const NormalRV t = eval(speed);
    return t.mu + sigma_weight * t.sigma();
  }
  // d(mu + k sigma) = d mu + k/(2 sigma) d var; the seed comes from the
  // forward sweep's own Tmax (clark_max and clark_max_grad share their
  // moment arithmetic, so this equals what a separate probe would produce).
  const NormalRV t = eval_with_grad_impl(
      speed,
      [&](const NormalRV& tmax) {
        const double sigma = tmax.sigma();
        const double seed_var = (sigma_weight != 0.0 && sigma > 1e-12)
                                    ? sigma_weight / (2.0 * sigma)
                                    : 0.0;
        return std::pair<double, double>(1.0, seed_var);
      },
      *grad);
  return t.mu + sigma_weight * t.sigma();
}

}  // namespace statsize::core
