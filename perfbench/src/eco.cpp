// eco_k2: closed streams of ECO operations on k2, each starting from its
// min mu+3sigma sizing. One operation is: a seeded delay-model constant change
// on 1-4 gates, IncrementalEngine::apply_edits, Sizer::resize warm-started
// from the previous result, and the resized speeds applied back to the engine
// as edits.
#include <cstdio>
#include <memory>
#include <vector>

#include "netlist/generators.h"
#include "ssta/incremental.h"
#include "ssta/ssta.h"
#include "workloads.h"

namespace perfbench {

using namespace statsize;

namespace {

constexpr int kOpsPerPass = 250;
constexpr int kPasses = 8;  ///< 2000 ops: enough for a p99 with 20 samples beyond it
constexpr int kSmokeOps = 24;
/// One op in this many (seeded) gets the full bit-identity check against a
/// fresh run_ssta; every op is checked against the resize's own timing.
constexpr std::uint64_t kFullCheckEvery = 16;

bool bits_equal(const stat::NormalRV& a, const stat::NormalRV& b) {
  return a.mu == b.mu && a.var == b.var;
}

/// Engine caches against a from-scratch SSTA on the engine's own (edited)
/// view and speeds, to the last bit.
bool engine_matches_full(const ssta::IncrementalEngine& engine) {
  const ssta::DelayCalculator calc(engine.view(), engine.sigma_model());
  const ssta::TimingReport fresh = ssta::run_ssta(engine.view(), calc.all_delays(engine.speed()));
  if (fresh.arrival.size() != engine.arrivals().size()) return false;
  for (std::size_t i = 0; i < fresh.arrival.size(); ++i) {
    if (!bits_equal(fresh.arrival[i], engine.arrivals()[i])) return false;
  }
  return bits_equal(fresh.circuit_delay, engine.tmax());
}

struct EcoState {
  netlist::Circuit circuit = netlist::make_mcnc_like("k2");
  SizeRow row;                  ///< k2 min mu+3sigma, reduced space
  core::SizingResult initial;   ///< the row's cold solve
  core::SizingResult current;   ///< the latest resize
  std::unique_ptr<ssta::IncrementalEngine> engine;
  std::vector<netlist::NodeId> gates;
};

/// Puts the engine and the warm start back at the set-up sizing.
void eco_reset(EcoState& s) {
  s.current = s.initial;
  s.engine = std::make_unique<ssta::IncrementalEngine>(s.circuit.view(), s.initial.speed,
                                                       s.row.spec.sigma_model);
}

std::unique_ptr<EcoState> eco_setup(Context& ctx) {
  auto s = std::make_unique<EcoState>();
  s->row = k2_min_mu3sigma_row();
  Result setup;
  s->initial = solve_and_check(ctx, setup, s->circuit, s->row, -1);
  ctx.result->check(setup.failed() == 0, "eco set-up sizing");
  eco_reset(*s);
  s->gates = s->engine->view().gates_in_topo_order();
  return s;
}

struct EcoStats {
  std::vector<double> op_ms;
  std::vector<double> pass_s;
  double cone_gates_first_pass = 0.0;    ///< summed over the first pass's ops
  double resize_its_first_pass = 0.0;    ///< summed over the first pass's ops
  int first_pass_ops = 0;
};

/// One ECO operation; returns false when a check fails.
bool eco_op(Context& ctx, EcoState& s, SplitMix64& edits_rng, SplitMix64& check_rng, long op_id,
            std::size_t* cone, int* resize_its) {
  Trace& trace = *ctx.trace;
  Trace::Scope op_span(trace, "eco.op", op_id);
  ssta::IncrementalEngine& engine = *s.engine;

  // Each picked gate's intrinsic delay constant moves by a seeded factor in
  // [0.98, 1.02]: a re-characterised cell, small enough that the warm resize
  // stays an incremental re-solve.
  std::vector<ssta::TimingEdit> edits;
  const int count = 1 + static_cast<int>(edits_rng.below(4));
  for (int i = 0; i < count; ++i) {
    const netlist::NodeId g = s.gates[edits_rng.below(s.gates.size())];
    netlist::NodeParams p = engine.view().node_params(g);
    p.t_int *= 0.98 + 0.04 * edits_rng.uniform();
    edits.push_back(ssta::TimingEdit::set_params(g, p));
  }
  {
    Trace::Scope span(trace, "ssta.apply_edits", op_id, op_span.index());
    engine.apply_edits(edits);
  }
  *cone = engine.last_arrival_recomputes();

  core::SizerOptions options;
  options.method = core::Method::kReducedSpace;
  core::SizingResult r;
  {
    Trace::Scope span(trace, "core.resize", op_id, op_span.index());
    r = core::Sizer(engine.view(), s.row.spec).resize(options, s.current.warm);
  }
  *resize_its = r.iterations;

  std::vector<ssta::TimingEdit> speed_edits;
  for (const netlist::NodeId g : s.gates) {
    const double v = r.speed[static_cast<std::size_t>(g)];
    if (v != engine.speed()[static_cast<std::size_t>(g)]) {
      speed_edits.push_back(ssta::TimingEdit::set_speed(g, v));
    }
  }
  if (!speed_edits.empty()) {
    Trace::Scope span(trace, "ssta.apply_edits", op_id, op_span.index());
    engine.apply_edits(speed_edits);
    *cone += engine.last_arrival_recomputes();
  }
  s.current = std::move(r);

  // The engine's Tmax must equal the sizer's own final SSTA at the same
  // sizes; on a seeded sample, every arrival must equal a fresh run_ssta.
  bool ok = bits_equal(engine.tmax(), s.current.circuit_delay);
  if (check_rng.below(kFullCheckEvery) == 0) ok = ok && engine_matches_full(engine);
  return ok;
}

EcoStats eco_stream(Context& ctx, EcoState& s, Result& sink, int ops_per_pass, int passes) {
  SplitMix64 edits_rng(ctx.seed, 1);
  SplitMix64 check_rng(ctx.seed, 2);
  EcoStats st;
  long op_id = 0;
  for (int pass = 0; pass < passes; ++pass) {
    // Every pass is its own stream from the sized design, so one seed's
    // drift does not carry through the whole run.
    eco_reset(s);
    const Clock::time_point p0 = Clock::now();
    for (int i = 0; i < ops_per_pass; ++i) {
      const Clock::time_point t0 = Clock::now();
      std::size_t cone = 0;
      int its = 0;
      const bool ok = eco_op(ctx, s, edits_rng, check_rng, op_id, &cone, &its);
      st.op_ms.push_back(ms_since(t0));
      sink.op(ok, "eco op " + std::to_string(op_id) + " diverged from a full SSTA");
      if (st.pass_s.empty()) {
        st.cone_gates_first_pass += static_cast<double>(cone);
        st.resize_its_first_pass += its;
        ++st.first_pass_ops;
      }
      ++op_id;
    }
    st.pass_s.push_back(ms_since(p0) / 1000.0);
  }
  return st;
}

void eco_layer_metrics(Context& ctx, const EcoStats& st) {
  Result& res = *ctx.result;
  res.set("ssta.incr_apply_ms", median(ctx.trace->durations("ssta.apply_edits")), "ms");
  res.set("ssta.incr_cone_gates", st.cone_gates_first_pass / st.first_pass_ops, "count");
  res.set("core.resize_ms", median(ctx.trace->durations("core.resize")), "ms");
  res.set("core.resize_iterations", st.resize_its_first_pass / st.first_pass_ops, "count");
}

}  // namespace

void run_eco_k2(Context& ctx) {
  Result& res = *ctx.result;
  std::unique_ptr<EcoState> s;
  res.set("setup_s",
          median_setup_seconds(ctx, 5, [&] { s = eco_setup(ctx); }), "s");

  const EcoStats st =
      eco_stream(ctx, *s, res, ctx.smoke ? kSmokeOps : kOpsPerPass, ctx.smoke ? 1 : kPasses);
  res.set("wall_s", median(st.pass_s), "s");
  res.set("op_ms.p50", quantile(st.op_ms, 0.50), "ms");
  res.set("op_ms.p99", quantile(st.op_ms, 0.99), "ms");
  double total_s = 0.0;
  for (const double p : st.pass_s) total_s += p;
  std::printf("# %zu passes of %d ECO ops; %.1f ops/s\n", st.pass_s.size(),
              ctx.smoke ? kSmokeOps : kOpsPerPass, static_cast<double>(st.op_ms.size()) / total_s);
  if (!ctx.traced()) return;

  eco_layer_metrics(ctx, st);
  // The set-up sizing is this workload's one Sizer::run row.
  res.set("core.iterations", s->initial.iterations, "count");
  res.set("core.outer_iterations", s->initial.outer_iterations, "count");
  res.set("core.ms_per_iter", s->initial.wall_seconds * 1000.0 / s->initial.iterations, "ms");
  res.set("runtime.jobs1_ratio.size", jobs1_ratio(ctx, s->circuit, s->row), "ratio");
}

void eco_layer_probe(Context& ctx) {
  std::unique_ptr<EcoState> s = eco_setup(ctx);
  Result probe;
  const EcoStats st = eco_stream(ctx, *s, probe, kSmokeOps, 1);
  ctx.result->check(probe.failed() == 0, "eco layer probe operations");
  eco_layer_metrics(ctx, st);
}

}  // namespace perfbench
