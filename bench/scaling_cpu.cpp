// E7 — the scalability trend behind Table 1's CPU column ("the method is
// able to deal with circuits of up to a few thousand gates"). Three sections:
//
//   1. Circuit-size sweep: solves min-mu sizing at increasing gate counts and
//      reports wall time for both methods (the full-space NLP is capped at
//      300 gates by default; STATSIZE_METHOD=full lifts that to reproduce the
//      paper's hours-scale behaviour).
//   2. Thread-scaling sweep: SSTA propagation and Monte Carlo on the largest
//      DAG across --jobs 1/2/4/hw, with a determinism cross-check (parallel
//      results must be bit-identical to 1-thread results; see DESIGN.md §7).
//   3. Serial-island sweep: AugLagModel::hess_vec and the reduced-space
//      adjoint gradient on a k2-scale DAG across the same thread counts —
//      the two kernels that used to run single-threaded, now parallel via
//      ScatterPlan with the same exact-equality determinism contract.
//   4. TimingView sweep: the historical per-Node pointer walk vs the flat CSR
//      view path (DESIGN.md §8) for delay evaluation, SSTA, and corner STA at
//      one thread — a pure memory-layout comparison whose results must be
//      bit-identical (the view copies the same doubles and keeps every fold
//      order), so any mismatch hard-fails the benchmark.
//   5. Granularity advisor: the pre-solve audit's static per-level
//      serial/parallel decision table and cutoff on the k2-scale DAG, then
//      SSTA timed with the cutoff off vs applied (bit-identical by contract,
//      re-verified here).
//
// Machine-readable results go to BENCH_scaling.json via bench::JsonArtifact.
// STATSIZE_SCALING_SECTIONS=sizing,threads,serial_islands,timing_view,granularity
// (comma-separated) restricts the run to the named sections; unset runs all.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "analyze/graph_audit.h"
#include "bench_util.h"
#include "core/full_space.h"
#include "core/reduced_space.h"
#include "core/sizer.h"
#include "netlist/generators.h"
#include "nlp/auglag.h"
#include "runtime/runtime.h"
#include "ssta/monte_carlo.h"
#include "ssta/ssta.h"
#include "stat/clark.h"

namespace {

using namespace statsize;

netlist::Circuit scaling_dag(int gates) {
  netlist::RandomDagParams p;
  p.num_gates = gates;
  p.num_inputs = 16 + gates / 20;
  p.depth = 8 + gates / 80;
  p.seed = 1000 + static_cast<std::uint64_t>(gates);
  return netlist::make_random_dag(p);
}

double wall_ms(const std::function<void()>& fn, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

bool reports_equal(const ssta::TimingReport& a, const ssta::TimingReport& b) {
  if (a.arrival.size() != b.arrival.size()) return false;
  for (std::size_t i = 0; i < a.arrival.size(); ++i) {
    if (a.arrival[i].mu != b.arrival[i].mu || a.arrival[i].var != b.arrival[i].var) return false;
  }
  return a.circuit_delay.mu == b.circuit_delay.mu && a.circuit_delay.var == b.circuit_delay.var;
}

/// Section filter: STATSIZE_SCALING_SECTIONS=threads,serial_islands runs only
/// those sections (comma-separated; unset/empty = all). Lets the check.sh
/// scaling smoke gate exercise the bit-identity cross-checks without paying
/// for the sizing solves.
bool section_enabled(const char* name) {
  const char* env = std::getenv("STATSIZE_SCALING_SECTIONS");
  if (env == nullptr || env[0] == '\0') return true;
  const std::string list(env);
  const std::string needle(name);
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    if (list.compare(pos, comma - pos, needle) == 0) return true;
    pos = comma + 1;
  }
  return false;
}

}  // namespace

int main() {
  std::printf("=== E7: CPU-time scaling of statistical sizing (min mu) ===\n\n");
  std::printf("%8s %8s | %12s %6s %6s %10s | %12s %10s\n", "gates", "depth", "reduced", "its",
              "evals", "mu", "full-space", "mu");

  const char* env = std::getenv("STATSIZE_METHOD");
  const bool force_full = env != nullptr && std::string(env) == "full";

  bench::JsonArtifact artifact("scaling");
  int failures = 0;
  if (section_enabled("sizing")) {
  for (int gates : {50, 100, 200, 400, 800, 1600}) {
    const netlist::Circuit c = scaling_dag(gates);

    core::SizingSpec spec;
    spec.objective = core::Objective::min_delay(0.0);

    core::SizerOptions ro;
    ro.method = core::Method::kReducedSpace;
    const core::SizingResult rr = core::Sizer(c, spec).run(ro);
    artifact.add_row()
        .field("section", "sizing")
        .field("gates", gates)
        .field("depth", c.depth())
        .field("method", "reduced")
        .field("wall_ms", rr.wall_seconds * 1e3)
        .field("iterations", rr.iterations)
        .field("evaluations", rr.evaluations)
        .field("mu", rr.circuit_delay.mu);

    std::string fs_time = "(skipped)";
    std::string fs_mu = "";
    if (gates <= 300 || force_full) {
      core::SizerOptions fo;
      fo.method = core::Method::kFullSpace;
      const core::SizingResult rf = core::Sizer(c, spec).run(fo);
      fs_time = bench::format_cpu(rf.wall_seconds);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", rf.circuit_delay.mu);
      fs_mu = buf;
      artifact.add_row()
          .field("section", "sizing")
          .field("gates", gates)
          .field("depth", c.depth())
          .field("method", "full-space")
          .field("wall_ms", rf.wall_seconds * 1e3)
          .field("mu", rf.circuit_delay.mu);
      if (rf.circuit_delay.mu > rr.circuit_delay.mu * 1.01) {
        std::printf("  [FAIL] full-space clearly worse than reduced at %d gates\n", gates);
        ++failures;
      }
    }
    std::printf("%8d %8d | %12s %6d %6d %10.2f | %12s %10s\n", gates, c.depth(),
                bench::format_cpu(rr.wall_seconds).c_str(), rr.iterations, rr.evaluations,
                rr.circuit_delay.mu, fs_time.c_str(), fs_mu.c_str());
  }
  }  // section "sizing"

  // ---- Thread scaling: analysis kernels on the largest DAG.
  const int hw = runtime::hardware_threads();
  std::vector<int> thread_counts = {1, 2, 4, hw};
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(std::unique(thread_counts.begin(), thread_counts.end()),
                      thread_counts.end());

  if (section_enabled("threads")) {
  std::printf("\n--- thread scaling (1600-gate DAG, %d hardware threads) ---\n", hw);
  std::printf("%8s | %12s %8s | %12s %8s | %s\n", "threads", "ssta ms", "speedup", "mc ms",
              "speedup", "deterministic");

  const netlist::Circuit big = scaling_dag(1600);
  const ssta::DelayCalculator calc(big, {});
  const std::vector<double> speed(static_cast<std::size_t>(big.num_nodes()), 1.0);
  const auto delays = calc.all_delays(speed);
  ssta::MonteCarloOptions mco;
  mco.num_samples = 20000;
  mco.seed = 7;

  runtime::set_threads(1);
  const ssta::TimingReport ssta_ref = ssta::run_ssta(big, delays);
  const ssta::MonteCarloResult mc_ref = ssta::run_monte_carlo(big, delays, mco);
  double ssta_ms1 = 0.0;
  double mc_ms1 = 0.0;
  double mc_ms4 = 0.0;
  bool any_slower = false;
  for (const int t : thread_counts) {
    runtime::set_threads(t);
    const bool det = reports_equal(ssta::run_ssta(big, delays), ssta_ref) &&
                     ssta::run_monte_carlo(big, delays, mco).samples == mc_ref.samples;
    if (!det) {
      std::printf("  [FAIL] results at %d threads differ from the 1-thread reference\n", t);
      ++failures;
    }
    const double ssta_ms = wall_ms([&] { ssta::run_ssta(big, delays); }, 5);
    const double mc_ms = wall_ms([&] { ssta::run_monte_carlo(big, delays, mco); }, 3);
    if (t == 1) {
      ssta_ms1 = ssta_ms;
      mc_ms1 = mc_ms;
    }
    if (t == 4) mc_ms4 = mc_ms;
    if (t > 1 && (ssta_ms > ssta_ms1 * 1.05 || mc_ms > mc_ms1 * 1.05)) any_slower = true;
    std::printf("%8d | %12.3f %7.2fx | %12.3f %7.2fx | %s\n", t, ssta_ms, ssta_ms1 / ssta_ms,
                mc_ms, mc_ms1 / mc_ms, det ? "yes" : "NO");
    artifact.add_row()
        .field("section", "threads")
        .field("gates", big.num_gates())
        .field("threads", t)
        .field("ssta_wall_ms", ssta_ms)
        .field("ssta_speedup", ssta_ms > 0.0 ? ssta_ms1 / ssta_ms : 0.0)
        .field("mc_wall_ms", mc_ms)
        .field("mc_speedup", mc_ms > 0.0 ? mc_ms1 / mc_ms : 0.0)
        .field("mc_samples", mco.num_samples)
        .field("deterministic", det ? "yes" : "no");
  }
  runtime::set_threads(1);

  // Speedup is advisory: a warning on capable hardware, never a failure on
  // boxes (CI containers) that expose too few cores to show scaling.
  if (hw >= 4) {
    if (mc_ms4 > 0.0 && mc_ms4 > 0.5 * mc_ms1) {
      std::printf("  [WARN] Monte Carlo speedup below 2x at 4 threads on this machine\n");
    }
    if (any_slower) {
      std::printf("  [WARN] a parallel run was slower than its 1-thread fallback\n");
    }
  } else {
    std::printf("  [note] only %d hardware thread(s): speedup cannot be demonstrated here\n", hw);
  }
  }  // section "threads"

  // ---- Serial-island scaling: hess_vec and the adjoint gradient sweep on a
  // k2-scale circuit (the larger Table 1 benchmarks run ~1700 gates). The
  // circuit itself is shared with the timing_view and granularity sections.
  const netlist::Circuit k2 = scaling_dag(1692);

  if (section_enabled("serial_islands")) {
  std::printf("\n--- hess_vec / adjoint scaling (%d-gate DAG) ---\n", k2.num_gates());
  std::printf("%8s | %12s %8s | %12s %8s | %s\n", "threads", "hessvec ms", "speedup",
              "adjoint ms", "speedup", "deterministic");

  core::SizingSpec island_spec;
  island_spec.objective = core::Objective::min_delay(0.0);
  const std::vector<double> ones(static_cast<std::size_t>(k2.num_nodes()), 1.0);
  const core::FullSpaceFormulation form = core::build_full_space(k2, island_spec, ones);
  const nlp::Problem& prob = *form.problem;
  const std::vector<double> mult(static_cast<std::size_t>(prob.num_constraints()), 0.25);
  const std::vector<double> x = prob.start();
  std::vector<double> v(static_cast<std::size_t>(prob.num_vars()));
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = std::sin(0.37 * static_cast<double>(i)) + 0.1;
  }

  runtime::set_threads(1);
  nlp::AugLagModel model(prob, mult, 10.0);
  std::vector<double> scratch_grad;
  model.eval(x, &scratch_grad);  // snapshot the element Hessians at x
  std::vector<double> hv_ref;
  model.hess_vec(v, hv_ref);
  const core::ReducedEvaluator red(k2, island_spec.sigma_model);
  std::vector<double> grad_ref;
  const stat::NormalRV t_ref = red.eval_with_grad(ones, 1.0, 0.5, grad_ref);

  double hv_ms1 = 0.0;
  double adj_ms1 = 0.0;
  double hv_ms4 = 0.0;
  double adj_ms4 = 0.0;
  for (const int t : thread_counts) {
    runtime::set_threads(t);
    std::vector<double> hv;
    model.hess_vec(v, hv);
    std::vector<double> grad;
    const stat::NormalRV tr = red.eval_with_grad(ones, 1.0, 0.5, grad);
    const bool det =
        hv == hv_ref && grad == grad_ref && tr.mu == t_ref.mu && tr.var == t_ref.var;
    if (!det) {
      std::printf("  [FAIL] hess_vec/adjoint at %d threads differ from 1-thread reference\n", t);
      ++failures;
    }
    std::vector<double> hv_scratch;
    std::vector<double> grad_scratch;
    const double hv_ms = wall_ms([&] { model.hess_vec(v, hv_scratch); }, 5);
    const double adj_ms =
        wall_ms([&] { red.eval_with_grad(ones, 1.0, 0.5, grad_scratch); }, 5);
    if (t == 1) {
      hv_ms1 = hv_ms;
      adj_ms1 = adj_ms;
    }
    if (t == 4) {
      hv_ms4 = hv_ms;
      adj_ms4 = adj_ms;
    }
    std::printf("%8d | %12.3f %7.2fx | %12.3f %7.2fx | %s\n", t, hv_ms, hv_ms1 / hv_ms, adj_ms,
                adj_ms1 / adj_ms, det ? "yes" : "NO");
    artifact.add_row()
        .field("section", "serial_islands")
        .field("gates", k2.num_gates())
        .field("threads", t)
        .field("hess_vec_wall_ms", hv_ms)
        .field("hess_vec_speedup", hv_ms > 0.0 ? hv_ms1 / hv_ms : 0.0)
        .field("adjoint_wall_ms", adj_ms)
        .field("adjoint_speedup", adj_ms > 0.0 ? adj_ms1 / adj_ms : 0.0)
        .field("deterministic", det ? "yes" : "no");
  }
  runtime::set_threads(1);

  // Advisory like the Monte Carlo check above: demand >1.5x at 4 threads
  // only where the hardware can actually show it.
  if (hw >= 4) {
    if (hv_ms4 > 0.0 && hv_ms1 / hv_ms4 < 1.5) {
      std::printf("  [WARN] hess_vec speedup below 1.5x at 4 threads on this machine\n");
    }
    if (adj_ms4 > 0.0 && adj_ms1 / adj_ms4 < 1.5) {
      std::printf("  [WARN] adjoint speedup below 1.5x at 4 threads on this machine\n");
    }
  } else {
    std::printf("  [note] only %d hardware thread(s): speedup cannot be demonstrated here\n", hw);
  }
  }  // section "serial_islands"

  // Shared by the timing_view and granularity sections below.
  const ssta::SigmaModel sm{};
  const ssta::DelayCalculator k2_calc(k2, sm);
  std::vector<double> sp(static_cast<std::size_t>(k2.num_nodes()));
  for (std::size_t i = 0; i < sp.size(); ++i) {
    sp[i] = 1.0 + 0.21 * static_cast<double>(i % 9);  // uneven, deterministic
  }

  if (section_enabled("timing_view")) {
  // ---- TimingView retarget: Node walk vs flat CSR view, single-threaded so
  // the comparison is purely about memory layout. The references below are
  // the pre-view traversals kept alive here as a yardstick; results must be
  // bit-identical because the view stores copies of the same doubles and the
  // production sweeps kept every fold order.
  std::printf("\n--- timing_view: Node walk vs CSR view (%d-gate DAG, 1 thread) ---\n",
              k2.num_gates());
  std::printf("%10s | %12s %12s %8s | %s\n", "sweep", "node ms", "view ms", "speedup",
              "identical");
  runtime::set_threads(1);

  auto node_all_delays = [&](std::vector<stat::NormalRV>& out) {
    out.assign(static_cast<std::size_t>(k2.num_nodes()), stat::NormalRV{});
    for (const netlist::NodeId id : k2.topo_order()) {
      const netlist::Node& n = k2.node(id);
      if (n.kind != netlist::NodeKind::kGate) continue;
      const netlist::CellType& cell = k2.library().cell(n.cell);
      double load = n.wire_load + (n.is_output ? n.pad_load : 0.0);
      for (const netlist::NodeId fo : n.fanouts) {
        load += k2.library().cell(k2.node(fo).cell).c_in * sp[static_cast<std::size_t>(fo)];
      }
      const double mu = cell.t_int + cell.c * load / sp[static_cast<std::size_t>(id)];
      out[static_cast<std::size_t>(id)] = stat::NormalRV::from_sigma(mu, sm.sigma(mu));
    }
  };
  auto node_ssta = [&](const std::vector<stat::NormalRV>& d, std::vector<stat::NormalRV>& arr) {
    arr.assign(static_cast<std::size_t>(k2.num_nodes()), stat::NormalRV{});
    for (const netlist::NodeId id : k2.topo_order()) {
      const netlist::Node& n = k2.node(id);
      if (n.kind == netlist::NodeKind::kPrimaryInput) continue;
      stat::NormalRV u = arr[static_cast<std::size_t>(n.fanins[0])];
      for (std::size_t i = 1; i < n.fanins.size(); ++i) {
        u = stat::clark_max(u, arr[static_cast<std::size_t>(n.fanins[i])]);
      }
      arr[static_cast<std::size_t>(id)] = stat::add(u, d[static_cast<std::size_t>(id)]);
    }
  };
  auto node_sta = [&](const std::vector<stat::NormalRV>& d, std::vector<double>& arr) {
    arr.assign(static_cast<std::size_t>(k2.num_nodes()), 0.0);
    for (const netlist::NodeId id : k2.topo_order()) {
      const netlist::Node& n = k2.node(id);
      if (n.kind == netlist::NodeKind::kPrimaryInput) continue;
      double u = arr[static_cast<std::size_t>(n.fanins[0])];
      for (std::size_t i = 1; i < n.fanins.size(); ++i) {
        u = std::max(u, arr[static_cast<std::size_t>(n.fanins[i])]);
      }
      arr[static_cast<std::size_t>(id)] = u + d[static_cast<std::size_t>(id)].quantile_offset(3.0);
    }
  };

  std::vector<stat::NormalRV> node_delays;
  node_all_delays(node_delays);
  const std::vector<stat::NormalRV> view_delays = k2_calc.all_delays(sp);
  bool delays_same = node_delays.size() == view_delays.size();
  for (std::size_t i = 0; delays_same && i < node_delays.size(); ++i) {
    delays_same = node_delays[i].mu == view_delays[i].mu &&
                  node_delays[i].var == view_delays[i].var;
  }

  std::vector<stat::NormalRV> node_arr;
  node_ssta(view_delays, node_arr);
  const ssta::TimingReport view_ssta = ssta::run_ssta(k2, view_delays);
  bool ssta_same = node_arr.size() == view_ssta.arrival.size();
  for (std::size_t i = 0; ssta_same && i < node_arr.size(); ++i) {
    ssta_same = node_arr[i].mu == view_ssta.arrival[i].mu &&
                node_arr[i].var == view_ssta.arrival[i].var;
  }

  std::vector<double> node_arr_sta;
  node_sta(view_delays, node_arr_sta);
  const ssta::StaReport view_sta = ssta::run_sta(k2, view_delays, ssta::Corner::kWorst);
  const bool sta_same = node_arr_sta == view_sta.arrival;

  struct ViewSweep {
    const char* name;
    bool identical;
    std::function<void()> node_fn;
    std::function<void()> view_fn;
  };
  std::vector<stat::NormalRV> rv_scratch;
  std::vector<double> d_scratch;
  const ViewSweep sweeps[] = {
      {"delays", delays_same, [&] { node_all_delays(rv_scratch); },
       [&] { k2_calc.all_delays(sp); }},
      {"ssta", ssta_same, [&] { node_ssta(view_delays, rv_scratch); },
       [&] { ssta::run_ssta(k2, view_delays); }},
      {"sta", sta_same, [&] { node_sta(view_delays, d_scratch); },
       [&] { ssta::run_sta(k2, view_delays, ssta::Corner::kWorst); }},
  };
  for (const ViewSweep& s : sweeps) {
    if (!s.identical) {
      std::printf("  [FAIL] %s: view path differs from the Node-walk reference\n", s.name);
      ++failures;
    }
    const double node_ms = wall_ms(s.node_fn, 5);
    const double view_ms = wall_ms(s.view_fn, 5);
    std::printf("%10s | %12.3f %12.3f %7.2fx | %s\n", s.name, node_ms, view_ms,
                node_ms / view_ms, s.identical ? "yes" : "NO");
    artifact.add_row()
        .field("section", "timing_view")
        .field("gates", k2.num_gates())
        .field("sweep", s.name)
        .field("node_ms", node_ms)
        .field("view_ms", view_ms)
        .field("identical", s.identical ? "yes" : "no");
  }
  }  // section "timing_view"

  if (section_enabled("granularity")) {
  // ---- Granularity advisor: the pre-solve audit's static serial-cutoff
  // decision on the same k2-scale DAG, then SSTA timed with the cutoff off
  // (every level offered to the pool) versus applied. The cutoff is a pure
  // wall-clock lever — the determinism contract makes serial and pooled level
  // execution bit-identical, and that is re-verified here.
  const int adv_threads = std::max(2, std::min(4, hw));
  analyze::GranularityCostModel cost;
  cost.threads = adv_threads;
  const netlist::TimingViewStats k2_stats = netlist::compute_view_stats(k2.view());
  const analyze::GranularityAdvice advice =
      analyze::advise_granularity(k2_stats.level_widths, cost);
  std::printf("\n--- granularity advisor (%d-gate DAG, cost model at %d threads) ---\n",
              k2.num_gates(), adv_threads);
  std::printf("serial cutoff: width < %zu | %d of %zu levels advised serial "
              "(%.1f%% of gates) | modeled: naive %.0f ns, advised %.0f ns\n",
              advice.serial_cutoff, advice.serial_levels, advice.levels.size(),
              100.0 * advice.serial_gate_fraction, advice.est_naive_parallel_ns,
              advice.est_advised_ns);
  artifact.add_row()
      .field("section", "granularity_advisor")
      .field("gates", k2.num_gates())
      .field("threads", adv_threads)
      .field("chunk_dispatch_ns", cost.chunk_dispatch_ns)
      .field("gate_cost_ns", cost.gate_cost_ns)
      .field("serial_cutoff", static_cast<int>(advice.serial_cutoff))
      .field("levels", static_cast<int>(advice.levels.size()))
      .field("serial_levels", advice.serial_levels)
      .field("serial_gate_fraction", advice.serial_gate_fraction)
      .field("est_naive_parallel_ns", advice.est_naive_parallel_ns)
      .field("est_advised_ns", advice.est_advised_ns);
  for (const analyze::LevelDecision& d : advice.levels) {
    artifact.add_row()
        .field("section", "granularity_levels")
        .field("level", d.level)
        .field("width", static_cast<int>(d.width))
        .field("advised", d.parallel ? "parallel" : "serial")
        .field("serial_ns", d.serial_ns)
        .field("parallel_ns", d.parallel_ns);
  }

  const std::vector<stat::NormalRV> k2_delays = k2_calc.all_delays(sp);
  runtime::set_threads(adv_threads);
  const std::size_t saved_cutoff = runtime::level_serial_cutoff();
  runtime::set_level_serial_cutoff(0);
  const ssta::TimingReport cutoff_ref = ssta::run_ssta(k2, k2_delays);
  const double naive_ms = wall_ms([&] { ssta::run_ssta(k2, k2_delays); }, 5);
  runtime::set_level_serial_cutoff(advice.serial_cutoff);
  const bool cutoff_det = reports_equal(ssta::run_ssta(k2, k2_delays), cutoff_ref);
  const double advised_ms = wall_ms([&] { ssta::run_ssta(k2, k2_delays); }, 5);
  runtime::set_level_serial_cutoff(saved_cutoff);
  runtime::set_threads(1);
  if (!cutoff_det) {
    std::printf("  [FAIL] SSTA with the advised cutoff differs from cutoff-0 results\n");
    ++failures;
  }
  std::printf("ssta at %d threads: cutoff 0 %.3f ms, advised cutoff %.3f ms (%.2fx) | %s\n",
              adv_threads, naive_ms, advised_ms, naive_ms / advised_ms,
              cutoff_det ? "deterministic" : "NOT DETERMINISTIC");
  artifact.add_row()
      .field("section", "granularity_ssta")
      .field("gates", k2.num_gates())
      .field("threads", adv_threads)
      .field("cutoff0_wall_ms", naive_ms)
      .field("advised_wall_ms", advised_ms)
      .field("serial_cutoff", static_cast<int>(advice.serial_cutoff))
      .field("deterministic", cutoff_det ? "yes" : "no");
  }  // section "granularity"

  artifact.write();
  std::printf("\nE7 SCALING: %s\n", failures == 0 ? "completed (trend recorded above)"
                                                  : "FAILURES detected");
  return failures == 0 ? 0 : 1;
}
