// perfbench: the statsize benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--work-dir <dir>] [--source-id <id>]
//   perfbench --selftest-fault
//
// Prints host/build metadata, progress lines, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics when untraced, the per-layer metrics when traced. Exits non-zero,
// without a result line, when the run cannot complete.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "netlist/generators.h"
#include "runtime/runtime.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The names BENCHMARK.json lists; every run prints exactly one of the lists.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},   {"peak_rss_mb", "MB"}, {"wall_s", "s"},
    {"op_ms.p50", "ms"}, {"op_ms.p99", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"stat.clark_max_ns", "ns"},
    {"stat.clark_full_ns", "ns"},
    {"netlist.build_ms", "ms"},
    {"netlist.blif_parse_ms", "ms"},
    {"ssta.sweep_ms", "ms"},
    {"ssta.mc_ms", "ms"},
    {"ssta.incr_apply_ms", "ms"},
    {"ssta.incr_cone_gates", "count"},
    {"core.fwd_ms", "ms"},
    {"core.fwd_adj_ms", "ms"},
    {"core.iterations", "count"},
    {"core.outer_iterations", "count"},
    {"core.ms_per_iter", "ms"},
    {"core.sweep_equiv_per_iter", "ratio"},
    {"core.full_space_build_ms", "ms"},
    {"core.resize_ms", "ms"},
    {"core.resize_iterations", "count"},
    {"nlp.lbfgs.evals_per_iter", "count"},
    {"nlp.lbfgs.self_ms", "ms"},
    {"nlp.auglag.outer_ms", "ms"},
    {"nlp.auglag.inner_iterations", "count"},
    {"runtime.region_us", "us"},
    {"runtime.jobs1_ratio.size", "ratio"},
    {"runtime.jobs1_ratio.mc", "ratio"},
    {"serve.queue_wait_ms.p50", "ms"},
    {"serve.queue_wait_ms.p99", "ms"},
    {"serve.run_ms.short", "ms"},
    {"serve.run_ms.long", "ms"},
    {"serve.overhead_ms.p50", "ms"},
    {"serve.polls_per_job", "count"},
    {"serve.long_ms.p50", "ms"},
    {"serve.long_ms.p90", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.journal_records_per_job", "count"},
    {"serve.rejected_ratio", "ratio"},
    {"harness.gen_late_ms.p99", "ms"},
    {"harness.trace_overhead", "ratio"},
};

struct Workload {
  const char* name;
  void (*run)(Context&);
  const char* circuit;        ///< what the layer probes run on
  const char* sized_circuit;  ///< what core.ms_per_iter was measured on
};

constexpr Workload kWorkloads[] = {
    {"size_reduced_k2", run_size_reduced_k2, "k2", "k2"},
    {"size_full_apex2", run_size_full_apex2, "apex2", "apex2"},
    {"eco_k2", run_eco_k2, "k2", "k2"},
    {"serve_mixed", run_serve_mixed, "k2", "apex2"},
};

/// Library threads during a run. At the library default (every hardware
/// thread) the k2 and apex2 solves on a 4-core host run up to 2x slower than
/// on one thread and spread 0.3-0.7 (IQR / median over five seeds) from run
/// to run, more than any bound may allow; the default's cost is measured per
/// layer instead (runtime.jobs1_ratio.*).
constexpr int kRunThreads = 1;

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--work-dir <dir>] [--source-id <id>]\n"
               "       perfbench --selftest-fault\n",
               error.c_str());
  std::exit(2);
}

/// Cost of recording one span (open + close), in ms.
double span_cost_ms() {
  constexpr int kSpans = 20000;
  Trace probe(true);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) probe.close(probe.open("probe", i));
  return ms_since(t0) / kSpans;
}

void print_result(const Result& result, const MetricSpec* specs, std::size_t count) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              result.correct() ? "true" : "false", result.attempted(), result.failed());
  for (std::size_t i = 0; i < count; ++i) {
    const Metric& m = result.metrics().at(specs[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                specs[i].name, m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, work_dir = ".bench_build/perfbench-work", source_id = "unknown";
  long long seed = -1;
  double seconds = -1.0;
  int trace_flag = -1;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") workload_name = value();
      else if (arg == "--seed") seed = std::stoll(value());
      else if (arg == "--seconds") seconds = std::stod(value());
      else if (arg == "--trace") trace_flag = std::stoi(value());
      else if (arg == "--smoke") smoke = true;
      else if (arg == "--work-dir") work_dir = value();
      else if (arg == "--source-id") source_id = value();
      else if (arg == "--selftest-fault") return selftest_fault();
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown workload '" + workload_name + "'");
  if (seed < 0) usage("--seed must be a non-negative integer");
  if (!(seconds > 0.0)) usage("--seconds must be positive");
  if (trace_flag != 0 && trace_flag != 1) usage("--trace must be 0 or 1");

  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  statsize::runtime::set_threads(kRunThreads);
  std::printf("# perfbench {\"workload\": \"%s\", \"seed\": %lld, \"seconds\": %g, \"trace\": %d, "
              "\"smoke\": %s, \"nproc\": %d, \"threads\": %d, \"build_type\": \"%s\", "
              "\"compiler\": \"%s\", \"source\": \"%s\"}\n",
              workload->name, seed, seconds, trace_flag, smoke ? "true" : "false",
              statsize::runtime::hardware_threads(), statsize::runtime::threads(),
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, source_id.c_str());
  std::fflush(stdout);

  Trace trace(trace_flag == 1);
  Result result;
  Context ctx;
  ctx.seed = static_cast<std::uint64_t>(seed);
  ctx.seconds = seconds;
  ctx.smoke = smoke;
  ctx.work_dir = work_dir;
  ctx.trace = &trace;
  ctx.result = &result;

  try {
    const Clock::time_point t0 = Clock::now();
    workload->run(ctx);
    const double workload_ms = ms_since(t0);
    if (ctx.traced()) {
      const std::size_t workload_spans = trace.size();
      layer_probes(ctx, workload->circuit);
      if (!result.has("ssta.incr_apply_ms")) eco_layer_probe(ctx);
      if (!result.has("serve.queue_wait_ms.p50")) serve_layer_probe(ctx);
      // An iteration's cost in forward+adjoint sweeps of the circuit it sized.
      const double sweep_ms =
          std::string(workload->sized_circuit) == workload->circuit
              ? result.metrics().at("core.fwd_adj_ms").value
              : fwd_adj_ms(ctx, statsize::netlist::make_mcnc_like(workload->sized_circuit));
      result.set("core.sweep_equiv_per_iter",
                 result.metrics().at("core.ms_per_iter").value / sweep_ms, "ratio");
      result.set("harness.trace_overhead",
                 static_cast<double>(workload_spans) * span_cost_ms() / workload_ms, "ratio");
      const std::string path = work_dir + "/trace-" + workload->name + "-seed" +
                               std::to_string(seed) + ".jsonl";
      if (trace.write(path)) std::printf("# spans: %s\n", path.c_str());
    } else {
      result.set("peak_rss_mb", peak_rss_mb(), "MB");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload->name, e.what());
    return 1;
  }

  const MetricSpec* specs = ctx.traced() ? kPerLayer : kEndToEnd;
  const std::size_t count = ctx.traced() ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = result.metrics().find(specs[i].name);
    if (it == result.metrics().end() || !std::isfinite(it->second.value) ||
        it->second.unit != specs[i].unit) {
      std::fprintf(stderr, "perfbench: metric %s missing, non-finite or mis-united\n",
                   specs[i].name);
      return 1;
    }
  }
  print_result(result, specs, count);
  return 0;
}
