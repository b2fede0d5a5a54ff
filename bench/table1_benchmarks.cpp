// Reproduces the paper's Table 1: statistical sizing of the three benchmark
// circuits (apex1 / apex2 / k2 — synthetic structural stand-ins with the
// paper's cell counts, see DESIGN.md sec. 2) under seven objective /
// constraint combinations each:
//
//   1. min sum(S)                                (area-min range endpoint)
//   2. min mu
//   3. min mu + sigma
//   4. min mu + 3 sigma
//   5. min sum(S)  s.t. mu <= D
//   6. min sum(S)  s.t. mu + sigma <= D
//   7. min sum(S)  s.t. mu + 3 sigma <= D
//
// The paper's absolute delays (and its HP-K260 CPU times) are not
// reproducible — netlists and cell constants differ — so D is placed at the
// same *relative* position inside the achievable mean-delay range as the
// paper's choices (~45% up from the fastest sizing). The qualitative
// reproduction criteria are asserted at the bottom and recorded in
// EXPERIMENTS.md.
//
// STATSIZE_METHOD=full forces the paper's full-space NLP everywhere (warm-
// started from the reduced-space presolve, so 0.1-0.25 s per row on the two
// big circuits); default is full-space up to 300 gates.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/sizer.h"
#include "netlist/generators.h"

namespace {

using namespace statsize;

struct Row {
  std::string minimize;
  std::string constraint;
  core::SizingResult result;
  bool has_cpu = true;
};

Row run_case(const netlist::Circuit& c, const core::SizingSpec& spec, core::Method method) {
  Row row;
  row.minimize = spec.objective.description();
  row.constraint = spec.delay_constraint ? spec.delay_constraint->description() : "";
  core::SizerOptions opt;
  opt.method = method;
  row.result = core::Sizer(c, spec).run(opt);
  return row;
}

void print_rows(const char* name, int cells, const std::vector<Row>& rows) {
  std::printf("\n| %-6s | %5s | %-16s | %-22s | %8s | %7s | %8s | %-12s |\n", "name", "cells",
              "minimize", "constraint", "muTmax", "sigma", "sum S", "CPU");
  std::printf("|--------|-------|------------------|------------------------|----------|---------|----------|--------------|\n");
  bool first = true;
  for (const Row& r : rows) {
    std::printf("| %-6s | %5s | %-16s | %-22s | %8.2f | %7.3f | %8.1f | %-12s |%s\n",
                first ? name : "", first ? std::to_string(cells).c_str() : "",
                r.minimize.c_str(), r.constraint.c_str(), r.result.circuit_delay.mu,
                r.result.circuit_delay.sigma(), r.result.sum_speed,
                r.has_cpu ? bench::format_cpu(r.result.wall_seconds).c_str() : "",
                r.result.converged ? "" : "   <- not fully converged");
    first = false;
  }
}

void check(bool ok, const char* what, int& failures) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
  if (!ok) ++failures;
}

}  // namespace

int main() {
  std::printf("=== Table 1: statistical sizing of benchmark circuits ===\n");
  int failures = 0;

  for (const char* name : {"apex2", "apex1", "k2"}) {
    const netlist::Circuit c = netlist::make_mcnc_like(name);
    bench::print_workload(name, c);
    const core::Method method = bench::select_method(c);
    std::printf("# method: %s\n", bench::method_name(method));

    core::SizingSpec spec;
    const bench::MetricRange range = bench::metric_range(c, spec, 0.0);
    const double bound = range.at(0.45);

    std::vector<Row> rows;
    // Row 1: the area-min endpoint is the identity sizing (S = 1): report it
    // by evaluation, like the paper's first (CPU-less) entry per circuit.
    spec.objective = core::Objective::min_area();
    spec.delay_constraint.reset();
    rows.push_back(run_case(c, spec, method));
    rows.back().has_cpu = false;

    for (double k : {0.0, 1.0, 3.0}) {
      spec.objective = core::Objective::min_delay(k);
      spec.delay_constraint.reset();
      rows.push_back(run_case(c, spec, method));
    }
    for (double k : {0.0, 1.0, 3.0}) {
      spec.objective = core::Objective::min_area();
      spec.delay_constraint = core::DelayConstraint::at_most(bound, k);
      rows.push_back(run_case(c, spec, method));
    }
    print_rows(name, c.num_gates(), rows);

    // Qualitative reproduction criteria (paper Table 1 shape).
    const Row& r_area = rows[0];
    const Row& r_mu = rows[1];
    const Row& r_mu3 = rows[3];
    const Row& r_c0 = rows[4];
    const Row& r_c1 = rows[5];
    const Row& r_c3 = rows[6];
    std::printf("# criteria (%s):\n", name);
    check(r_mu.result.circuit_delay.mu < 0.75 * r_area.result.circuit_delay.mu,
          "min-mu sizing cuts mean delay by >25% vs area-min", failures);
    check(r_mu.result.sum_speed > 1.5 * r_area.result.sum_speed,
          "...paying with a large area increase", failures);
    check(r_mu3.result.circuit_delay.mu >= r_mu.result.circuit_delay.mu - 5e-3,
          "mu+3sigma objective concedes a little mean...", failures);
    check(r_mu3.result.circuit_delay.sigma() <= r_mu.result.circuit_delay.sigma() + 1e-5,
          "...to reduce sigma", failures);
    // The paper's Table 1 shows sum-S *decreasing* from min-mu to
    // min-mu+3sigma (1989 -> 1843 on apex1). That direction is not determined
    // by the objectives: gates off the critical paths have zero delay
    // gradient, so their sizes are optimizer-arbitrary "flat" directions and
    // the area column of the unconstrained rows is only defined up to them.
    // We check the well-defined part: the areas stay within 1%.
    check(r_mu3.result.sum_speed <= 1.01 * r_mu.result.sum_speed,
          "mu+3sigma solution uses essentially no more area than min-mu", failures);
    check(r_c0.result.circuit_delay.mu <= bound + 0.01, "mu <= D constraint met and active",
          failures);
    check(r_c1.result.sum_speed >= r_c0.result.sum_speed - 1e-3 &&
              r_c3.result.sum_speed >= r_c1.result.sum_speed - 1e-3,
          "tighter statistical constraints need monotonically more area", failures);
    check(r_c3.result.circuit_delay.mu < r_c0.result.circuit_delay.mu &&
              r_c3.result.circuit_delay.sigma() < r_c0.result.circuit_delay.sigma(),
          "3-sigma-constrained circuit is faster and tighter than mean-constrained",
          failures);
  }

  std::printf("\n%s\n", failures == 0 ? "TABLE 1 REPRODUCTION: all criteria hold"
                                      : "TABLE 1 REPRODUCTION: some criteria FAILED");
  return failures == 0 ? 0 : 1;
}
