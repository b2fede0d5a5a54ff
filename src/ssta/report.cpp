#include "ssta/report.h"

#include <ostream>

#include "ssta/canonical.h"
#include "util/json.h"

namespace statsize::ssta {

using netlist::NodeId;
using netlist::NodeKind;

void write_json_report(std::ostream& out, const netlist::Circuit& circuit,
                       const DelayCalculator& calc, const std::vector<double>& speed,
                       const JsonReportOptions& options) {
  const auto delays = calc.all_delays(speed);
  const TimingReport timing = run_ssta(circuit, delays);
  const double deadline = options.deadline > 0.0
                              ? options.deadline
                              : timing.circuit_delay.quantile_offset(3.0);
  const SlackReport slacks = compute_slacks(circuit, delays, timing, deadline);

  util::JsonWriter w(out);
  w.begin_object();

  w.key("circuit").begin_object();
  const netlist::CircuitStats stats = netlist::compute_stats(circuit);
  w.key("gates").value(stats.num_gates);
  w.key("inputs").value(stats.num_inputs);
  w.key("outputs").value(stats.num_outputs);
  w.key("depth").value(stats.depth);
  w.end_object();

  w.key("sigma_model").begin_object();
  w.key("kappa").value(calc.sigma_model().kappa);
  w.key("offset").value(calc.sigma_model().offset);
  w.end_object();

  w.key("delay").begin_object();
  w.key("mu").value(timing.circuit_delay.mu);
  w.key("sigma").value(timing.circuit_delay.sigma());
  w.key("mu_plus_3sigma").value(timing.circuit_delay.quantile_offset(3.0));
  if (options.include_canonical) {
    const stat::NormalRV can = run_canonical_ssta(circuit, delays).circuit_delay_normal();
    w.key("canonical_mu").value(can.mu);
    w.key("canonical_sigma").value(can.sigma());
  }
  w.end_object();

  w.key("area").begin_object();
  w.key("sum_speed").value(DelayCalculator::total_speed(circuit, speed));
  w.key("weighted_area").value(DelayCalculator::total_area(circuit, speed));
  w.end_object();

  w.key("deadline").value(deadline);

  if (options.solve) {
    const SolveReport& s = *options.solve;
    w.key("solve").begin_object();
    w.key("status").value(s.status);
    w.key("converged").value(s.converged);
    w.key("iterations").value(s.iterations);
    w.key("outer_iterations").value(s.outer_iterations);
    w.key("evaluations").value(s.evaluations);
    w.key("wall_seconds").value(s.wall_seconds);
    w.key("resilience").begin_object();
    w.key("retries_used").value(s.retries_used);
    w.key("from_checkpoint").value(s.from_checkpoint);
    w.key("checkpoint_outer").value(s.checkpoint_outer);
    w.key("breakdown_site").value(s.breakdown_site);
    w.end_object();
    w.end_object();
  }

  w.key("critical_path").begin_array();
  for (NodeId id : extract_critical_path(circuit, timing)) {
    w.value(circuit.node(id).name);
  }
  w.end_array();

  if (options.include_per_node) {
    w.key("gates").begin_array();
    for (NodeId id : circuit.topo_order()) {
      const netlist::Node& n = circuit.node(id);
      if (n.kind != NodeKind::kGate) continue;
      const std::size_t i = static_cast<std::size_t>(id);
      w.begin_object();
      w.key("name").value(n.name);
      w.key("cell").value(circuit.cell_of(id).name);
      w.key("speed").value(speed[i]);
      w.key("arrival_mu").value(timing.arrival[i].mu);
      w.key("arrival_sigma").value(timing.arrival[i].sigma());
      w.key("slack_mu").value(slacks.slack[i].mu);
      w.key("meet_probability").value(slacks.meet_probability(id));
      w.end_object();
    }
    w.end_array();
  }

  w.end_object();
}

}  // namespace statsize::ssta
