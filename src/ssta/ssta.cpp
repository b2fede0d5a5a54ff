#include "ssta/ssta.h"

#include <algorithm>
#include <stdexcept>

#include "netlist/timing_view.h"
#include "stat/clark.h"

namespace statsize::ssta {

using netlist::NodeId;
using netlist::NodeKind;
using stat::NormalRV;

TimingReport run_ssta(const netlist::TimingView& view, const std::vector<NormalRV>& gate_delays,
                      const std::vector<NormalRV>& input_arrivals) {
  if (static_cast<int>(gate_delays.size()) != view.num_nodes()) {
    throw std::invalid_argument("gate_delays must be indexed by NodeId");
  }
  if (static_cast<int>(input_arrivals.size()) != view.num_inputs()) {
    throw std::invalid_argument(
        "input_arrivals must carry one entry per primary input (in topological "
        "input order)");
  }
  TimingReport report;
  report.arrival.resize(static_cast<std::size_t>(view.num_nodes()));

  // Primary inputs take their schedule time; ordinal = position among the
  // inputs in topological order.
  int pi_index = 0;
  for (NodeId id : view.topo_order()) {
    if (view.kind(id) == NodeKind::kPrimaryInput) {
      report.arrival[static_cast<std::size_t>(id)] =
          input_arrivals[static_cast<std::size_t>(pi_index++)];
    }
  }

  // U = statistical max over fanin arrivals (left fold of the pairwise
  // Clark max, exactly as eq. 18b), then T = U + t (eq. 4). At paper scale
  // one sweep is a fraction of a millisecond, so it runs serially: a pooled
  // level-by-level split costs more in dispatch than it saves (DESIGN.md §7).
  for (NodeId id : view.gates_in_topo_order()) {
    const netlist::NodeSpan fanins = view.fanins(id);
    NormalRV u = report.arrival[static_cast<std::size_t>(fanins[0])];
    for (std::size_t i = 1; i < fanins.size(); ++i) {
      u = stat::clark_max(u, report.arrival[static_cast<std::size_t>(fanins[i])]);
    }
    report.arrival[static_cast<std::size_t>(id)] =
        stat::add(u, gate_delays[static_cast<std::size_t>(id)]);
  }

  const std::vector<NodeId>& outs = view.outputs();
  NormalRV total = report.arrival[static_cast<std::size_t>(outs[0])];
  for (std::size_t i = 1; i < outs.size(); ++i) {
    total = stat::clark_max(total, report.arrival[static_cast<std::size_t>(outs[i])]);
  }
  report.circuit_delay = total;
  return report;
}

TimingReport run_ssta(const netlist::TimingView& view, const std::vector<NormalRV>& gate_delays,
                      NormalRV input_arrival) {
  const std::vector<NormalRV> arrivals(static_cast<std::size_t>(view.num_inputs()),
                                       input_arrival);
  return run_ssta(view, gate_delays, arrivals);
}

TimingReport run_ssta(const netlist::Circuit& circuit, const std::vector<NormalRV>& gate_delays,
                      const std::vector<NormalRV>& input_arrivals) {
  return run_ssta(circuit.view(), gate_delays, input_arrivals);
}

TimingReport run_ssta(const netlist::Circuit& circuit, const std::vector<NormalRV>& gate_delays,
                      NormalRV input_arrival) {
  const std::vector<NormalRV> arrivals(static_cast<std::size_t>(circuit.num_inputs()),
                                       input_arrival);
  return run_ssta(circuit.view(), gate_delays, arrivals);
}

TimingReport run_ssta(const DelayCalculator& calc, const std::vector<double>& speed) {
  return run_ssta(calc.view(), calc.all_delays(speed));
}

StaReport run_sta(const netlist::TimingView& view, const std::vector<NormalRV>& gate_delays,
                  Corner corner) {
  if (static_cast<int>(gate_delays.size()) != view.num_nodes()) {
    throw std::invalid_argument("gate_delays must be indexed by NodeId");
  }
  const double k = corner == Corner::kBest ? -3.0 : corner == Corner::kWorst ? 3.0 : 0.0;
  StaReport report;
  report.arrival.resize(static_cast<std::size_t>(view.num_nodes()), 0.0);
  for (NodeId id : view.gates_in_topo_order()) {
    const netlist::NodeSpan fanins = view.fanins(id);
    double u = report.arrival[static_cast<std::size_t>(fanins[0])];
    for (std::size_t i = 1; i < fanins.size(); ++i) {
      u = std::max(u, report.arrival[static_cast<std::size_t>(fanins[i])]);
    }
    report.arrival[static_cast<std::size_t>(id)] =
        u + gate_delays[static_cast<std::size_t>(id)].quantile_offset(k);
  }
  double total = 0.0;
  for (NodeId o : view.outputs()) {
    total = std::max(total, report.arrival[static_cast<std::size_t>(o)]);
  }
  report.circuit_delay = total;
  return report;
}

StaReport run_sta(const netlist::Circuit& circuit, const std::vector<NormalRV>& gate_delays,
                  Corner corner) {
  return run_sta(circuit.view(), gate_delays, corner);
}

}  // namespace statsize::ssta
