#include "netlist/circuit.h"

#include <algorithm>
#include <stdexcept>

#include "analyze/circuit_lint.h"
#include "netlist/timing_view.h"

namespace statsize::netlist {

void Circuit::require_mutable(const char* operation) const {
  if (finalized_) throw FinalizedMutationError(operation);
}

void Circuit::require_finalized() const {
  if (!finalized_) throw std::runtime_error("circuit must be finalized first");
}

NodeId Circuit::add_input(std::string name) {
  require_mutable("add_input");
  Node n;
  n.kind = NodeKind::kPrimaryInput;
  n.name = name.empty() ? "pi" + std::to_string(num_inputs_) : std::move(name);
  nodes_.push_back(std::move(n));
  ++num_inputs_;
  return static_cast<NodeId>(nodes_.size()) - 1;
}

NodeId Circuit::add_gate(int cell, std::vector<NodeId> fanins, std::string name) {
  require_mutable("add_gate");
  const CellType& type = library_->cell(cell);  // throws on bad id
  if (static_cast<int>(fanins.size()) != type.num_inputs) {
    throw std::invalid_argument("gate " + name + ": cell " + type.name + " expects " +
                                std::to_string(type.num_inputs) + " fanins, got " +
                                std::to_string(fanins.size()));
  }
  const NodeId self = static_cast<NodeId>(nodes_.size());
  for (NodeId f : fanins) {
    if (f < 0 || f >= self) throw std::invalid_argument("fanin id out of range (forward ref?)");
  }
  Node n;
  n.kind = NodeKind::kGate;
  n.cell = cell;
  n.name = name.empty() ? "g" + std::to_string(num_gates_) : std::move(name);
  n.fanins = std::move(fanins);
  nodes_.push_back(std::move(n));
  ++num_gates_;
  return self;
}

NodeId Circuit::add_gate_deferred(int cell, std::string name) {
  require_mutable("add_gate_deferred");
  const CellType& type = library_->cell(cell);  // throws on bad id
  Node n;
  n.kind = NodeKind::kGate;
  n.cell = cell;
  n.name = name.empty() ? "g" + std::to_string(num_gates_) : std::move(name);
  n.fanins.assign(static_cast<std::size_t>(type.num_inputs), kInvalidNode);
  nodes_.push_back(std::move(n));
  ++num_gates_;
  return static_cast<NodeId>(nodes_.size()) - 1;
}

void Circuit::set_fanin(NodeId id, int pin, NodeId driver) {
  require_mutable("set_fanin");
  Node& n = nodes_.at(static_cast<std::size_t>(id));
  if (n.kind != NodeKind::kGate) {
    throw std::invalid_argument("set_fanin: node '" + n.name + "' is not a gate");
  }
  if (pin < 0 || pin >= static_cast<int>(n.fanins.size())) {
    throw std::invalid_argument("set_fanin: gate '" + n.name + "' has no pin " +
                                std::to_string(pin));
  }
  if (driver < 0 || driver >= static_cast<NodeId>(nodes_.size())) {
    throw std::invalid_argument("set_fanin: driver id " + std::to_string(driver) +
                                " out of range");
  }
  n.fanins[static_cast<std::size_t>(pin)] = driver;
}

void Circuit::mark_output(NodeId id, double pad_load) {
  require_mutable("mark_output");
  Node& n = nodes_.at(static_cast<std::size_t>(id));
  n.is_output = true;
  n.pad_load = pad_load;
  outputs_.push_back(id);
}

void Circuit::set_wire_load(NodeId id, double load) {
  require_mutable("set_wire_load");
  if (load < 0.0) throw std::invalid_argument("wire load must be non-negative");
  nodes_.at(static_cast<std::size_t>(id)).wire_load = load;
}

void Circuit::finalize() {
  require_mutable("finalize");

  // The structural analyzer performs all validation (pin wiring, pin counts,
  // acyclicity with cycle extraction, output reachability) and produces the
  // topological order; error-severity findings become one exception that
  // names every offending node.
  std::vector<NodeId> topo;
  const analyze::Report report = analyze::lint_circuit_structure(*this, &topo);
  if (report.has_errors()) {
    throw std::runtime_error("circuit validation failed:\n" + report.errors_text());
  }

  for (Node& n : nodes_) n.fanouts.clear();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (NodeId f : nodes_[i].fanins) {
      nodes_[static_cast<std::size_t>(f)].fanouts.push_back(static_cast<NodeId>(i));
    }
  }
  topo_ = std::move(topo);

  // Level partition (cached for the adjoint sweeps, the ECO worklists and
  // depth()): level(gate) = 1 + max level over fanins, inputs at level 0.
  node_level_.assign(nodes_.size(), 0);
  int max_level = 0;
  for (NodeId id : topo_) {
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    if (n.kind != NodeKind::kGate) continue;
    int lvl = 1;
    for (NodeId f : n.fanins) {
      lvl = std::max(lvl, node_level_[static_cast<std::size_t>(f)] + 1);
    }
    node_level_[static_cast<std::size_t>(id)] = lvl;
    max_level = std::max(max_level, lvl);
  }
  gate_levels_.assign(static_cast<std::size_t>(max_level), {});
  for (NodeId id : topo_) {
    if (nodes_[static_cast<std::size_t>(id)].kind != NodeKind::kGate) continue;
    gate_levels_[static_cast<std::size_t>(node_level_[static_cast<std::size_t>(id)] - 1)]
        .push_back(id);
  }

  // Compile the flat timing graph (the finalized flag must be set first —
  // the view reads through the require_finalized accessors). A failed
  // compile (non-finite cell constants/loads, see MOD005) leaves the
  // circuit un-finalized, never half-frozen.
  finalized_ = true;
  try {
    view_ = std::make_shared<const TimingView>(*this);
  } catch (...) {
    finalized_ = false;
    throw;
  }
}

const TimingView& Circuit::view() const {
  require_finalized();
  return *view_;
}

const std::vector<std::vector<NodeId>>& Circuit::gate_levels() const {
  require_finalized();
  return gate_levels_;
}

int Circuit::node_level(NodeId id) const {
  require_finalized();
  return node_level_.at(static_cast<std::size_t>(id));
}

const std::vector<NodeId>& Circuit::topo_order() const {
  require_finalized();
  return topo_;
}

double Circuit::load_capacitance(NodeId id, const std::vector<double>& speed) const {
  require_finalized();
  // Same edge order and arithmetic as the historical Node walk, through the
  // compiled per-edge capacitances — bit-identical, no library chasing.
  return view_->load_capacitance(id, speed.data());
}

int Circuit::depth() const {
  require_finalized();
  return static_cast<int>(gate_levels_.size());
}

CircuitStats compute_stats(const Circuit& circuit) {
  CircuitStats s;
  s.num_gates = circuit.num_gates();
  s.num_inputs = circuit.num_inputs();
  s.num_outputs = static_cast<int>(circuit.outputs().size());
  s.depth = circuit.depth();
  long fanin_sum = 0;
  long fanout_sum = 0;
  for (NodeId id : circuit.topo_order()) {
    const Node& n = circuit.node(id);
    if (n.kind == NodeKind::kGate) fanin_sum += static_cast<long>(n.fanins.size());
    fanout_sum += static_cast<long>(n.fanouts.size());
    s.max_fanout = std::max(s.max_fanout, static_cast<int>(n.fanouts.size()));
  }
  if (s.num_gates > 0) s.avg_fanin = static_cast<double>(fanin_sum) / s.num_gates;
  const int drivers = s.num_gates + s.num_inputs;
  if (drivers > 0) s.avg_fanout = static_cast<double>(fanout_sum) / drivers;
  return s;
}

Circuit clone_with_library(const Circuit& circuit, const CellLibrary& library) {
  if (library.size() < circuit.library().size()) {
    throw std::invalid_argument("replacement library is missing cells");
  }
  Circuit clone(library);
  // Copy in id order (NOT topo order — imported circuits may have a
  // non-identity topological order) so node ids survive; deferred
  // construction tolerates fanins that have not been copied yet.
  const int n = circuit.num_nodes();
  for (NodeId id = 0; id < n; ++id) {
    const Node& node = circuit.node(id);
    NodeId copied;
    if (node.kind == NodeKind::kPrimaryInput) {
      copied = clone.add_input(node.name);
    } else {
      copied = clone.add_gate_deferred(node.cell, node.name);
      clone.set_wire_load(copied, node.wire_load);
    }
    if (copied != id) throw std::logic_error("clone produced different node ids");
  }
  for (NodeId id = 0; id < n; ++id) {
    const Node& node = circuit.node(id);
    if (node.kind != NodeKind::kGate) continue;
    for (std::size_t pin = 0; pin < node.fanins.size(); ++pin) {
      clone.set_fanin(id, static_cast<int>(pin), node.fanins[pin]);
    }
  }
  for (NodeId id : circuit.outputs()) clone.mark_output(id, circuit.node(id).pad_load);
  clone.finalize();
  return clone;
}

}  // namespace statsize::netlist
