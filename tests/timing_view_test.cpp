// Tests for netlist::TimingView — the flat CSR compilation of a finalized
// Circuit that every hot sweep traverses (DESIGN.md §8).
//
// The contract under test is structural *and* numeric: the view's edge
// arrays, orders, and precomputed constants must mirror the Node path
// exactly (EXPECT_EQ on ids and on copied doubles, no tolerances), the
// compiled load_capacitance must be bit-identical to the historical Node
// walk, and compilation must reject non-finalized circuits and non-finite
// delay-model constants (the defect `statsize lint` flags as MOD005).

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "netlist/cell_library.h"
#include "netlist/circuit.h"
#include "netlist/generators.h"
#include "netlist/timing_view.h"

namespace {

using namespace statsize;
using netlist::CellLibrary;
using netlist::CellType;
using netlist::Circuit;
using netlist::NodeId;
using netlist::NodeKind;
using netlist::TimingView;

Circuit view_test_circuit(std::uint64_t seed, int gates = 120) {
  netlist::RandomDagParams p;
  p.num_gates = gates;
  p.num_inputs = 14;
  p.seed = seed;
  return make_random_dag(p);
}

TEST(TimingView, PackedArraysMirrorTheNodes) {
  const Circuit c = view_test_circuit(11);
  const TimingView& v = c.view();
  ASSERT_EQ(v.num_nodes(), c.num_nodes());
  EXPECT_EQ(v.num_gates(), c.num_gates());
  EXPECT_EQ(v.num_inputs(), c.num_inputs());
  for (NodeId id = 0; id < c.num_nodes(); ++id) {
    const netlist::Node& n = c.node(id);
    EXPECT_EQ(v.kind(id), n.kind);
    EXPECT_EQ(v.is_gate(id), n.kind == NodeKind::kGate);
    EXPECT_EQ(v.is_output(id), n.is_output);
    EXPECT_EQ(v.level(id), c.node_level(id));
    EXPECT_EQ(v.static_load(id), n.wire_load + (n.is_output ? n.pad_load : 0.0));
    if (n.kind == NodeKind::kGate) {
      const CellType& cell = c.library().cell(n.cell);
      EXPECT_EQ(v.cell(id), n.cell);
      EXPECT_EQ(v.function(id), cell.function);
      EXPECT_EQ(v.t_int(id), cell.t_int);
      EXPECT_EQ(v.drive_c(id), cell.c);
      EXPECT_EQ(v.c_in(id), cell.c_in);
      EXPECT_EQ(v.area(id), cell.area);
    } else {
      EXPECT_EQ(v.cell(id), -1);
    }
  }
}

TEST(TimingView, CsrEdgesPreserveNodeListOrder) {
  const Circuit c = view_test_circuit(12);
  const TimingView& v = c.view();
  for (NodeId id = 0; id < c.num_nodes(); ++id) {
    const netlist::Node& n = c.node(id);
    const netlist::NodeSpan fi = v.fanins(id);
    ASSERT_EQ(fi.size(), n.fanins.size());
    for (std::size_t k = 0; k < fi.size(); ++k) EXPECT_EQ(fi[k], n.fanins[k]);
    const netlist::NodeSpan fo = v.fanouts(id);
    const double* fo_cin = v.fanout_cin(id);
    ASSERT_EQ(fo.size(), n.fanouts.size());
    for (std::size_t k = 0; k < fo.size(); ++k) {
      EXPECT_EQ(fo[k], n.fanouts[k]);
      // The precomputed edge capacitance is a copy of the sink cell's c_in.
      EXPECT_EQ(fo_cin[k], c.library().cell(c.node(fo[k]).cell).c_in);
    }
  }
}

TEST(TimingView, TraversalViewsMatchCircuitOrders) {
  const Circuit c = view_test_circuit(13);
  const TimingView& v = c.view();
  EXPECT_EQ(v.topo_order(), c.topo_order());
  EXPECT_EQ(v.outputs(), c.outputs());

  std::vector<NodeId> gate_walk;
  for (NodeId id : c.topo_order()) {
    if (c.node(id).kind == NodeKind::kGate) gate_walk.push_back(id);
  }
  EXPECT_EQ(v.gates_in_topo_order(), gate_walk);

  const auto& levels = c.gate_levels();
  ASSERT_EQ(v.num_levels(), static_cast<int>(levels.size()));
  for (int l = 0; l < v.num_levels(); ++l) {
    const netlist::NodeSpan lvl = v.level_gates(l);
    ASSERT_EQ(lvl.size(), levels[static_cast<std::size_t>(l)].size());
    for (std::size_t k = 0; k < lvl.size(); ++k) {
      EXPECT_EQ(lvl[k], levels[static_cast<std::size_t>(l)][k]);
    }
  }
}

TEST(TimingView, LevelGatesRespectDependenciesAndCoverAllGates) {
  // The level partition the adjoint sweeps and the ECO worklists rely on:
  // every fanin sits at a strictly lower level, and the levels tile the gates.
  netlist::RandomDagParams p;
  p.num_gates = 400;
  p.num_inputs = 24;
  p.depth = 12;
  p.seed = 7;
  const Circuit c = make_random_dag(p);
  const TimingView& v = c.view();
  EXPECT_EQ(v.num_levels(), c.depth());
  int seen = 0;
  for (int l = 0; l < v.num_levels(); ++l) {
    for (NodeId id : v.level_gates(l)) {
      EXPECT_EQ(c.node_level(id), l + 1);
      for (NodeId f : c.node(id).fanins) {
        EXPECT_LT(c.node_level(f), l + 1) << "fanin at or after its sink's level";
      }
      ++seen;
    }
  }
  EXPECT_EQ(seen, c.num_gates());
}

TEST(TimingView, LevelGatesListEachGateExactlyOnce) {
  // A duplicate in one level and a gap in another would still add up to
  // num_gates(); count per node instead. Within a level the gates keep
  // topological order, which the adjoint's accumulation order depends on.
  netlist::RandomDagParams p;
  p.num_gates = 400;
  p.num_inputs = 24;
  p.depth = 12;
  p.seed = 11;
  const Circuit c = make_random_dag(p);
  const TimingView& v = c.view();
  std::vector<int> topo_pos(static_cast<std::size_t>(v.num_nodes()), -1);
  const std::vector<NodeId>& topo = v.topo_order();
  for (std::size_t i = 0; i < topo.size(); ++i) {
    topo_pos[static_cast<std::size_t>(topo[i])] = static_cast<int>(i);
  }
  std::vector<int> hits(static_cast<std::size_t>(v.num_nodes()), 0);
  for (int l = 0; l < v.num_levels(); ++l) {
    int last = -1;
    for (NodeId id : v.level_gates(l)) {
      ++hits[static_cast<std::size_t>(id)];
      EXPECT_GT(topo_pos[static_cast<std::size_t>(id)], last) << "level " << l;
      last = topo_pos[static_cast<std::size_t>(id)];
    }
  }
  for (NodeId id = 0; id < v.num_nodes(); ++id) {
    const int expect = c.node(id).kind == netlist::NodeKind::kGate ? 1 : 0;
    EXPECT_EQ(hits[static_cast<std::size_t>(id)], expect) << "node " << id;
  }
}

TEST(TimingView, LoadCapacitanceIsBitIdenticalToTheNodeWalk) {
  const Circuit c = view_test_circuit(14);
  const TimingView& v = c.view();
  std::vector<double> speed(static_cast<std::size_t>(c.num_nodes()));
  for (std::size_t i = 0; i < speed.size(); ++i) {
    speed[i] = 1.0 + 0.37 * static_cast<double>(i % 7);  // uneven, deterministic
  }
  for (NodeId id = 0; id < c.num_nodes(); ++id) {
    const netlist::Node& n = c.node(id);
    // The historical Node walk: static load plus sum of sink c_in * S.
    double ref = n.wire_load + (n.is_output ? n.pad_load : 0.0);
    for (NodeId fo : n.fanouts) {
      ref += c.library().cell(c.node(fo).cell).c_in * speed[static_cast<std::size_t>(fo)];
    }
    EXPECT_EQ(v.load_capacitance(id, speed.data()), ref) << "node " << id;
    EXPECT_EQ(c.load_capacitance(id, speed), ref) << "node " << id;
  }
}

TEST(TimingView, RequiresAFinalizedCircuit) {
  const CellLibrary& lib = CellLibrary::standard();
  Circuit c(lib);
  const NodeId a = c.add_input("a");
  const NodeId g = c.add_gate(lib.find("INV"), {a}, "g");
  c.mark_output(g, 1.0);
  EXPECT_THROW(TimingView v(c), std::logic_error);
  EXPECT_THROW(c.view(), std::runtime_error);
  c.finalize();
  EXPECT_NO_THROW(c.view());
}

TEST(TimingView, NonFiniteCellParameterFailsFinalizeAndRollsBack) {
  // CellLibrary::add rejects non-positive constants, but NaN slips through
  // every `<= 0` comparison — exactly the defect MOD005 lints for. The view
  // compilation is the enforcement backstop: finalize() must throw a named
  // invalid_argument and leave the circuit un-finalized (rollback), so a
  // caller cannot observe a half-built view.
  CellLibrary lib;
  CellType bad;
  bad.name = "INV_NAN";
  bad.num_inputs = 1;
  bad.c_in = std::numeric_limits<double>::quiet_NaN();
  bad.function = netlist::CellFunction::kInv;
  const int bad_id = lib.add(bad);
  Circuit c(lib);
  const NodeId a = c.add_input("a");
  const NodeId g = c.add_gate(bad_id, {a}, "g");
  c.mark_output(g, 1.0);
  try {
    c.finalize();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("INV_NAN"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("c_in"), std::string::npos) << e.what();
  }
  EXPECT_FALSE(c.finalized());
}

TEST(TimingView, NonFiniteWireLoadFailsFinalizeAndRollsBack) {
  const CellLibrary& lib = CellLibrary::standard();
  Circuit c(lib);
  const NodeId a = c.add_input("a");
  const NodeId g = c.add_gate(lib.find("INV"), {a}, "g");
  c.mark_output(g, 1.0);
  c.set_wire_load(g, std::numeric_limits<double>::quiet_NaN());
  try {
    c.finalize();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'g'"), std::string::npos) << e.what();
  }
  EXPECT_FALSE(c.finalized());
  // The defect is repairable: fixing the load makes finalize() succeed.
  c.set_wire_load(g, 0.5);
  EXPECT_NO_THROW(c.finalize());
  EXPECT_EQ(c.view().static_load(g), 0.5 + 1.0);
}

}  // namespace
