#include "ssta/monte_carlo.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/timing_view.h"
#include "runtime/runtime.h"
#include "stat/random.h"

namespace statsize::ssta {

using netlist::NodeId;
using netlist::NodeKind;

double MonteCarloResult::quantile(double p) const {
  if (samples.empty()) throw std::runtime_error("no samples");
  if (!(p >= 0.0 && p <= 1.0)) {
    // A negative index would wrap through the size_t cast into an
    // out-of-bounds read; reject NaN too (it fails both comparisons).
    throw std::invalid_argument("MonteCarloResult::quantile: p = " + std::to_string(p) +
                                " is outside [0, 1]");
  }
  const double idx = p * (static_cast<double>(samples.size()) - 1.0);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double MonteCarloResult::yield(double deadline) const {
  if (samples.empty()) throw std::runtime_error("no samples");
  const auto it = std::upper_bound(samples.begin(), samples.end(), deadline);
  return static_cast<double>(it - samples.begin()) / static_cast<double>(samples.size());
}

namespace {

/// Samples are drawn in fixed chunks of kChunkSamples trials; chunk i draws
/// from its own stat::NormalStream seeded with stat::stream_seed(seed, i). The
/// chunk partition depends only on the sample count, chunks write to disjoint
/// sample slots, and per-chunk moment partials are combined in chunk order on
/// one thread — so every number out of this engine is bit-identical at any
/// thread count (and independent of which worker ran which chunk).
constexpr int kChunkSamples = 256;

/// A sample count must be a usable trial count before any sizing math runs
/// on it: zero reaches samples.front()/.back() on an empty vector and a
/// divide-by-zero in criticality, and a negative count wraps through the
/// size_t cast in the chunk partition into an absurd allocation.
void validate_num_samples(const MonteCarloOptions& options, const char* fn) {
  if (options.num_samples < 1) {
    throw std::invalid_argument(std::string(fn) + ": num_samples = " +
                                std::to_string(options.num_samples) +
                                " but at least 1 trial is required");
  }
}

/// Per-trial delay parameters, hoisted out of the trial loop: NormalRV
/// stores variance, so the naive `d.sigma() * normal()` pays a sqrt per
/// gate per trial — ~32M sqrts on the 1600-gate/20k-trial bench row.
/// Sampling `mu[id] + sigma[id] * u` below is the same arithmetic on the
/// same values in the same order, hence bit-identical.
struct DelayParams {
  std::vector<double> mu;
  std::vector<double> sigma;

  explicit DelayParams(const std::vector<stat::NormalRV>& gate_delays) {
    mu.resize(gate_delays.size());
    sigma.resize(gate_delays.size());
    for (std::size_t i = 0; i < gate_delays.size(); ++i) {
      mu[i] = gate_delays[i].mu;
      sigma[i] = gate_delays[i].sigma();
    }
  }
};

/// Per-worker trial scratch, reused across chunks (the old code heap-
/// allocated a fresh arrival vector per chunk). bind() zero-fills without
/// releasing capacity: primary-input arrivals are the constant 0.0 in every
/// trial, so one fill per chunk replaces the per-trial per-node kind branch,
/// and every gate slot is overwritten on every trial. The values written
/// depend only on (seed, chunk, trial) — never on which worker ran before —
/// so the reuse cannot leak state between chunks.
struct TrialScratch {
  std::vector<double> arrival;

  void bind(const netlist::TimingView& view) {
    arrival.assign(static_cast<std::size_t>(view.num_nodes()), 0.0);
  }
};

thread_local TrialScratch t_scratch;

/// One trial: sample delays, propagate over the flat CSR view, return
/// (delay, critical PO). Walks gates only — PI arrivals are the constant
/// 0.0 the scratch buffer already holds — in gates_in_topo_order(), which is
/// exactly the non-input subsequence of topo_order(): the RNG consumption
/// order is unchanged from the all-nodes walk.
template <class SampleFn>
double propagate_once(const netlist::TimingView& view, SampleFn&& sample_delay,
                      std::vector<double>& arrival, NodeId* critical_output) {
  for (NodeId id : view.gates_in_topo_order()) {
    const netlist::NodeSpan fanins = view.fanins(id);
    double u = arrival[static_cast<std::size_t>(fanins[0])];
    for (std::size_t i = 1; i < fanins.size(); ++i) {
      u = std::max(u, arrival[static_cast<std::size_t>(fanins[i])]);
    }
    arrival[static_cast<std::size_t>(id)] = u + sample_delay(id);
  }
  const std::vector<NodeId>& outs = view.outputs();
  double total = -1.0;
  NodeId crit = outs.front();
  for (NodeId o : outs) {
    if (arrival[static_cast<std::size_t>(o)] > total) {
      total = arrival[static_cast<std::size_t>(o)];
      crit = o;
    }
  }
  if (critical_output != nullptr) *critical_output = crit;
  return total;
}

/// Runs trials [first, last) of the experiment defined by (options, chunk)
/// with the chunk's private RNG stream; on_trial(trial, total, arrival).
template <class OnTrial>
void run_chunk(const netlist::TimingView& view, const DelayParams& params,
               const MonteCarloOptions& options, std::size_t chunk, OnTrial&& on_trial) {
  stat::NormalStream normal(stat::stream_seed(options.seed, chunk));
  t_scratch.bind(view);
  std::vector<double>& arrival = t_scratch.arrival;
  const int first = static_cast<int>(chunk) * kChunkSamples;
  const int last = std::min(first + kChunkSamples, options.num_samples);
  for (int trial = first; trial < last; ++trial) {
    auto sample_delay = [&](NodeId id) {
      double t = params.mu[static_cast<std::size_t>(id)] +
                 params.sigma[static_cast<std::size_t>(id)] * normal();
      if (options.truncate_negative_delays && t < 0.0) t = 0.0;
      return t;
    };
    NodeId crit = netlist::kInvalidNode;
    const double total = propagate_once(view, sample_delay, arrival, &crit);
    on_trial(trial, total, crit, arrival);
  }
}

std::size_t num_chunks(const MonteCarloOptions& options) {
  return (static_cast<std::size_t>(options.num_samples) + kChunkSamples - 1) / kChunkSamples;
}

/// Per-chunk moment partials on their own cache line: adjacent chunks are
/// claimed by different workers, and packing the partials into plain double
/// arrays made every store a false-sharing miss on the 64-byte line shared
/// with ~7 neighbors. The partials are centred — a mean and the sum of
/// squared deviations from it (M2) — because the raw form
/// sqrt(sum2 / n - mean^2) cancels: at mean 1e4 and sigma 1e-5 the two terms
/// agree in every bit a double holds and the difference is exactly 0.
struct alignas(64) ChunkMoments {
  double n = 0.0;
  double mean = 0.0;
  double m2 = 0.0;
};

/// Two passes over one chunk's samples: the mean, then M2 about it.
ChunkMoments chunk_moments(const double* x, std::size_t count) {
  ChunkMoments m;
  m.n = static_cast<double>(count);
  double sum = 0.0;
  for (std::size_t k = 0; k < count; ++k) sum += x[k];
  m.mean = sum / m.n;
  for (std::size_t k = 0; k < count; ++k) {
    const double d = x[k] - m.mean;
    m.m2 += d * d;
  }
  return m;
}

/// Folds partial b into a (Chan, Golub and LeVeque 1979): exact for the
/// union's mean and M2, with no difference of large squares.
void merge_moments(ChunkMoments& a, const ChunkMoments& b) {
  const double n = a.n + b.n;
  const double delta = b.mean - a.mean;
  a.mean += delta * (b.n / n);
  a.m2 += b.m2 + delta * delta * (a.n * b.n / n);
  a.n = n;
}

}  // namespace

MonteCarloResult run_monte_carlo(const netlist::Circuit& circuit,
                                 const std::vector<stat::NormalRV>& gate_delays,
                                 const MonteCarloOptions& options) {
  return run_monte_carlo(circuit.view(), gate_delays, options);
}

MonteCarloResult run_monte_carlo(const netlist::TimingView& view,
                                 const std::vector<stat::NormalRV>& gate_delays,
                                 const MonteCarloOptions& options) {
  if (static_cast<int>(gate_delays.size()) != view.num_nodes()) {
    throw std::invalid_argument("gate_delays must be indexed by NodeId");
  }
  validate_num_samples(options, "run_monte_carlo");
  const DelayParams params(gate_delays);
  const std::size_t chunks = num_chunks(options);
  MonteCarloResult result;
  result.samples.resize(static_cast<std::size_t>(options.num_samples));
  std::vector<ChunkMoments> moments(chunks);

  runtime::parallel_for(chunks, 1, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      run_chunk(view, params, options, c,
                [&](int trial, double total, NodeId, const std::vector<double>&) {
                  result.samples[static_cast<std::size_t>(trial)] = total;
                });
      const std::size_t first = c * kChunkSamples;
      const std::size_t count = std::min<std::size_t>(kChunkSamples, result.samples.size() - first);
      moments[c] = chunk_moments(result.samples.data() + first, count);
    }
  });

  // Ordered combine: moments fold over chunks in index order.
  ChunkMoments total = moments[0];
  for (std::size_t c = 1; c < chunks; ++c) merge_moments(total, moments[c]);
  std::sort(result.samples.begin(), result.samples.end());
  result.mean = total.mean;
  result.stddev = std::sqrt(total.m2 / total.n);
  result.min = result.samples.front();
  result.max = result.samples.back();
  return result;
}

std::vector<double> monte_carlo_criticality(const netlist::Circuit& circuit,
                                            const std::vector<stat::NormalRV>& gate_delays,
                                            const MonteCarloOptions& options) {
  if (static_cast<int>(gate_delays.size()) != circuit.num_nodes()) {
    throw std::invalid_argument("gate_delays must be indexed by NodeId");
  }
  validate_num_samples(options, "monte_carlo_criticality");
  const netlist::TimingView& view = circuit.view();
  const DelayParams params(gate_delays);
  const std::size_t chunks = num_chunks(options);
  std::vector<long> hits(static_cast<std::size_t>(view.num_nodes()), 0);
  std::mutex hits_mutex;  // integer merge: exact, order-independent

  runtime::parallel_for(chunks, 1, [&](std::size_t cb, std::size_t ce) {
    std::vector<long> local(hits.size(), 0);
    for (std::size_t c = cb; c < ce; ++c) {
      run_chunk(view, params, options, c,
                [&](int, double, NodeId crit, const std::vector<double>& arrival) {
                  // Walk back along argmax fanins from the critical output.
                  NodeId cur = crit;
                  while (view.is_gate(cur)) {
                    ++local[static_cast<std::size_t>(cur)];
                    const netlist::NodeSpan fanins = view.fanins(cur);
                    NodeId best = fanins[0];
                    for (std::size_t i = 1; i < fanins.size(); ++i) {
                      if (arrival[static_cast<std::size_t>(fanins[i])] >
                          arrival[static_cast<std::size_t>(best)]) {
                        best = fanins[i];
                      }
                    }
                    cur = best;
                  }
                });
    }
    const std::lock_guard<std::mutex> lock(hits_mutex);
    for (std::size_t i = 0; i < hits.size(); ++i) hits[i] += local[i];
  });

  std::vector<double> criticality(static_cast<std::size_t>(view.num_nodes()), 0.0);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    criticality[i] = static_cast<double>(hits[i]) / options.num_samples;
  }
  return criticality;
}

}  // namespace statsize::ssta
