// serve_mixed: an in-process serve::Server (journal on, fsync none, 4 IO
// threads) driven over 4 client connections; a free client takes the next
// job. Every job re-uploads its circuit text (a cache hit after the first
// upload), optionally PATCHes k2, submits, and polls on a fixed schedule
// until the job is terminal.
//   Phase A: open loop at a fixed arrival rate (seeded jitter) below
//            saturation; latency runs from each job's due time.
//   Phase B: closed loop, five segments of a fixed job count; the median
//            segment wall time is the throughput measurement.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "netlist/blif.h"
#include "netlist/generators.h"
#include "serve/client.h"
#include "serve/server.h"
#include "ssta/ssta.h"
#include "workloads.h"

namespace perfbench {

using namespace statsize;

namespace {

// ISCAS-85 c17: a job on it is dominated by the serving pipeline itself.
constexpr const char* kC17 = R"(.model c17
.inputs 1GAT 2GAT 3GAT 6GAT 7GAT
.outputs 22GAT 23GAT
.names 1GAT 3GAT 10GAT
0- 1
-0 1
.names 3GAT 6GAT 11GAT
0- 1
-0 1
.names 2GAT 11GAT 16GAT
0- 1
-0 1
.names 11GAT 7GAT 19GAT
0- 1
-0 1
.names 10GAT 16GAT 22GAT
0- 1
-0 1
.names 16GAT 19GAT 23GAT
0- 1
-0 1
.end
)";

constexpr int kClients = 4;
/// Fixed poll schedule: the first poll kFirstPollSeconds after submission,
/// then one every kPollSeconds for the first kFastPolls polls (~10 ms), then
/// one every kSlowPollSeconds. A short job runs well within the first delay;
/// polling at once would make its latency bimodal (done at the first poll or
/// one interval later, by a race). A job still unfinished after ~10 ms is
/// queued behind a long one. Four clients polling such jobs every 0.5 ms
/// took enough CPU from the executor on a 4-core host that the long jobs
/// setting op_ms.p99 ran slower and spread about twice as much from run to
/// run; polling them slower costs at most kSlowPollSeconds of latency.
constexpr double kFirstPollSeconds = 0.001;
constexpr double kPollSeconds = 0.0005;
constexpr int kFastPolls = 20;
constexpr double kSlowPollSeconds = 0.002;
constexpr int kPatches = 4;

struct Sizes {
  int phase_a_blocks;
  double rate_per_s;     ///< phase A arrival rate
  int phase_b_blocks;    ///< per phase B segment
  int phase_b_segments;  ///< wall_s is the median segment
};
constexpr Sizes kFullSizes{15, 100.0, 5, 5};
constexpr Sizes kSmokeSizes{1, 100.0, 1, 1};

enum class Kind { kSstaC17, kSstaK2, kStaC17, kStaK2, kPatchSsta, kMonteCarlo, kSizeApex2 };

bool is_long(Kind k) { return k == Kind::kMonteCarlo || k == Kind::kSizeApex2; }

struct JobPlan {
  Kind kind = Kind::kSstaC17;
  int patch = 0;         ///< kPatchSsta: which of the seeded patches
  int mc_seed = 1;       ///< kMonteCarlo
  double due_ms = 0.0;   ///< phase A: offset from the phase start
};

/// Jobs of each kind in every block of kBlock consecutive jobs, in the order
/// of Kind. Within each class every kind comes equally often, as the mixed
/// mix of bench/serve_throughput.cpp cycles its kinds: 20 of each short kind
/// (ssta/sta on c17 and k2, PATCH + ssta) and one of each long kind (Monte
/// Carlo with 2000 samples on k2, reduced-space size on apex2). The long
/// share, 2 in 102, is chosen, not measured from any traffic. At the phase A
/// rate it keeps the single executor below saturation (at 7% long the median
/// short job already waits behind long ones) while the short jobs that
/// arrive during a long one still queue behind it, and it leaves phase A
/// enough short jobs for ten beyond the p99 within one run. README.md gives
/// how op_ms.p50 and op_ms.p99 move with this share.
constexpr int kBlockMix[] = {20, 20, 20, 20, 20, 1, 1};
constexpr int kBlock = 102;

constexpr int block_total() {
  int total = 0;
  for (const int n : kBlockMix) total += n;
  return total;
}
static_assert(block_total() == kBlock, "kBlockMix must fill a block");

/// A phase's jobs (a whole number of blocks). Each block holds exactly
/// kBlockMix: its long jobs in seeded order, one in the middle half of each
/// of as many equal segments of the block (so no two long jobs are ever
/// closer than a quarter block), and its short jobs shuffled into the remaining
/// slots. Neither the amount of work nor how closely long jobs cluster then
/// depends on the seed. Arrivals are spaced 1/rate apart with a seeded jitter
/// of up to a quarter gap either way; patch choices and Monte Carlo seeds are
/// seeded too.
std::vector<JobPlan> plan_jobs(std::uint64_t seed, std::uint64_t stream, int blocks,
                               double rate_per_s) {
  SplitMix64 rng(seed, stream);
  auto shuffle = [&rng](std::vector<Kind>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
  };
  std::vector<JobPlan> plan;
  for (int b = 0; b < blocks; ++b) {
    std::vector<Kind> shorts, longs;
    for (std::size_t k = 0; k < std::size(kBlockMix); ++k) {
      for (int i = 0; i < kBlockMix[k]; ++i) {
        (is_long(static_cast<Kind>(k)) ? longs : shorts).push_back(static_cast<Kind>(k));
      }
    }
    shuffle(shorts);
    shuffle(longs);
    std::vector<int> long_at;
    const int segments = static_cast<int>(longs.size());
    for (int j = 0; j < segments; ++j) {
      const int lo = j * kBlock / segments;
      const int len = (j + 1) * kBlock / segments - lo;
      long_at.push_back(lo + len / 4 + static_cast<int>(rng.below(std::max(1, len / 2))));
    }
    std::size_t next_short = 0, next_long = 0;
    for (int i = 0; i < kBlock; ++i) {
      const bool put_long = next_long < long_at.size() && long_at[next_long] == i;
      plan.push_back({put_long ? longs[next_long++] : shorts[next_short++]});
    }
  }
  const double gap_ms = 1000.0 / rate_per_s;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    plan[i].patch = static_cast<int>(rng.below(kPatches));
    plan[i].mc_seed = 1 + static_cast<int>(rng.below(1000));
    plan[i].due_ms = gap_ms * (static_cast<double>(i) + 0.5 * rng.uniform() - 0.25);
  }
  return plan;
}

struct Patch {
  std::string body;
  std::string key;
  stat::NormalRV ref;  ///< in-process SSTA of the patched k2
};

/// A running daemon with its circuits uploaded and the in-process reference
/// answers the served results are checked against.
struct ServeSetup {
  std::string journal_dir;
  std::unique_ptr<serve::Server> server;
  std::string c17_text, k2_text, apex2_text;
  std::string c17_key, k2_key, apex2_key;
  stat::NormalRV c17_ref, k2_ref;
  std::vector<Patch> patches;

  ServeSetup() = default;
  ServeSetup(const ServeSetup&) = delete;
  ServeSetup& operator=(const ServeSetup&) = delete;
  ~ServeSetup() {
    if (server) server->stop();
    server.reset();
    std::error_code ec;
    if (!journal_dir.empty()) std::filesystem::remove_all(journal_dir, ec);
  }
};

std::string blif_text(const netlist::Circuit& c, const char* model) {
  std::ostringstream out;
  netlist::write_blif(out, c, model);
  return out.str();
}

netlist::Circuit parse(const std::string& text) {
  std::istringstream in(text);
  return netlist::read_blif(in);
}

stat::NormalRV reference_ssta(const netlist::TimingView& view) {
  const ssta::DelayCalculator calc(view);
  const std::vector<double> speed(static_cast<std::size_t>(view.num_nodes()), 1.0);
  return ssta::run_ssta(calc, speed).circuit_delay;
}

std::string fmt17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::unique_ptr<ServeSetup> serve_setup(Context& ctx, int rep) {
  auto s = std::make_unique<ServeSetup>();
  s->journal_dir = ctx.work_dir + "/journal-" + std::to_string(rep);
  std::error_code ec;
  std::filesystem::remove_all(s->journal_dir, ec);

  s->c17_text = kC17;
  s->k2_text = blif_text(netlist::make_mcnc_like("k2"), "k2");
  s->apex2_text = blif_text(netlist::make_mcnc_like("apex2"), "apex2");
  const netlist::Circuit c17 = parse(s->c17_text);
  const netlist::Circuit k2 = parse(s->k2_text);
  s->c17_ref = reference_ssta(c17.view());
  s->k2_ref = reference_ssta(k2.view());

  serve::ServerOptions options;
  options.port = 0;
  options.io_threads = kClients;
  options.journal_dir = s->journal_dir;
  options.journal_fsync = serve::FsyncPolicy::kNone;
  s->server = std::make_unique<serve::Server>(options);
  s->server->start();

  serve::Client client("127.0.0.1", s->server->port());
  s->c17_key = client.upload(s->c17_text, "blif", "c17");
  s->k2_key = client.upload(s->k2_text, "blif", "k2");
  s->apex2_key = client.upload(s->apex2_text, "blif", "apex2");

  // Seeded single-gate t_int patches of k2, each with its reference answer.
  SplitMix64 rng(ctx.seed, 3);
  const std::vector<netlist::NodeId>& gates = k2.view().gates_in_topo_order();
  for (int j = 0; j < kPatches; ++j) {
    const netlist::NodeId g = gates[rng.below(gates.size())];
    netlist::NodeParams p = k2.view().node_params(g);
    p.t_int *= 1.05 + 0.05 * j;
    Patch patch;
    patch.body = "{\"edits\": [{\"node\": " + std::to_string(g) + ", \"t_int\": " +
                 fmt17(p.t_int) + "}]}";
    const serve::ApiResult r = client.request("PATCH", "/v1/circuits/" + s->k2_key, patch.body);
    ctx.result->check(r.ok(), "PATCH k2 answered " + std::to_string(r.status));
    patch.key = r.ok() ? r.json().string_or("key", "") : "";
    netlist::TimingView view = k2.view();
    view.update_node_params(g, p);
    patch.ref = reference_ssta(view);
    s->patches.push_back(std::move(patch));
  }
  return s;
}

struct JobOutcome {
  bool ok = false;
  std::string why;
  double latency_ms = 0.0;   ///< from due time (phase A) or send time (phase B)
  double client_ms = 0.0;    ///< from send time
  double queue_wait_ms = 0.0;
  double run_ms = 0.0;
  int polls = 0;
  int iterations = -1;       ///< size jobs
  int outer_iterations = -1;
};

std::string job_body(const ServeSetup& s, const JobPlan& job, const std::string& patched_key) {
  switch (job.kind) {
    case Kind::kSstaC17: return "{\"circuit\": \"" + s.c17_key + "\", \"type\": \"ssta\"}";
    case Kind::kSstaK2: return "{\"circuit\": \"" + s.k2_key + "\", \"type\": \"ssta\"}";
    case Kind::kStaC17: return "{\"circuit\": \"" + s.c17_key + "\", \"type\": \"sta\"}";
    case Kind::kStaK2: return "{\"circuit\": \"" + s.k2_key + "\", \"type\": \"sta\"}";
    case Kind::kPatchSsta: return "{\"circuit\": \"" + patched_key + "\", \"type\": \"ssta\"}";
    case Kind::kMonteCarlo:
      return "{\"circuit\": \"" + s.k2_key +
             "\", \"type\": \"monte_carlo\", \"samples\": 2000, \"seed\": " +
             std::to_string(job.mc_seed) + "}";
    case Kind::kSizeApex2:
      return "{\"circuit\": \"" + s.apex2_key + "\", \"type\": \"size\", \"method\": \"reduced\"}";
  }
  return {};
}

/// One served job: upload, optional PATCH, submit, poll to a terminal state,
/// check. `due` is when the job was meant to be sent.
JobOutcome run_job(serve::Client& client, const ServeSetup& s, const JobPlan& job,
                   Clock::time_point due) {
  JobOutcome out;
  const Clock::time_point sent = Clock::now();
  try {
    const bool on_c17 = job.kind == Kind::kSstaC17 || job.kind == Kind::kStaC17;
    const bool on_apex2 = job.kind == Kind::kSizeApex2;
    const std::string& text = on_c17 ? s.c17_text : on_apex2 ? s.apex2_text : s.k2_text;
    const std::string& key = on_c17 ? s.c17_key : on_apex2 ? s.apex2_key : s.k2_key;
    const char* name = on_c17 ? "c17" : on_apex2 ? "apex2" : "k2";
    if (client.upload(text, "blif", name) != key) {
      out.why = "upload returned a different key";
      return out;
    }
    std::string patched_key;
    const Patch& patch = s.patches[static_cast<std::size_t>(job.patch)];
    if (job.kind == Kind::kPatchSsta) {
      const serve::ApiResult r = client.request("PATCH", "/v1/circuits/" + s.k2_key, patch.body);
      patched_key = r.ok() ? r.json().string_or("key", "") : "";
      if (patched_key != patch.key) {
        out.why = "PATCH answered " + std::to_string(r.status) + " with key " + patched_key;
        return out;
      }
    }
    const serve::ApiResult sub = client.request("POST", "/v1/jobs", job_body(s, job, patched_key));
    if (!sub.ok()) {
      out.why = "submit answered " + std::to_string(sub.status);
      return out;
    }
    const std::string id = sub.json().string_or("id", "");
    util::JsonValue doc;
    for (;;) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(out.polls == 0            ? kFirstPollSeconds
                                        : out.polls < kFastPolls ? kPollSeconds
                                                                 : kSlowPollSeconds));
      const serve::ApiResult r = client.job(id);
      ++out.polls;
      if (!r.ok()) {
        out.why = "poll answered " + std::to_string(r.status);
        return out;
      }
      doc = r.json();
      const std::string state = doc.string_or("state", "");
      if (state != "queued" && state != "running") break;
    }
    const Clock::time_point done = Clock::now();
    out.latency_ms = ms_between(due, done);
    out.client_ms = ms_between(sent, done);
    out.queue_wait_ms = doc.number_or("queue_wait_ms", 0.0);
    out.run_ms = doc.number_or("run_ms", 0.0);
    const std::string state = doc.string_or("state", "");
    const util::JsonValue* result = doc.find("result");
    if (state != "done" || result == nullptr) {
      out.why = "job " + id + " ended " + state + ": " + doc.string_or("error", "");
      return out;
    }
    const stat::NormalRV* ref = nullptr;
    if (job.kind == Kind::kSstaC17) ref = &s.c17_ref;
    if (job.kind == Kind::kSstaK2) ref = &s.k2_ref;
    if (job.kind == Kind::kPatchSsta) ref = &patch.ref;
    if (ref != nullptr && (result->number_or("mu", -1.0) != ref->mu ||
                           result->number_or("var", -1.0) != ref->var)) {
      out.why = "served ssta of job " + id + " is not bit-identical to run_ssta";
      return out;
    }
    if (job.kind == Kind::kSizeApex2) {
      out.iterations = static_cast<int>(result->int_or("iterations", -1));
      out.outer_iterations = static_cast<int>(result->int_or("outer_iterations", -1));
      if (!result->bool_or("converged", false)) {
        out.why = "served size job " + id + " did not converge";
        return out;
      }
    }
    out.ok = true;
  } catch (const std::exception& e) {
    out.why = e.what();
  }
  return out;
}

struct StatsSnapshot {
  double hits = 0, misses = 0, journal_records = 0, submitted = 0, rejected = 0;
};

/// GET /v1/stats over a connection of its own, closed again at once: the
/// server has only as many IO threads as the benchmark has clients.
StatsSnapshot snapshot(const serve::Server& server) {
  serve::Client client("127.0.0.1", server.port());
  const util::JsonValue doc = client.stats().json();
  StatsSnapshot s;
  if (const util::JsonValue* cache = doc.find("cache")) {
    s.hits = cache->number_or("hits", 0.0);
    s.misses = cache->number_or("misses", 0.0);
  }
  if (const util::JsonValue* jobs = doc.find("jobs")) {
    s.submitted = jobs->number_or("submitted", 0.0);
    s.rejected = jobs->number_or("rejected", 0.0);
  }
  if (const util::JsonValue* rob = doc.find("robustness")) {
    s.journal_records = rob->number_or("journal_records_written", 0.0);
  }
  return s;
}

struct PhaseResult {
  std::vector<JobPlan> plan;
  std::vector<JobOutcome> outcomes;  ///< same order as plan
  std::vector<double> late_ms;       ///< phase A: send time minus due time
  double wall_s = 0.0;
};

/// Phase A (open loop) when `open_loop`, else phase B (closed loop). The
/// clients share the plan: whichever client is free takes the next job, so
/// a job waits for a connection only while all of them are busy.
PhaseResult run_phase(Context& ctx, const ServeSetup& s, std::vector<JobPlan> plan,
                      bool open_loop) {
  PhaseResult pr;
  pr.plan = std::move(plan);
  pr.outcomes.resize(pr.plan.size());
  pr.late_ms.assign(pr.plan.size(), 0.0);
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      serve::Client client("127.0.0.1", s.server->port());
      for (std::size_t i = next++; i < pr.plan.size(); i = next++) {
        Clock::time_point due = Clock::now();
        if (open_loop) {
          due = t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(pr.plan[i].due_ms));
          std::this_thread::sleep_until(due);
          pr.late_ms[i] = ms_since(due);
        }
        Trace::Scope span(*ctx.trace, "serve.job", static_cast<long>(i));
        pr.outcomes[i] = run_job(client, s, pr.plan[i], due);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  pr.wall_s = ms_since(t0) / 1000.0;
  return pr;
}

struct ServeStats {
  std::vector<PhaseResult> phase_a, phase_b;
  StatsSnapshot before, after;
};

ServeStats run_serve_phases(Context& ctx, const ServeSetup& s, const Sizes& sizes, Result& sink) {
  // Two unmeasured closed-loop blocks first, so lazily built state (thread
  // scratch, first-use allocations, the journal file) is in place.
  const PhaseResult warmup =
      run_phase(ctx, s, plan_jobs(ctx.seed, 9, 2, sizes.rate_per_s), false);
  for (const JobOutcome& o : warmup.outcomes) sink.check(o.ok, o.why);
  ServeStats st;
  st.before = snapshot(*s.server);
  st.phase_a.push_back(
      run_phase(ctx, s, plan_jobs(ctx.seed, 10, sizes.phase_a_blocks, sizes.rate_per_s), true));
  for (int i = 0; i < sizes.phase_b_segments; ++i) {
    st.phase_b.push_back(run_phase(
        ctx, s, plan_jobs(ctx.seed, 11 + i, sizes.phase_b_blocks, sizes.rate_per_s), false));
  }
  st.after = snapshot(*s.server);
  for (const auto* phases : {&st.phase_a, &st.phase_b}) {
    for (const PhaseResult& pr : *phases) {
      for (const JobOutcome& o : pr.outcomes) sink.op(o.ok, o.why);
    }
  }
  sink.check(st.after.rejected == st.before.rejected, "the server answered 429");
  return st;
}

void serve_layer_metrics(Context& ctx, const ServeStats& st) {
  std::vector<double> queue_wait, run_short, run_long, overhead, long_ms, late;
  double polls = 0.0, jobs = 0.0;
  for (const PhaseResult& pr : st.phase_a) {
    for (std::size_t i = 0; i < pr.plan.size(); ++i) {
      const JobOutcome& o = pr.outcomes[i];
      queue_wait.push_back(o.queue_wait_ms);
      polls += o.polls;
      jobs += 1.0;
      late.push_back(pr.late_ms[i]);
      if (is_long(pr.plan[i].kind)) {
        run_long.push_back(o.run_ms);
        long_ms.push_back(o.latency_ms);
      } else {
        run_short.push_back(o.run_ms);
        overhead.push_back(o.client_ms - o.queue_wait_ms - o.run_ms);
      }
    }
  }
  double all_jobs = 0.0;
  for (const auto* phases : {&st.phase_a, &st.phase_b}) {
    for (const PhaseResult& pr : *phases) all_jobs += static_cast<double>(pr.plan.size());
  }
  const double hits = st.after.hits - st.before.hits;
  const double misses = st.after.misses - st.before.misses;
  const double offered =
      (st.after.submitted - st.before.submitted) + (st.after.rejected - st.before.rejected);
  Result& res = *ctx.result;
  res.set("serve.queue_wait_ms.p50", quantile(queue_wait, 0.50), "ms");
  res.set("serve.queue_wait_ms.p99", quantile(queue_wait, 0.99), "ms");
  res.set("serve.run_ms.short", median(run_short), "ms");
  res.set("serve.run_ms.long", median(run_long), "ms");
  res.set("serve.overhead_ms.p50", median(overhead), "ms");
  res.set("serve.polls_per_job", polls / jobs, "count");
  res.set("serve.long_ms.p50", quantile(long_ms, 0.50), "ms");
  res.set("serve.long_ms.p90", quantile(long_ms, 0.90), "ms");
  res.set("serve.cache_hit_ratio", hits / std::max(1.0, hits + misses), "ratio");
  res.set("serve.journal_records_per_job",
          (st.after.journal_records - st.before.journal_records) / all_jobs, "count");
  res.set("serve.rejected_ratio",
          (st.after.rejected - st.before.rejected) / std::max(1.0, offered), "ratio");
  res.set("harness.gen_late_ms.p99", quantile(late, 0.99), "ms");
}

}  // namespace

void run_serve_mixed(Context& ctx) {
  Result& res = *ctx.result;
  std::unique_ptr<ServeSetup> s;
  int rep = 0;
  res.set("setup_s", median_setup_seconds(ctx, 3, [&] {
    s.reset();  // stop the previous repetition's daemon first
    s = serve_setup(ctx, rep++);
  }), "s");

  const Sizes& sizes = ctx.smoke ? kSmokeSizes : kFullSizes;
  const ServeStats st = run_serve_phases(ctx, *s, sizes, res);
  std::vector<double> short_ms, phase_b_s;
  for (const PhaseResult& pr : st.phase_a) {
    for (std::size_t i = 0; i < pr.plan.size(); ++i) {
      if (!is_long(pr.plan[i].kind)) short_ms.push_back(pr.outcomes[i].latency_ms);
    }
  }
  for (const PhaseResult& pr : st.phase_b) phase_b_s.push_back(pr.wall_s);
  res.set("wall_s", median(phase_b_s), "s");
  res.set("op_ms.p50", quantile(short_ms, 0.50), "ms");
  res.set("op_ms.p99", quantile(short_ms, 0.99), "ms");
  std::printf("# phase A: %d jobs at %.0f/s (%zu short); phase B: %d segments of %d jobs, "
              "median %.1f jobs/s\n",
              sizes.phase_a_blocks * kBlock, sizes.rate_per_s, short_ms.size(),
              sizes.phase_b_segments, sizes.phase_b_blocks * kBlock,
              sizes.phase_b_blocks * kBlock / median(phase_b_s));
  if (!ctx.traced()) return;

  serve_layer_metrics(ctx, st);
  // The served size jobs are this workload's Sizer runs (apex2, reduced).
  std::vector<double> ms_per_iter;
  for (const PhaseResult& pr : st.phase_a) {
    for (const JobOutcome& o : pr.outcomes) {
      if (o.iterations <= 0) continue;
      res.set("core.iterations", o.iterations, "count");
      res.set("core.outer_iterations", o.outer_iterations, "count");
      ms_per_iter.push_back(o.run_ms / o.iterations);
    }
  }
  res.set("core.ms_per_iter", median(ms_per_iter), "ms");
  const netlist::Circuit apex2 = netlist::make_mcnc_like("apex2");
  res.set("runtime.jobs1_ratio.size", jobs1_ratio(ctx, apex2, apex2_min_mu3sigma_row()), "ratio");
}

void serve_layer_probe(Context& ctx) {
  const std::unique_ptr<ServeSetup> s = serve_setup(ctx, 0);
  Result probe;
  const ServeStats st = run_serve_phases(ctx, *s, kSmokeSizes, probe);
  ctx.result->check(probe.correct(), "serve layer probe jobs");
  serve_layer_metrics(ctx, st);
}

}  // namespace perfbench
