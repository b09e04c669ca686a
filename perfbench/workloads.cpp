#include "workloads.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "exec/simd.hpp"
#include "graph/delta.hpp"
#include "stance/service.hpp"
#include "stance/stance.hpp"
#include "support/fnv.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace stance;

namespace {

constexpr int kRanks = 4;
constexpr int kMain = -1;  // tracer tid of the benchmark's main thread

// ---- small statistics helpers ---------------------------------------------

double pct(const std::vector<double>& v, double q) {
  return v.empty() ? 0.0 : stance::percentile(v, q);
}

double median(const std::vector<double>& v) { return pct(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Host CPU time stolen by the hypervisor and total CPU time, in ticks since
/// boot (Linux /proc/stat; zeros elsewhere).
std::pair<double, double> steal_and_total() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  double total = 0.0;
  for (const double x : v) total += x;
  return {v[7], total};
}

/// Share of the host's CPU time the hypervisor took away (steal) between
/// construction and frac().
class StealMeter {
 public:
  StealMeter() : start_(steal_and_total()) {}
  [[nodiscard]] double frac() const {
    const auto [steal, total] = steal_and_total();
    return total > start_.second ? (steal - start_.first) / (total - start_.second) : 0.0;
  }

 private:
  std::pair<double, double> start_;
};

/// Median of `v` over the samples taken while the hypervisor stole little
/// CPU: those with steal at most max(1%, the median steal), so at least half
/// of them. On a quiet host that is every sample. A stolen CPU stalls all
/// four lock-stepped ranks, so a sample taken under steal measures the host,
/// not the code.
double quiet_median(const std::vector<double>& v, const std::vector<double>& steal) {
  const double limit = std::max(0.01, median(steal));
  std::vector<double> kept;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (steal[i] <= limit) kept.push_back(v[i]);
  }
  return median(kept);
}

std::string transport_name(mp::TransportKind k) {
  switch (k) {
    case mp::TransportKind::kVirtual: return "virtual";
    case mp::TransportKind::kShm: return "shm";
    case mp::TransportKind::kTcp: return "tcp";
    case mp::TransportKind::kDefault: break;
  }
  return "default";
}

/// Per-rank host durations of one collective step, reduced to the slowest
/// rank (the step ends when the last rank finishes).
struct RankTimes {
  explicit RankTimes(std::size_t steps)
      : per_rank(kRanks, std::vector<double>(steps, 0.0)) {}
  std::vector<std::vector<double>> per_rank;
  [[nodiscard]] double slowest(std::size_t step) const {
    double m = 0.0;
    for (const auto& r : per_rank) m = std::max(m, r[step]);
    return m;
  }
  [[nodiscard]] double skew(std::size_t step) const {
    double hi = 0.0;
    double lo = per_rank.front()[step];
    for (const auto& r : per_rank) {
      hi = std::max(hi, r[step]);
      lo = std::min(lo, r[step]);
    }
    return hi > 0.0 ? (hi - lo) / hi : 0.0;
  }
};

/// Pins the calling rank thread to one CPU, so ranks do not migrate between
/// cores mid-episode (ranks run as threads; see mp::Cluster::run).
void pin_rank(int rank) {
  const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(rank) % ncpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Runs `fn` and returns its host seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

/// Episode loop shared by all workloads. In a traced run, episodes alternate
/// between traced and untraced so the tracing overhead can be measured on
/// the same inputs; per-layer numbers come from the traced ones only.
struct EpisodeLoop {
  explicit EpisodeLoop(const Options& o, int min_episodes = 2)
      : opts(o), min_episodes(min_episodes) {}
  const Options& opts;
  int min_episodes;
  int done = 0;
  double measured = 0.0;  ///< host seconds of solve across all episodes
  std::vector<double> traced_solve;
  std::vector<double> untraced_solve;
  std::vector<double> untraced_steal;  ///< host steal share, per untraced episode

  [[nodiscard]] bool more() const {
    if (opts.episodes > 0) return done < opts.episodes;
    return done < min_episodes || measured < opts.seconds;
  }
  [[nodiscard]] bool traced_now() const { return opts.trace && done % 2 == 0; }
  void finish(double solve_seconds, bool traced, double steal) {
    ++done;
    measured += solve_seconds;
    (traced ? traced_solve : untraced_solve).push_back(solve_seconds);
    if (!traced) untraced_steal.push_back(steal);
  }
  [[nodiscard]] double overhead_frac() const {
    const double u = median(untraced_solve);
    return u > 0.0 && !traced_solve.empty() ? median(traced_solve) / u - 1.0 : 0.0;
  }
};

void set_tracing(bool on) {
  if (on) {
    Tracer::instance().enable();
  } else {
    Tracer::instance().disable();
  }
}

/// Per-layer counts shared by the two mesh workloads, from CommStats of the
/// solve phase (summed over ranks).
void set_comm_layers(Result& res, const mp::CommStats& s, double sweeps) {
  res.set("mp.msgs_per_sweep", static_cast<double>(s.messages_sent) / sweeps, "count");
  res.set("mp.bytes_per_sweep", static_cast<double>(s.bytes_sent) / sweeps, "B");
  res.set("mp.inter_node_msgs", static_cast<double>(s.inter_node_sent), "count");
  res.set("mp.frames_sent", static_cast<double>(s.frames_sent), "count");
  res.set("mp.frame_bytes", static_cast<double>(s.frame_bytes_sent), "B");
  res.set("mp.collectives", static_cast<double>(s.collectives), "count");
  res.set("mp.comm_virtual_s", s.comm_seconds, "s");
  res.set("exec.compute_virtual_s", s.compute_seconds, "s");
}

/// End-to-end metrics common to every workload, from untraced episodes.
/// `episodes` holds each episode's per-operation host seconds (a sweep, or a
/// job); a percentile is the median over episodes of the episode's
/// percentile, so one disturbed episode cannot move it. `op` names the
/// operation for the human-readable aliases (sweep_ms_*, job_ms_*).
void set_end_to_end(Result& res, const std::vector<double>& setups,
                    const std::vector<double>& setup_steal, const EpisodeLoop& loop,
                    const std::vector<std::vector<double>>& episodes, const char* op,
                    double virtual_s) {
  std::uint64_t n = 0;
  std::vector<double> p50, p90, p99;
  for (const auto& ep : episodes) {
    n += ep.size();
    p50.push_back(pct(ep, 0.50) * 1e3);
    p90.push_back(pct(ep, 0.90) * 1e3);
    p99.push_back(pct(ep, 0.99) * 1e3);
  }
  const auto& steal = loop.untraced_steal;
  const double solve = quiet_median(loop.untraced_solve, steal);
  res.set("setup_s", quiet_median(setups, setup_steal), "s", setups.size());
  res.set("solve_s", solve, "s", loop.untraced_solve.size());
  for (const std::string prefix : {"op", op}) {
    res.set(prefix + "_ms_p50", quiet_median(p50, steal), "ms", n);
    res.set(prefix + "_ms_p90", quiet_median(p90, steal), "ms", n);
    res.set(prefix + "_ms_p99", quiet_median(p99, steal), "ms", n);
  }
  if (!episodes.empty() && solve > 0.0) {
    res.set(std::string(op) + "s_per_s",
            static_cast<double>(n) / static_cast<double>(episodes.size()) / solve, "1/s", n);
  }
  res.set("virtual_s", virtual_s, "s");
  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  res.set("failed_frac",
          res.attempted > 0 ? static_cast<double>(res.failed) /
                                  static_cast<double>(res.attempted)
                            : 0.0,
          "frac", res.attempted);
}

void set_trace_layers(Result& res, const EpisodeLoop& loop, double covered,
                      double traced_solve) {
  res.set("trace.overhead_frac", loop.overhead_frac(), "frac");
  res.set("trace.coverage", traced_solve > 0.0 ? covered / traced_solve : 0.0, "frac");
}

std::vector<double> gather(const partition::IntervalPartition& part,
                           const std::vector<std::vector<double>>& per_rank) {
  std::vector<double> out(static_cast<std::size_t>(part.total()));
  for (int r = 0; r < part.nparts(); ++r) {
    const auto& y = per_rank[static_cast<std::size_t>(r)];
    std::copy(y.begin(), y.end(), out.begin() + part.first(r));
  }
  return out;
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<double> initial_y(const partition::IntervalPartition& part, int rank) {
  std::vector<double> y(static_cast<std::size_t>(part.size(rank)));
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = Session::initial_value(part.to_global(rank, static_cast<graph::Vertex>(i)));
  }
  return y;
}

std::vector<double> initial_global(graph::Vertex n) {
  std::vector<double> y(static_cast<std::size_t>(n));
  for (graph::Vertex g = 0; g < n; ++g) y[static_cast<std::size_t>(g)] = Session::initial_value(g);
  return y;
}

/// Sequential oracle: `sweeps` reference sweeps, each timed (the
/// single-threaded baseline, seq_sweep_ms_p50).
void reference_sweeps(const graph::Csr& g, std::vector<double>& y, int sweeps,
                      std::vector<double>& sweep_seconds) {
  for (int i = 0; i < sweeps; ++i) {
    sweep_seconds.push_back(
        timed([&] { exec::IrregularLoop::reference_iterate(g, y, 1); }));
  }
}

// ============================================================================
// static_paper — the paper's static environment (Table 4 shape): spectral
// ordering, heterogeneous speeds, plain exchange, no load balancing.
// ============================================================================

struct StaticSizes {
  int sweeps_per_episode;
  int setups;
};

graph::Csr static_mesh(const Options& o) {
  return o.tiny ? graph::random_delaunay(1500, o.seed) : graph::paper_mesh(o.seed);
}

Result run_static_paper(const Options& o) {
  const StaticSizes sz = o.tiny ? StaticSizes{40, 1} : StaticSizes{2000, 5};
  const auto transport = o.transport.value_or(mp::TransportKind::kShm);
  Result res;
  res.workload = "static_paper";
  res.transport = transport_name(transport);

  const graph::Csr mesh = static_mesh(o);  // untimed input generation
  res.input_fingerprint = mesh.fingerprint();
  const auto spec = sim::MachineSpec::heterogeneous(kRanks);
  std::vector<double> speeds;
  for (const auto& node : spec.nodes) speeds.push_back(node.speed);

  // ---- set-up: Phase A + Phase B + executor construction, several times --
  graph::Csr ordered;
  std::unique_ptr<mp::Cluster> cluster;
  std::vector<sched::InspectorResult> irs;
  std::vector<std::unique_ptr<exec::IrregularLoop>> loops;
  std::vector<double> setups, setup_steal, order_s, build_s, init_s;
  std::uint64_t ghosts = 0;
  for (int s = 0; s < sz.setups; ++s) {
    set_tracing(o.trace);
    loops.clear();
    irs.assign(kRanks, {});
    RankTimes build(1), init(1);
    const StealMeter stolen;
    const auto t0 = Clock::now();
    order_s.push_back(timed([&] {
      Span span("order.compute", kMain, 0);
      ordered = mesh.permuted(order::compute(mesh, order::Method::kSpectral));
    }));
    const auto part = partition::IntervalPartition::from_weights(ordered.num_vertices(), speeds);
    cluster = std::make_unique<mp::Cluster>(spec, transport);
    loops.resize(kRanks);
    cluster->run([&](mp::Process& p) {
      const auto r = static_cast<std::size_t>(p.rank());
      build.per_rank[r][0] = timed([&] {
        Span span("sched.build_schedule", p.rank(), 0);
        irs[r] = sched::build_schedule(p, ordered, part, sched::BuildMethod::kSort2,
                                       sim::CpuCostModel::sun4());
      });
      init.per_rank[r][0] = timed([&] {
        Span span("exec.init", p.rank(), 0);
        loops[r] = std::make_unique<exec::IrregularLoop>(
            irs[r].lgraph, irs[r].schedule, exec::LoopCostModel::sun4(),
            sim::CpuCostModel::sun4());
        loops[r]->configure(exec::ExecConfig{});
      });
    });
    setups.push_back(seconds_between(t0, Clock::now()));
    setup_steal.push_back(stolen.frac());
    build_s.push_back(build.slowest(0));
    init_s.push_back(init.slowest(0));
    ghosts = 0;
    for (const auto& ir : irs) ghosts += static_cast<std::uint64_t>(ir.schedule.nghost);
  }
  set_tracing(false);
  const auto part = partition::IntervalPartition::from_weights(ordered.num_vertices(), speeds);

  // ---- oracle: the sequential reference over the same ordered mesh -------
  std::vector<double> reference = initial_global(ordered.num_vertices());
  std::vector<double> seq_sweeps;
  reference_sweeps(ordered, reference, sz.sweeps_per_episode, seq_sweeps);

  // ---- measured episodes: K one-sweep iterate() calls from fresh values ---
  const auto K = static_cast<std::size_t>(sz.sweeps_per_episode);
  EpisodeLoop loop(o);
  std::vector<std::vector<double>> sweeps;
  std::vector<double> skews;
  std::vector<std::vector<double>> finals(kRanks);
  RankTimes t(K);
  double virtual_s = 0.0;
  double covered = 0.0;
  double traced_solve = 0.0;
  mp::CommStats comm;
  while (loop.more()) {
    const bool traced = loop.traced_now();
    set_tracing(traced);
    const auto job = static_cast<std::uint64_t>(loop.done + 1);
    const double covered0 = Tracer::instance().top_level_seconds(0);
    cluster->reset_clocks();
    const StealMeter stolen;
    const double solve = timed([&] {
      cluster->run([&](mp::Process& p) {
        const auto r = static_cast<std::size_t>(p.rank());
        pin_rank(p.rank());
        std::vector<double> y = initial_y(part, p.rank());
        auto& mine = t.per_rank[r];
        for (std::size_t j = 0; j < K; ++j) {
          const auto s0 = Clock::now();
          {
            Span span("exec.iterate", p.rank(), job);
            loops[r]->iterate(p, y, 1);
          }
          mine[j] = seconds_between(s0, Clock::now());
        }
        finals[r] = std::move(y);
      });
    });
    set_tracing(false);
    loop.finish(solve, traced, stolen.frac());
    if (traced) {
      covered += Tracer::instance().top_level_seconds(0) - covered0;
      traced_solve += solve;
    }
    std::vector<double> ep;
    ep.reserve(K);
    for (std::size_t j = 0; j < K; ++j) {
      ep.push_back(t.slowest(j));
      if (traced) skews.push_back(t.skew(j));
    }
    if (!traced) sweeps.push_back(std::move(ep));
    virtual_s = cluster->makespan();
    comm = cluster->total_stats();
    res.attempted += K;
    if (!bit_equal(gather(part, finals), reference)) {
      res.failed += K;
      res.correct = false;
      res.notes.push_back("episode " + std::to_string(job) +
                          ": gathered y differs from reference_iterate");
    }
  }

  set_end_to_end(res, setups, setup_steal, loop, sweeps, "sweep", virtual_s);
  res.set("order.compute_s", median(order_s), "s", order_s.size());
  res.set("sched.build_s", median(build_s), "s", build_s.size());
  res.set("sched.ghosts", static_cast<double>(ghosts), "count");
  res.set("exec.init_s", median(init_s), "s", init_s.size());
  res.set("exec.sweep_skew", median(skews), "frac", skews.size());
  res.set("seq_sweep_ms_p50", median(seq_sweeps) * 1e3, "ms", seq_sweeps.size());
  set_comm_layers(res, comm, static_cast<double>(K));
  set_trace_layers(res, loop, covered, traced_solve);
  return res;
}

// ============================================================================
// adaptive_front — the paper's adaptive environment (Table 5 shape) plus an
// AMR refinement front: Phase D (checks, MCR remaps, rotation, replans, delta
// splice) on a coalesced tcp exchange.
// ============================================================================

struct FrontSizes {
  int phases;
  int checks_per_phase;
  int sweeps_per_check;
  /// Meshes per run: episodes cycle through a family of paper meshes made
  /// from the seed, so a run's medians do not hinge on one mesh's remap
  /// sequence.
  int family;
};

FrontSizes front_sizes(const Options& o) {
  return o.tiny ? FrontSizes{3, 1, 10, 1} : FrontSizes{10, 1, 40, 4};
}

/// Work multiplier of a vertex inside the refinement front.
constexpr double kHotWeight = 8.0;

struct FrontInputs {
  graph::Csr base;                       ///< unordered mesh handed to Phase A
  std::vector<graph::Csr> meshes;        ///< RCB-ordered mesh history, phases + 1
  std::vector<graph::CsrDelta> deltas;   ///< meshes[k] -> meshes[k + 1]
};

/// The refinement front of examples/refinement_front.cpp: vertices inside a
/// band sliding along x gain skip-level (v, v + 2) edges and weight; vertices
/// the band left coarsen back. One CsrDelta per phase.
FrontInputs front_inputs(const Options& o, int member) {
  const FrontSizes sz = front_sizes(o);
  FrontInputs in;
  const std::uint64_t seed = o.seed * 16 + static_cast<std::uint64_t>(member);
  in.base = o.tiny ? graph::random_delaunay(2000, seed) : graph::paper_mesh(seed);
  const graph::Csr ordered = in.base.permuted(order::compute(in.base, order::Method::kRcb));
  const auto n = ordered.num_vertices();
  const int phases = sz.phases;
  auto in_front = [&](graph::Vertex v, int phase) {
    const double center = (0.5 + static_cast<double>(phase)) / phases;
    return std::abs(ordered.coord(v).x - center) < 0.075;
  };
  auto refined_edges = [&](int phase) {
    std::vector<graph::Edge> out;
    for (graph::Vertex v = 0; v + 2 < n; ++v) {
      if (!in_front(v, phase)) continue;
      const auto nbrs = ordered.neighbors(v);
      if (std::find(nbrs.begin(), nbrs.end(), v + 2) != nbrs.end()) continue;
      out.emplace_back(v, v + 2);
    }
    return out;
  };
  in.meshes.push_back(ordered);
  in.deltas.resize(static_cast<std::size_t>(phases));
  std::vector<graph::Edge> prev;
  for (int k = 0; k < phases; ++k) {
    const auto refined = refined_edges(k);
    graph::CsrDelta& d = in.deltas[static_cast<std::size_t>(k)];
    std::set_difference(refined.begin(), refined.end(), prev.begin(), prev.end(),
                        std::back_inserter(d.insert_edges));
    std::set_difference(prev.begin(), prev.end(), refined.begin(), refined.end(),
                        std::back_inserter(d.remove_edges));
    for (graph::Vertex v = 0; v < n; ++v) {
      const bool now = in_front(v, k);
      const bool before = k > 0 && in_front(v, k - 1);
      if (now != before) d.weight_edits.push_back({v, now ? kHotWeight : 1.0});
    }
    in.meshes.push_back(in.meshes.back().apply(d));
    prev = refined;
  }
  return in;
}

lb::AdaptiveOptions front_options(const sim::MachineSpec& spec, const FrontSizes& sz) {
  lb::AdaptiveOptions opts;
  opts.lb.check_interval = sz.sweeps_per_check;  // the gain horizon of a remap
  opts.cpu = sim::CpuCostModel::sun4();
  opts.loop = exec::LoopCostModel::sun4();
  opts.enable_lb = true;
  opts.coalesce = true;
  opts.coalesce_opts.policy = sched::CoalescePolicy::kAdaptive;
  opts.coalesce_opts.bytes_per_elem = sizeof(double);
  opts.rotate_delegates = true;
  opts.measured_feedback = true;
  opts.lb.objective = partition::ArrangementObjective::from_network(spec.net, sizeof(double));
  return opts;
}

Result run_adaptive_front(const Options& o) {
  const FrontSizes sz = front_sizes(o);
  const auto transport = o.transport.value_or(mp::TransportKind::kTcp);
  Result res;
  res.workload = "adaptive_front";
  res.transport = transport_name(transport);

  const auto spec = sim::MachineSpec::uniform_ethernet(kRanks);
  const auto opts = front_options(spec, sz);
  const auto phases = static_cast<std::size_t>(sz.phases);
  const std::size_t checks = phases * static_cast<std::size_t>(sz.checks_per_phase);
  const std::size_t sweeps_per_phase =
      static_cast<std::size_t>(sz.checks_per_phase * sz.sweeps_per_check);
  const std::size_t K = phases * sweeps_per_phase;
  const auto family = static_cast<std::size_t>(sz.family);

  // ---- untimed: the mesh family, and each member's oracle (reference ----
  // sweeps replayed over each phase's mesh)
  std::vector<FrontInputs> inputs;
  std::vector<std::vector<double>> references;
  std::vector<double> seq_sweeps;
  support::Fnv1a digest;
  for (std::size_t m = 0; m < family; ++m) {
    inputs.push_back(front_inputs(o, static_cast<int>(m)));
    const FrontInputs& in = inputs.back();
    digest.mix(in.meshes.back().fingerprint());
    references.push_back(initial_global(in.base.num_vertices()));
    for (std::size_t k = 0; k < phases; ++k) {
      reference_sweeps(in.meshes[k + 1], references.back(),
                       static_cast<int>(sweeps_per_phase), seq_sweeps);
    }
  }
  res.input_fingerprint = digest.digest();

  // Per family member: the deterministic outcome of its latest episode.
  struct MemberTotals {
    lb::AdaptiveReport counts;
    double check_v = 0.0, remap_v = 0.0, retune_v = 0.0, virtual_s = 0.0;
    int deltas = 0;  ///< apply_mesh_delta calls
    mp::CommStats comm;
  };
  std::vector<MemberTotals> members(family);

  // Every member runs at least once untraced (and once traced when tracing).
  EpisodeLoop loop(o, static_cast<int>(family) * (o.trace ? 2 : 1));
  std::vector<double> setups, setup_steal, order_s, init_s, skews;
  std::vector<std::vector<double>> sweeps;
  std::vector<double> check_ms, remap_ms, delta_ms, moved;
  double covered = 0.0;
  double traced_solve = 0.0;
  RankTimes t(K), tcheck(checks), tdelta(phases), tinit(1);
  std::vector<std::vector<lb::AdaptiveExecutor::CheckOutcome>> outcomes(
      kRanks, std::vector<lb::AdaptiveExecutor::CheckOutcome>(checks));
  std::vector<std::vector<double>> finals(kRanks);
  std::vector<double> moved_ep;

  while (loop.more()) {
    const bool traced = loop.traced_now();
    const auto job = static_cast<std::uint64_t>(loop.done + 1);
    const std::size_t m = static_cast<std::size_t>(loop.done / (o.trace ? 2 : 1)) % family;
    const FrontInputs& in = inputs[m];
    const auto n = in.base.num_vertices();
    const auto initial =
        partition::IntervalPartition::from_weights(n, std::vector<double>(kRanks, 1.0));
    MemberTotals& tot = members[m];
    set_tracing(traced);

    // ---- set-up: Phase A (RCB) + cluster + AdaptiveExecutor (Phase B) ----
    const StealMeter setup_stolen;
    const auto t0 = Clock::now();
    graph::Csr g0;
    const double ord = timed([&] {
      Span span("order.compute", kMain, job);
      g0 = in.base.permuted(order::compute(in.base, order::Method::kRcb));
    });
    mp::Cluster cluster(spec, mp::NodeMap::contiguous(kRanks, 2), transport);
    cluster.set_profile(1, sim::LoadProfile::periodic(8.0, 0.5, 1.0, 0.25));
    cluster.set_profile(3, sim::LoadProfile::periodic(14.0, 0.5, 0.3, 1.0));
    std::vector<std::unique_ptr<lb::AdaptiveExecutor>> execs(kRanks);
    cluster.run([&](mp::Process& p) {
      const auto r = static_cast<std::size_t>(p.rank());
      tinit.per_rank[r][0] = timed([&] {
        Span span("lb.init", p.rank(), job);
        execs[r] = std::make_unique<lb::AdaptiveExecutor>(p, g0, initial, opts);
      });
    });
    const double setup = seconds_between(t0, Clock::now());
    setup_steal.push_back(setup_stolen.frac());
    if (g0.fingerprint() != in.meshes.front().fingerprint()) {
      res.correct = false;
      res.notes.push_back("episode " + std::to_string(job) +
                          ": Phase A produced a different ordering than the input generator");
    }

    // ---- solve: per phase one mesh delta, then sweeps and one check ------
    int delta_calls = 0;  // rank 0's apply_mesh_delta calls
    cluster.reset_clocks();
    const double covered0 = Tracer::instance().top_level_seconds(0);
    const StealMeter stolen;
    const double solve = timed([&] {
      cluster.run([&](mp::Process& p) {
        const auto r = static_cast<std::size_t>(p.rank());
        pin_rank(p.rank());
        auto& ax = *execs[r];
        std::vector<double> y = initial_y(ax.partition(), p.rank());
        // Refined vertices cost their weight (the loop resets multipliers to
        // uniform on every rebuild, so they are re-installed after each).
        const graph::Csr* mesh = nullptr;
        auto install_work = [&] {
          const auto& part = ax.partition();
          std::vector<double> w(static_cast<std::size_t>(part.size(p.rank())));
          for (std::size_t i = 0; i < w.size(); ++i) {
            w[i] = mesh->weight(part.to_global(p.rank(), static_cast<graph::Vertex>(i)));
          }
          ax.set_vertex_work(std::move(w));
        };
        std::size_t sweep = 0;
        std::size_t check = 0;
        for (std::size_t k = 0; k < phases; ++k) {
          {
            const auto s0 = Clock::now();
            Span span("lb.apply_mesh_delta", p.rank(), job);
            ax.apply_mesh_delta(p, in.meshes[k + 1], in.deltas[k], nullptr, y);
            tdelta.per_rank[r][k] = seconds_between(s0, Clock::now());
            if (r == 0) ++delta_calls;
          }
          mesh = &in.meshes[k + 1];
          install_work();
          for (int c = 0; c < sz.checks_per_phase; ++c) {
            for (int i = 0; i < sz.sweeps_per_check; ++i) {
              const auto s0 = Clock::now();
              {
                Span span("lb.run", p.rank(), job);
                (void)ax.run(p, y, 1);
              }
              t.per_rank[r][sweep++] = seconds_between(s0, Clock::now());
            }
            const auto s0 = Clock::now();
            {
              Span span("lb.check_now", p.rank(), job);
              outcomes[r][check] = ax.check_now(p, y);
            }
            tcheck.per_rank[r][check] = seconds_between(s0, Clock::now());
            if (outcomes[r][check].decision.remap) {
              install_work();
              if (traced && r == 0) {
                const auto& d = ax.last_delta();
                moved_ep.push_back(static_cast<double>(d.from.moved(d.to)) /
                                   static_cast<double>(n));
              }
            }
            ++check;
          }
        }
        finals[r] = std::move(y);
      });
    });
    set_tracing(false);
    loop.finish(solve, traced, stolen.frac());
    if (traced) {
      covered += Tracer::instance().top_level_seconds(0) - covered0;
      traced_solve += solve;
      moved.insert(moved.end(), moved_ep.begin(), moved_ep.end());
    }
    moved_ep.clear();

    // ---- bookkeeping (untimed) -------------------------------------------
    setups.push_back(setup);
    order_s.push_back(ord);
    init_s.push_back(tinit.slowest(0));
    std::vector<double> ep;
    for (std::size_t j = 0; j < K; ++j) {
      ep.push_back(t.slowest(j));
      if (traced) skews.push_back(t.skew(j));
    }
    if (!traced) sweeps.push_back(std::move(ep));
    tot = MemberTotals{};
    tot.deltas = delta_calls;
    for (std::size_t c = 0; c < checks; ++c) {
      const auto& o0 = outcomes[0][c];
      double cv = 0.0, rv = 0.0, tv = 0.0;
      for (int r = 0; r < kRanks; ++r) {
        const auto& oc = outcomes[static_cast<std::size_t>(r)][c];
        cv = std::max(cv, oc.check_seconds);
        rv = std::max(rv, oc.remap_seconds);
        tv = std::max(tv, oc.retune_seconds);
      }
      tot.check_v += cv;
      tot.remap_v += rv;
      tot.retune_v += tv;
      ++tot.counts.checks;
      if (o0.decision.remap) ++tot.counts.remaps;
      if (o0.rotated) ++tot.counts.rotations;
      if (o0.replanned) ++tot.counts.replans;
      if (traced) (o0.decision.remap ? remap_ms : check_ms).push_back(tcheck.slowest(c) * 1e3);
    }
    if (traced) {
      for (std::size_t k = 0; k < phases; ++k) delta_ms.push_back(tdelta.slowest(k) * 1e3);
    }
    tot.virtual_s = cluster.makespan();
    tot.comm = cluster.total_stats();
    res.attempted += K;
    if (!bit_equal(gather(execs[0]->partition(), finals), references[m])) {
      res.failed += K;
      res.correct = false;
      res.notes.push_back("episode " + std::to_string(job) +
                          ": gathered y differs from the replayed reference");
    }
  }

  // Virtual time and counts: the family's mean episode and its totals (one
  // episode of each member), both functions of the seed alone.
  MemberTotals sum;
  for (const auto& mt : members) {
    sum.virtual_s += mt.virtual_s / static_cast<double>(family);
    sum.check_v += mt.check_v;
    sum.remap_v += mt.remap_v;
    sum.retune_v += mt.retune_v;
    sum.counts.checks += mt.counts.checks;
    sum.counts.remaps += mt.counts.remaps;
    sum.counts.rotations += mt.counts.rotations;
    sum.counts.replans += mt.counts.replans;
    sum.deltas += mt.deltas;
    sum.comm += mt.comm;
  }
  const auto& counts = sum.counts;
  set_end_to_end(res, setups, setup_steal, loop, sweeps, "sweep", sum.virtual_s);
  res.set("order.compute_s", median(order_s), "s", order_s.size());
  res.set("lb.init_s", median(init_s), "s", init_s.size());
  res.set("exec.sweep_skew", median(skews), "frac", skews.size());
  res.set("seq_sweep_ms_p50", median(seq_sweeps) * 1e3, "ms", seq_sweeps.size());
  set_comm_layers(res, sum.comm, static_cast<double>(K * family));
  res.set("lb.check_ms_p50", median(check_ms), "ms", check_ms.size());
  res.set("lb.remap_ms_p50", median(remap_ms), "ms", remap_ms.size());
  res.set("lb.delta_ms_p50", median(delta_ms), "ms", delta_ms.size());
  res.set("lb.checks", counts.checks, "count");
  res.set("lb.remaps", counts.remaps, "count");
  res.set("lb.rotations", counts.rotations, "count");
  res.set("lb.replans", counts.replans, "count");
  res.set("lb.deltas", sum.deltas, "count");
  res.set("lb.remap_rate", counts.checks > 0 ? static_cast<double>(counts.remaps) / counts.checks : 0.0,
          "frac", static_cast<std::uint64_t>(counts.checks));
  res.set("lb.check_virtual_s", sum.check_v, "s");
  res.set("lb.remap_virtual_s", sum.remap_v, "s");
  res.set("lb.retune_virtual_s", sum.retune_v, "s");
  res.set("partition.moved_frac", median(moved), "frac", moved.size());
  set_trace_layers(res, loop, covered, traced_solve);
  return res;
}

// ============================================================================
// service_stream — stance::Service under an open-loop, multi-tenant job
// stream: admission, plan cache (hits, misses, evictions, patches), batching.
// ============================================================================

constexpr double kOfferedRate = 40.0;  // events per host second (see README)
constexpr std::uint64_t kStreamMixSeed = 0x5157;

struct StreamSizes {
  int pool;
  int chain_vertices;
  int events;
  std::size_t cache_capacity;
};

StreamSizes stream_sizes(const Options& o) {
  return o.tiny ? StreamSizes{6, 300, 40, 3} : StreamSizes{16, 1500, 160, 7};
}

/// One entry of the precomputed job stream.
struct Event {
  enum Kind { kJob, kBurst, kEdit } kind = kJob;
  double due = 0.0;   ///< seconds after the episode start
  int mesh = 0;       ///< pool index (kJob, kBurst) or chain index (kEdit)
  int version = 0;    ///< kEdit: the chain version being edited
  int tenant = 0;
  int iterations = 4;
};

struct StreamInputs {
  std::vector<std::shared_ptr<const graph::Csr>> pool;
  std::vector<order::Method> ordering;  ///< per pool mesh
  /// Identity-ordered meshes edited in place: chains[c][v] -> [v + 1] by
  /// chain_deltas[c][v].
  std::vector<std::vector<std::shared_ptr<const graph::Csr>>> chains;
  std::vector<std::vector<graph::CsrDelta>> chain_deltas;
  std::vector<Event> events;
};

/// An edit of a chain mesh: a band of skip-level edges sliding along the
/// vertex numbering, one CsrDelta per version.
std::vector<graph::CsrDelta> chain_history(const graph::Csr& base, int versions,
                                           std::vector<std::shared_ptr<const graph::Csr>>& out) {
  const auto n = base.num_vertices();
  const graph::Vertex band = std::max<graph::Vertex>(8, n / 12);
  auto band_edges = [&](int v) {
    std::vector<graph::Edge> e;
    const graph::Vertex lo = static_cast<graph::Vertex>(
        (static_cast<std::int64_t>(v) * band / 2) % std::max<graph::Vertex>(1, n - band - 2));
    for (graph::Vertex u = lo; u < lo + band && u + 2 < n; ++u) {
      const auto nbrs = base.neighbors(u);
      if (std::find(nbrs.begin(), nbrs.end(), u + 2) != nbrs.end()) continue;
      e.emplace_back(u, u + 2);
    }
    return e;
  };
  std::vector<graph::CsrDelta> deltas(static_cast<std::size_t>(versions));
  out.push_back(std::make_shared<const graph::Csr>(base));
  std::vector<graph::Edge> prev;
  for (int v = 0; v < versions; ++v) {
    const auto now = band_edges(v);
    auto& d = deltas[static_cast<std::size_t>(v)];
    std::set_difference(now.begin(), now.end(), prev.begin(), prev.end(),
                        std::back_inserter(d.insert_edges));
    std::set_difference(prev.begin(), prev.end(), now.begin(), now.end(),
                        std::back_inserter(d.remove_edges));
    out.push_back(std::make_shared<const graph::Csr>(out.back()->apply(d)));
    prev = now;
  }
  return deltas;
}

StreamInputs stream_inputs(const Options& o) {
  const StreamSizes sz = stream_sizes(o);
  StreamInputs in;
  static constexpr graph::Vertex kSizes[] = {500, 1000, 2000, 4000};
  for (int i = 0; i < sz.pool; ++i) {
    const graph::Vertex nv = kSizes[i % 4] / (o.tiny ? 4 : 1);
    in.pool.push_back(std::make_shared<const graph::Csr>(
        graph::random_delaunay(nv, o.seed * 1000 + static_cast<std::uint64_t>(i))));
    // Spectral (the paper's ordering) on the small meshes, RCB on the large
    // ones: a cold build costs 2-30 ms, so one miss stalls a few jobs, not
    // the stream. With 7 cache entries about two thirds of the executions
    // hit, so the median job is a hit and the p90 job waited on a cold build,
    // each well inside its cluster of latencies rather than on the edge.
    in.ordering.push_back(i % 4 < 2 ? order::Method::kSpectral : order::Method::kRcb);
  }
  // Zipf(1.1) popularity over the pool, most popular first.
  std::vector<double> cdf;
  double total = 0.0;
  for (int i = 0; i < sz.pool; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
    cdf.push_back(total);
  }
  // The job mix (slots, bursts, edits, tenants) is a fixed property of the
  // workload, like the paper mesh; the seed makes the meshes and their edits.
  // A mix drawn per seed would change how many cold builds an episode pays
  // and swamp host-time differences between commits.
  Rng rng(kStreamMixSeed);
  auto zipf = [&] {
    const double u = rng.uniform() * total;
    return static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  };
  // Consecutive single jobs alternate 4/5 sweeps and consecutive bursts 6/7,
  // so only a burst's own jobs can ever share an execution: batching is
  // decided by the stream, not by how fast the service drains it.
  int bursts = 0;
  int edits = 0;
  std::vector<int> versions(2, 0);
  for (int i = 0; i < sz.events; ++i) {
    Event e;
    e.due = static_cast<double>(i) / kOfferedRate;
    e.tenant = static_cast<int>(rng.uniform() * 3.0);
    const double u = rng.uniform();
    if (u < 0.06) {
      e.kind = Event::kBurst;
      e.mesh = zipf();
      e.iterations = 6 + bursts++ % 2;
    } else if (u < 0.16) {
      e.kind = Event::kEdit;
      e.mesh = edits++ % 2;
      e.version = versions[static_cast<std::size_t>(e.mesh)]++;
    } else {
      e.kind = Event::kJob;
      e.mesh = zipf();
    }
    in.events.push_back(e);
  }
  in.chains.resize(2);
  in.chain_deltas.resize(2);
  for (int c = 0; c < 2; ++c) {
    const auto base =
        graph::random_delaunay(sz.chain_vertices, o.seed * 7919 + static_cast<std::uint64_t>(c));
    in.chain_deltas[static_cast<std::size_t>(c)] =
        chain_history(base, std::max(1, versions[static_cast<std::size_t>(c)]),
                      in.chains[static_cast<std::size_t>(c)]);
  }
  return in;
}

std::uint64_t stream_fingerprint(const StreamInputs& in) {
  support::Fnv1a h;
  for (const auto& m : in.pool) h.mix(m->fingerprint());
  for (const auto& ch : in.chains) h.mix(ch.back()->fingerprint());
  for (const auto& e : in.events) {
    h.mix(static_cast<std::uint64_t>(e.kind));
    h.mix(static_cast<std::uint64_t>(e.mesh));
    h.mix(static_cast<std::uint64_t>(e.tenant));
  }
  return h.digest();
}

Result run_service_stream(const Options& o) {
  const StreamSizes sz = stream_sizes(o);
  const auto transport = o.transport.value_or(mp::TransportKind::kVirtual);
  Result res;
  res.workload = "service_stream";
  res.transport = transport_name(transport);

  const StreamInputs in = stream_inputs(o);  // untimed input generation
  res.input_fingerprint = stream_fingerprint(in);
  const auto fleet = sim::MachineSpec::sun4_ethernet(kRanks);
  ServiceOptions sopts;
  sopts.max_in_flight = 64;
  sopts.plan_cache_capacity = sz.cache_capacity;

  auto make_spec = [&](const std::shared_ptr<const graph::Csr>& mesh, order::Method ordering,
                       int tenant, int iterations) {
    JobSpec s;
    s.tenant = "tenant" + std::to_string(tenant);
    s.mesh = mesh;
    s.config.ordering = ordering;
    s.iterations = iterations;
    return s;
  };

  struct Done {
    std::shared_ptr<const graph::Csr> mesh;
    order::Method ordering;
    int iterations;
    double checksum;
  };
  std::vector<Done> to_check;  // every completed job, checked after the clock stops

  EpisodeLoop loop(o);
  std::vector<double> setups, setup_steal, hit_ms, miss_ms, patch_ms, depth, lag, busy_frac;
  std::vector<std::vector<double>> latencies;
  double virtual_s = 0.0;
  double covered = 0.0;
  double traced_solve = 0.0;
  ServiceStats last{};
  struct ExecTotals {
    double sweeps = 0, msgs = 0, bytes = 0, inter = 0, collectives = 0, comm_v = 0,
           compute_v = 0;
  } comm;
  while (loop.more()) {
    const bool traced = loop.traced_now();
    set_tracing(traced);
    // ---- set-up: Service construction, repeated; the last one serves ----
    std::unique_ptr<Service> svc;
    std::vector<double> ctor;
    const StealMeter setup_stolen;
    for (int i = 0; i < 51; ++i) {
      svc.reset();
      ctor.push_back(timed([&] {
        Span span("stance.Service", kMain, 0);
        svc = std::make_unique<Service>(fleet, sopts, mp::NodeMap{}, transport);
      }));
    }
    setups.push_back(median(ctor));
    setup_steal.push_back(setup_stolen.frac());

    // ---- solve: the open-loop stream ------------------------------------
    std::vector<double> latency;  // due time to result, per job
    std::unordered_map<std::uint64_t, double> due_of;
    std::unordered_map<std::uint64_t, Done> spec_of;
    double billed = 0.0;
    double busy = 0.0;  // host seconds inside drain()
    comm = ExecTotals{};
    int parity = 0;
    const double covered0 = Tracer::instance().top_level_seconds(kMain);
    const StealMeter stolen;
    const auto start = Clock::now();
    auto since = [&] { return seconds_between(start, Clock::now()); };
    auto submit = [&](JobSpec spec, double due) {
      const Done d{spec.mesh, spec.config.ordering, spec.iterations, 0.0};
      Admission adm;
      {
        Span span("stance.submit", kMain, 0);
        adm = svc->submit(std::move(spec));
      }
      ++res.attempted;
      lag.push_back(std::max(0.0, since() - due));
      if (!adm.accepted) {
        ++res.failed;
        res.notes.push_back(std::string("submit rejected: ") + adm.detail);
        return;
      }
      due_of[adm.job] = due;
      spec_of[adm.job] = d;
    };
    auto drain = [&] {
      depth.push_back(static_cast<double>(svc->stats().queued));
      std::vector<JobResult> out;
      busy += timed([&] {
        Span span("stance.drain", kMain, 0);
        out = svc->drain();
      });
      const double now = since();
      for (const auto& jr : out) {
        const double ms = (now - due_of[jr.job]) * 1e3;
        if (!traced) latency.push_back(ms / 1e3);
        if (traced) (jr.plan_cache_hit ? hit_ms : miss_ms).push_back(ms);
        billed += jr.charged_seconds;
        // A batch reports its shared execution's stats on every job: count
        // each execution once.
        const double share = 1.0 / static_cast<double>(jr.batch_size);
        comm.sweeps += share * spec_of[jr.job].iterations;
        comm.msgs += share * static_cast<double>(jr.loop_stats.messages_sent);
        comm.bytes += share * static_cast<double>(jr.loop_stats.bytes_sent);
        comm.inter += share * static_cast<double>(jr.loop_stats.inter_node_sent);
        comm.collectives += share * static_cast<double>(jr.loop_stats.collectives);
        comm.comm_v += share * jr.loop_stats.comm_seconds;
        comm.compute_v += share * jr.loop_stats.compute_seconds;
        Done d = spec_of[jr.job];
        d.checksum = jr.checksum;
        to_check.push_back(std::move(d));
      }
    };
    auto single = [&](const std::shared_ptr<const graph::Csr>& mesh, order::Method ord,
                      int tenant, double due) {
      submit(make_spec(mesh, ord, tenant, 4 + (parity++ % 2)), due);
    };
    std::size_t next = 0;
    while (next < in.events.size() || svc->stats().queued > 0) {
      const double now = since();
      if (next < in.events.size() && in.events[next].due <= now) {
        while (next < in.events.size() && in.events[next].due <= since()) {
          const Event& e = in.events[next++];
          const auto idx = static_cast<std::size_t>(e.mesh);
          switch (e.kind) {
            case Event::kJob:
              single(in.pool[idx], in.ordering[idx], e.tenant, e.due);
              break;
            case Event::kBurst:
              for (int b = 0; b < 4; ++b) {
                submit(make_spec(in.pool[idx], in.ordering[idx], (e.tenant + b) % 3,
                                 e.iterations),
                       e.due);
              }
              break;
            case Event::kEdit: {
              // Use the current version (caching its plan), splice the edit
              // into the cached plan, then serve the edited mesh.
              const auto& chain = in.chains[idx];
              const auto v = static_cast<std::size_t>(e.version);
              const auto old_spec =
                  make_spec(chain[v], order::Method::kIdentity, e.tenant, 4);
              single(chain[v], order::Method::kIdentity, e.tenant, e.due);
              drain();
              bool ok = false;
              ++res.attempted;
              patch_ms.push_back(timed([&] {
                Span span("stance.patch_plan", kMain, 0);
                ok = svc->patch_plan(old_spec, in.chain_deltas[idx][v], chain[v + 1]);
              }) * 1e3);
              if (!ok) {
                ++res.failed;
                res.notes.push_back("patch_plan found no resident plan to splice");
              }
              single(chain[v + 1], order::Method::kIdentity, e.tenant, e.due);
              break;
            }
          }
        }
        continue;
      }
      if (svc->stats().queued > 0) {
        drain();
        continue;
      }
      const double wait = in.events[next].due - now;
      Span span("load.idle", kMain, 0);
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    const double solve = since();
    set_tracing(false);
    loop.finish(solve, traced, stolen.frac());
    if (traced) {
      covered += Tracer::instance().top_level_seconds(kMain) - covered0;
      traced_solve += solve;
    }
    virtual_s = billed;
    busy_frac.push_back(busy / solve);
    if (!traced) latencies.push_back(std::move(latency));
    last = svc->stats();
  }

  // ---- oracle: every job's checksum against a cold Session of its spec ---
  std::map<std::pair<const graph::Csr*, int>, double> oracle;
  for (const auto& d : to_check) {
    const auto key = std::make_pair(d.mesh.get(), static_cast<int>(d.ordering) * 100 + d.iterations);
    auto it = oracle.find(key);
    if (it == oracle.end()) {
      SessionConfig cfg;
      cfg.machine = fleet;
      cfg.ordering = d.ordering;
      Session session(*d.mesh, cfg);
      it = oracle.emplace(key, session.run_static(d.iterations).checksum).first;
    }
    if (it->second != d.checksum) {
      ++res.failed;
      res.correct = false;
      res.notes.push_back("job checksum differs from a cold Session run");
    }
  }
  if (res.failed > 0) res.correct = false;

  set_end_to_end(res, setups, setup_steal, loop, latencies, "job", virtual_s);
  if (comm.sweeps > 0.0) {
    res.set("mp.msgs_per_sweep", comm.msgs / comm.sweeps, "count");
    res.set("mp.bytes_per_sweep", comm.bytes / comm.sweeps, "B");
  }
  res.set("mp.inter_node_msgs", comm.inter, "count");
  res.set("mp.collectives", comm.collectives, "count");
  res.set("mp.comm_virtual_s", comm.comm_v, "s");
  res.set("exec.compute_virtual_s", comm.compute_v, "s");
  const auto& pc = last.plan_cache;
  res.set("stance.hit_ms_p50", median(hit_ms), "ms", hit_ms.size());
  res.set("stance.miss_ms_p50", median(miss_ms), "ms", miss_ms.size());
  res.set("stance.patch_ms_p50", median(patch_ms), "ms", patch_ms.size());
  res.set("stance.hits", static_cast<double>(pc.hits), "count");
  res.set("stance.misses", static_cast<double>(pc.misses), "count");
  res.set("stance.hit_rate",
          pc.hits + pc.misses > 0 ? static_cast<double>(pc.hits) /
                                        static_cast<double>(pc.hits + pc.misses)
                                  : 0.0,
          "frac", pc.hits + pc.misses);
  res.set("stance.evictions", static_cast<double>(pc.evictions), "count");
  res.set("stance.patches", static_cast<double>(pc.patches), "count");
  res.set("stance.batched_frac",
          last.completed > 0 ? static_cast<double>(last.batched_jobs) /
                                   static_cast<double>(last.completed)
                             : 0.0,
          "frac", last.completed);
  res.set("stance.executions", static_cast<double>(last.executions), "count");
  res.set("stance.rejected", static_cast<double>(last.rejected), "count");
  res.set("stance.queue_depth_p99", pct(depth, 0.99), "count", depth.size());
  res.set("stance.busy_frac", median(busy_frac), "frac", busy_frac.size());
  res.set("load.gen_lag_ms_p99", pct(lag, 0.99) * 1e3, "ms", lag.size());
  set_trace_layers(res, loop, covered, traced_solve);
  return res;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

Result run_workload(const std::string& name, const Options& opts) {
  const StealMeter stolen;
  Result res;
  if (name == "static_paper") {
    res = run_static_paper(opts);
  } else if (name == "adaptive_front") {
    res = run_adaptive_front(opts);
  } else if (name == "service_stream") {
    res = run_service_stream(opts);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  Tracer::instance().disable();
  // How noisy the host was: the share of CPU time the hypervisor took away
  // while the workload ran. Host times from noisy runs read high.
  res.set("host.steal_frac", stolen.frac(), "frac");
  return res;
}

std::uint64_t input_fingerprint(const std::string& name, const Options& opts) {
  if (name == "static_paper") return static_mesh(opts).fingerprint();
  if (name == "adaptive_front") return front_inputs(opts, 0).meshes.back().fingerprint();
  if (name == "service_stream") return stream_fingerprint(stream_inputs(opts));
  throw std::invalid_argument("unknown workload: " + name);
}

std::map<std::string, std::string> machine_fingerprint() {
  std::map<std::string, std::string> fp;
  fp["cpu_model"] = cpu_model();
  fp["nproc"] = std::to_string(std::thread::hardware_concurrency());
#if defined(__clang__)
  fp["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  fp["compiler"] = std::string("gcc ") + __VERSION__;
#else
  fp["compiler"] = "unknown";
#endif
  fp["build_type"] = PERFBENCH_BUILD_TYPE;
  fp["cxx_flags"] = PERFBENCH_CXX_FLAGS;
  fp["simd"] = exec::simd::mode_name(exec::simd::dispatch_mode());
  return fp;
}

}  // namespace perfbench
