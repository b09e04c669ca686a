// Determinism self-test for the benchmark. At a tiny size, every workload
// runs twice with one seed and once on each transport (virtual, shm, tcp);
// virtual_s and every count metric must be identical across all of those
// runs. A second seed must change the generated inputs.
#include <cstdio>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

/// Metrics that must repeat exactly: the virtual clock and every count,
/// except the queue depth the service stream's loop sees, which depends on
/// how many jobs fell due while the previous drain() ran.
std::vector<std::pair<std::string, double>> deterministic(const perfbench::Result& r) {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, m] : r.metrics) {
    if (name == "stance.queue_depth_p99") continue;
    const bool virtual_clock = name.find("virtual") != std::string::npos;
    if (virtual_clock || m.unit == "count") out.emplace_back(name, m.value);
  }
  return out;
}

}  // namespace

int main() {
  using stance::mp::TransportKind;
  for (const std::string w : {"static_paper", "adaptive_front", "service_stream"}) {
    perfbench::Options base;
    base.tiny = true;
    base.episodes = 1;
    base.trace = true;  // counts are reported with the per-layer metrics
    base.seed = 3;

    std::vector<perfbench::Result> runs;
    runs.push_back(perfbench::run_workload(w, base));
    runs.push_back(perfbench::run_workload(w, base));
    for (const auto t : {TransportKind::kVirtual, TransportKind::kShm, TransportKind::kTcp}) {
      auto o = base;
      o.transport = t;
      runs.push_back(perfbench::run_workload(w, o));
    }
    const auto ref = deterministic(runs.front());
    expect(runs.front().metrics.at("virtual_s").value > 0.0, w + ": virtual_s is positive");
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto& r = runs[i];
      expect(r.correct && r.failed == 0, w + " run " + std::to_string(i) + " (" +
                                             r.transport + "): oracle");
      const auto got = deterministic(r);
      expect(got.size() == ref.size(), w + ": same deterministic metric set");
      for (std::size_t k = 0; k < std::min(got.size(), ref.size()); ++k) {
        char values[96];
        std::snprintf(values, sizeof(values), " = %.17g, first run %.17g", got[k].second,
                      ref[k].second);
        expect(got[k] == ref[k],
               w + " run " + std::to_string(i) + " (" + r.transport + "): " + got[k].first + values);
      }
    }
    std::printf("%s: %zu deterministic metrics compared across %zu runs\n", w.c_str(),
                ref.size(), runs.size());
    auto other = base;
    other.seed = base.seed + 1;
    expect(perfbench::input_fingerprint(w, base) != perfbench::input_fingerprint(w, other),
           w + ": another seed changes the generated inputs");
    expect(perfbench::input_fingerprint(w, base) == perfbench::input_fingerprint(w, base),
           w + ": the same seed regenerates the same inputs");
  }
  if (g_failures == 0) std::printf("perfbench determinism self-test: ok\n");
  return g_failures == 0 ? 0 : 1;
}
