// The benchmark's three workloads. Each runs whole jobs through the
// runtime's public API, checks every result against a sequential oracle and
// returns end-to-end metrics (host and virtual clocks) plus per-layer
// metrics timed around the benchmark's own calls into each layer. See
// README.md for why each workload exists and which layers it loads.
#pragma once
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mp/transport.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured window (set-up is outside it)
  bool trace = false;     ///< traced run: spans on, per-layer metrics reported
  /// Small inputs and a fixed episode count, for the determinism self-test.
  bool tiny = false;
  int episodes = 0;  ///< > 0: run exactly this many episodes, ignore `seconds`
  std::optional<stance::mp::TransportKind> transport;  ///< override the default
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< 0 = not a sampled statistic
};

struct Result {
  std::string workload;
  std::string transport;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;  ///< end-to-end and per-layer, by name
  std::uint64_t input_fingerprint = 0;    ///< digest of the generated inputs
  std::vector<std::string> notes;         ///< oracle mismatches, for stderr

  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
};

/// Runs one workload. Throws std::invalid_argument for an unknown name.
[[nodiscard]] Result run_workload(const std::string& name, const Options& opts);

/// Digest of the inputs a workload would generate for `opts` (mesh, deltas,
/// job stream), without running it.
[[nodiscard]] std::uint64_t input_fingerprint(const std::string& name, const Options& opts);

/// Host description recorded with every result: CPU model, nproc, compiler,
/// build flags and the SIMD mode the pack kernels dispatch to.
[[nodiscard]] std::map<std::string, std::string> machine_fingerprint();

}  // namespace perfbench
