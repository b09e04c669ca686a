// stance_perfbench: runs one workload and reports every metric by name.
//
//   stance_perfbench --workload static_paper --seed 1 --seconds 10 --trace 0
//                    [--out result.json] [--trace-out trace.json]
//
// Prints the machine fingerprint and one line per metric (value, unit,
// sample count), then writes the full result as JSON to --out. A traced run
// (--trace 1) also writes its spans as Chrome trace-event JSON to
// --trace-out. Exits 1 when any result differs from its oracle, 2 on bad
// arguments.
#include <cstdio>
#include <stdexcept>
#include <exception>
#include <string>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

bool write_result(const std::string& path, const perfbench::Result& res,
                  const perfbench::Options& opts,
                  const std::map<std::string, std::string>& machine) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"transport\": \"%s\",\n",
               res.workload.c_str(), res.transport.c_str());
  std::fprintf(f, "  \"seed\": %llu,\n  \"seconds\": %.17g,\n  \"trace\": %s,\n",
               static_cast<unsigned long long>(opts.seed), opts.seconds,
               opts.trace ? "true" : "false");
  std::fprintf(f, "  \"input_fingerprint\": \"%016llx\",\n",
               static_cast<unsigned long long>(res.input_fingerprint));
  std::fprintf(f, "  \"machine\": {");
  const char* sep = "";
  for (const auto& [k, v] : machine) {
    std::fprintf(f, "%s\n    \"%s\": \"%s\"", sep, k.c_str(), json_escape(v).c_str());
    sep = ",";
  }
  std::fprintf(f, "\n  },\n  \"correct\": %s,\n  \"attempted\": %llu,\n  \"failed\": %llu,\n",
               res.correct ? "true" : "false", static_cast<unsigned long long>(res.attempted),
               static_cast<unsigned long long>(res.failed));
  std::fprintf(f, "  \"metrics\": {");
  sep = "";
  for (const auto& [name, m] : res.metrics) {
    std::fprintf(f, "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"samples\": %llu}",
                 sep, name.c_str(), m.value, m.unit.c_str(),
                 static_cast<unsigned long long>(m.samples));
    sep = ",";
  }
  std::fprintf(f, "\n  }\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  std::string workload, out, trace_out;
  try {
    if (argc % 2 == 0) throw std::invalid_argument("every flag takes one value");
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      if (key == "--workload") {
        workload = val;
      } else if (key == "--seed") {
        opts.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opts.seconds = std::stod(val);
      } else if (key == "--trace") {
        opts.trace = std::stoi(val) != 0;
      } else if (key == "--out") {
        out = val;
      } else if (key == "--trace-out") {
        trace_out = val;
      } else {
        throw std::invalid_argument("unknown flag " + key);
      }
    }
    if (workload.empty()) throw std::invalid_argument("--workload is required");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stance_perfbench: %s\n", e.what());
    return 2;
  }

  const auto machine = perfbench::machine_fingerprint();
  perfbench::Result res;
  try {
    res = perfbench::run_workload(workload, opts);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "stance_perfbench: %s\n", e.what());
    return 2;
  }

  std::printf("workload %s  transport %s  seed %llu  trace %d\n", res.workload.c_str(),
              res.transport.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.trace ? 1 : 0);
  for (const auto& [k, v] : machine) std::printf("machine.%s  %s\n", k.c_str(), v.c_str());
  for (const auto& [name, m] : res.metrics) {
    if (m.samples > 0) {
      std::printf("%-26s %14.6g %-5s  n=%llu\n", name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("%-26s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("oracle  %s  attempted %llu  failed %llu\n", res.correct ? "ok" : "MISMATCH",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (const auto& note : res.notes) std::fprintf(stderr, "oracle: %s\n", note.c_str());

  if (opts.trace && !trace_out.empty()) {
    auto& tracer = perfbench::Tracer::instance();
    if (!tracer.write_chrome_json(trace_out)) {
      std::fprintf(stderr, "stance_perfbench: cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("trace  %s  (%zu spans, %zu beyond the cap not written)\n", trace_out.c_str(),
                tracer.recorded(), tracer.dropped());
  }
  if (!out.empty() && !write_result(out, res, opts, machine)) {
    std::fprintf(stderr, "stance_perfbench: cannot write %s\n", out.c_str());
    return 1;
  }
  std::fflush(stdout);
  return res.correct && res.failed == 0 ? 0 : 1;
}
