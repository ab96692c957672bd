// sc_perfbench — the repository benchmark program (see README.md).
//
//   sc_perfbench --workload economy|block_pipeline|replication --seed N
//                --seconds S --trace 0|1 [--scratch DIR] [--trace-out FILE]
//   sc_perfbench --smoke
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). The exit code is 0 only when every correctness gate passed.
// --smoke runs each workload untraced and traced at tiny sizes and checks the
// result contract; it exits 0 when all of that holds.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>

#include "common.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

Result run_workload(std::string_view workload, const Options& options,
                    perfbench::SpanLog& spans) {
  if (workload == "economy") return perfbench::run_economy(options, spans);
  if (workload == "block_pipeline") return perfbench::run_block_pipeline(options, spans);
  return perfbench::run_replication(options, spans);
}

bool known_workload(std::string_view workload) {
  return workload == "economy" || workload == "block_pipeline" || workload == "replication";
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Fills the metric set of this run mode; a layer the workload did not
/// exercise reads 0. Returns false when an end-to-end metric is missing.
bool collect(const Result& result, bool trace,
             std::vector<std::pair<perfbench::MetricSpec, double>>* out) {
  bool complete = true;
  if (trace) {
    for (const auto& spec : perfbench::kPerLayer) {
      const auto it = result.per_layer.find(spec.name);
      out->push_back({spec, it == result.per_layer.end() ? 0.0 : it->second});
    }
  } else {
    for (const auto& spec : perfbench::kEndToEnd) {
      const auto it = result.end_to_end.find(spec.name);
      if (it == result.end_to_end.end()) complete = false;
      out->push_back({spec, it == result.end_to_end.end() ? 0.0 : it->second});
    }
  }
  return complete;
}

std::string result_line(const Result& result,
                        const std::vector<std::pair<perfbench::MetricSpec, double>>& metrics) {
  std::string line = "{\"correct\": ";
  line += result.errors.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ", ";
    line += "\"" + std::string(metrics[i].first.name) + "\": {\"value\": " +
            number(metrics[i].second) + ", \"unit\": \"" + metrics[i].first.unit + "\"}";
  }
  return line + "}}";
}

std::string details_line(std::string_view workload, const Options& options,
                         const Result& result, std::size_t spans) {
  std::string line = "{\"run\": {\"workload\": \"" + std::string(workload) +
                     "\", \"seed\": " + std::to_string(options.seed) +
                     ", \"trace\": " + (options.trace ? "1" : "0") +
                     ", \"lanes\": " + std::to_string(perfbench::pipeline_lanes()) +
                     ", \"build_type\": \"" SC_PERFBENCH_BUILD_TYPE "\"" +
                     ", \"compiler\": \"" + json_escape(__VERSION__) + "\"" +
                     ", \"spans\": " + std::to_string(spans) + ", \"info\": {";
  bool first = true;
  for (const auto& [key, value] : result.info) {
    line += (first ? "\"" : ", \"") + key + "\": \"" + json_escape(value) + "\"";
    first = false;
  }
  line += "}, \"errors\": [";
  for (std::size_t i = 0; i < result.errors.size(); ++i)
    line += (i ? ", \"" : "\"") + json_escape(result.errors[i]) + "\"";
  return line + "]}}";
}

int smoke() {
  int failures = 0;
  for (const char* workload : {"economy", "block_pipeline", "replication"}) {
    std::string digests[2];
    for (int trace = 0; trace <= 1; ++trace) {
      Options options;
      options.seed = 7;
      options.seconds = 0.0;  // the minimum op count only
      options.trace = trace == 1;
      options.smoke = true;
      options.scratch = "perfbench-smoke-" + std::to_string(getpid());
      perfbench::SpanLog spans;
      Result result = run_workload(workload, options, spans);
      std::filesystem::remove_all(options.scratch);
      result.per_layer["trace.spans"] = static_cast<double>(spans.size());
      std::vector<std::pair<perfbench::MetricSpec, double>> metrics;
      std::vector<std::string> problems = result.errors;
      if (!collect(result, options.trace, &metrics)) problems.push_back("missing metric");
      if (result.attempted == 0) problems.push_back("nothing attempted");
      if (result.failed != 0) problems.push_back(std::to_string(result.failed) + " failed ops");
      for (const auto& [spec, value] : metrics)
        if (!std::isfinite(value) || (!options.trace && value <= 0.0))
          problems.push_back(std::string("bad value for ") + spec.name);
      if (options.trace && spans.size() == 0) problems.push_back("traced run recorded no spans");
      digests[trace] = result.info["incomes_digest"];
      std::printf("smoke %-15s trace=%d  %s\n", workload, trace,
                  problems.empty() ? "ok" : "FAILED");
      for (const std::string& p : problems) std::printf("  %s\n", p.c_str());
      failures += problems.empty() ? 0 : 1;
    }
    if (digests[0] != digests[1]) {
      std::printf("smoke %-15s  FAILED: determinism digest differs between runs\n", workload);
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "sc_perfbench: %s\nusage: sc_perfbench --workload "
               "economy|block_pipeline|replication --seed N --seconds S --trace 0|1 "
               "[--scratch DIR] [--trace-out FILE]\n       sc_perfbench --smoke\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string workload, trace_out;
  options.scratch = "perfbench-scratch-" + std::to_string(getpid());
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") return smoke();
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0.0)) usage("bad --seconds");
    } else if (arg == "--trace") {
      if (std::string_view(value) != "0" && std::string_view(value) != "1")
        usage("bad --trace");
      options.trace = value[0] == '1';
    } else if (arg == "--scratch") {
      options.scratch = value;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      usage("unknown flag");
    }
  }
  if (!known_workload(workload)) usage("unknown --workload");

  std::filesystem::create_directories(options.scratch);
  perfbench::SpanLog spans;
  Result result = run_workload(workload, options, spans);
  std::filesystem::remove_all(options.scratch);
  result.per_layer["trace.spans"] = static_cast<double>(spans.size());
  if (options.trace && !trace_out.empty() && !spans.write_chrome_json(trace_out))
    result.gate(false, "could not write " + trace_out);

  std::vector<std::pair<perfbench::MetricSpec, double>> metrics;
  result.gate(collect(result, options.trace, &metrics), "an end-to-end metric is missing");
  std::printf("%s\n%s\n", details_line(workload, options, result, spans.size()).c_str(),
              result_line(result, metrics).c_str());
  return result.errors.empty() ? 0 : 1;
}
