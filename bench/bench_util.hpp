// Shared helpers for the experiment harness binaries (bench/fig*, table*).
//
// Each binary regenerates one table or figure from the paper's evaluation
// (Section VII), printing the same rows/series. Flags: --runs=N / --seed=N
// trim or grow the Monte-Carlo effort; defaults finish in seconds.
//
// The JSON-writing perf harnesses (bench/*_bench.cpp) share BenchRun: one
// --runs / --out parser and one envelope around their results.
#pragma once

#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

namespace sc::bench {

/// Parses "--name=value" style flags; returns fallback when absent.
inline std::uint64_t flag_u64(int argc, char** argv, const char* name,
                              std::uint64_t fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0)
      return std::strtoull(argv[i] + prefix.size(), nullptr, 10);
  }
  return fallback;
}

/// Parses "--name=value" string flags; returns fallback when absent.
inline std::string flag_str(int argc, char** argv, const char* name,
                            const char* fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0)
      return std::string(argv[i] + prefix.size());
  }
  return fallback;
}

inline void header(const char* title) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title);
  std::printf("============================================================\n");
}

inline void subheader(const char* title) {
  std::printf("\n--- %s ---\n", title);
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Wall ms of a fixed integer loop (eight independent multiply-add chains),
/// best of five. Taken before and after a run, it tells a slow host from a
/// slow build: the loop does the same work on every commit.
inline double probe_ms() {
  static volatile std::uint64_t rounds = 100'000;
  static volatile std::uint64_t sink = 0;
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    for (std::uint64_t i = 0, n = rounds; i < n; ++i)
      for (int k = 0; k < 8; ++k)
        a[k] = a[k] * 0x9E3779B97F4A7C15ULL + (a[(k + 1) & 7] >> 7);
    for (const std::uint64_t v : a) sink = sink ^ v;
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

/// CPU model from /proc/cpuinfo ("unknown" where there is none).
inline std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size())
      return line.substr(colon + 2);
  }
  return "unknown";
}

/// One JSON-writing harness run. Parses the two flags every harness takes:
///   --runs=small|full|N   effort: CI smoke, the committed size, or a count
///   --out=PATH            JSON output (default BENCH_<name>.json)
/// and writes the results in the envelope every committed BENCH_*.json has:
///   {"schema": "<name>_bench/v2",
///    "env": {nproc, cpu, build_type, compiler, flags, git_rev, probe_ms},
///    "results": {...}}
/// build_type, compiler, flags and git_rev are fixed when the build is
/// configured (bench/CMakeLists.txt); nproc and cpu are read when it runs.
/// probe_ms holds probe_ms() before and after the run.
class BenchRun {
 public:
  BenchRun(int argc, char** argv, const std::string& name)
      : name_(name),
        runs_(flag_str(argc, argv, "runs", "full")),
        out_(flag_str(argc, argv, "out", ("BENCH_" + name + ".json").c_str())),
        probe_before_ms_(probe_ms()) {}

  bool small() const { return runs_ == "small"; }

  /// `small_size` for --runs=small, N for --runs=N, `full_size` otherwise.
  std::uint64_t size(std::uint64_t small_size, std::uint64_t full_size) const {
    if (small()) return small_size;
    const std::uint64_t n = std::strtoull(runs_.c_str(), nullptr, 10);
    return n ? n : full_size;
  }

  /// Appends printf-formatted text to the body of the "results" object.
  [[gnu::format(printf, 2, 3)]] void results(const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (n > 0) {
      const std::size_t at = results_.size();
      results_.resize(at + static_cast<std::size_t>(n) + 1);
      std::vsnprintf(results_.data() + at, static_cast<std::size_t>(n) + 1, fmt,
                     args);
      results_.resize(at + static_cast<std::size_t>(n));
    }
    va_end(args);
  }

  /// Times the closing probe and writes the envelope to --out. Returns the
  /// process exit status: 0, or 1 when the path cannot be written.
  int write() const {
    const double probe_after_ms = probe_ms();
    std::FILE* f = std::fopen(out_.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "%s_bench: cannot open %s for writing\n",
                   name_.c_str(), out_.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"schema\": \"%s_bench/v2\",\n", name_.c_str());
    std::fprintf(f,
                 "  \"env\": {\"nproc\": %u, \"cpu\": \"%s\", "
                 "\"build_type\": \"%s\", \"compiler\": \"%s\", "
                 "\"flags\": \"%s\", \"git_rev\": \"%s\", "
                 "\"probe_ms\": [%.3f, %.3f]},\n",
                 std::thread::hardware_concurrency(),
                 json_escape(cpu_model()).c_str(),
                 json_escape(SC_BENCH_BUILD_TYPE).c_str(),
                 json_escape(SC_BENCH_COMPILER).c_str(),
                 json_escape(SC_BENCH_FLAGS).c_str(),
                 json_escape(SC_BENCH_GIT_REV).c_str(), probe_before_ms_,
                 probe_after_ms);
    std::fprintf(f, "  \"results\": {\n%s\n  }\n}\n", results_.c_str());
    const bool ok = std::fclose(f) == 0;
    if (!ok) {
      std::fprintf(stderr, "%s_bench: cannot write %s\n", name_.c_str(),
                   out_.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", out_.c_str());
    return 0;
  }

 private:
  std::string name_;
  std::string runs_;
  std::string out_;
  double probe_before_ms_;
  std::string results_;
};

}  // namespace sc::bench
