#ifndef DNSTTL_BENCH_COMMON_H
#define DNSTTL_BENCH_COMMON_H

#include <sys/resource.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "atlas/platform.h"
#include "core/world.h"
#include "par/pool.h"

namespace dnsttl::bench {

/// Command-line knobs shared by every experiment binary:
///   --scale <f>   scale probe/resolver counts (default 1.0 = paper scale)
///   --seed <n>    RNG seed (default 1)
///   --full        alias for --scale 1.0 (paper scale, the default)
///   --quick       alias for --scale 0.1 (CI-friendly)
///   --jobs <n>    worker threads for sharded experiments (0 = hardware;
///                 default from DNSTTL_JOBS, else hardware).  Output is
///                 byte-identical for every value — shard layout is a
///                 function of the workload, jobs only sets concurrency.
///   --json <path> also write a machine-readable BENCH_*.json report
/// Flags accept both "--flag value" and "--flag=value".  Unknown flags and
/// non-numeric values print usage and exit non-zero (atof-style silent
/// zeros made a typoed "--scale O.5" run the full paper scale).
struct BenchArgs {
  double scale = 1.0;
  std::uint64_t seed = 1;
  std::string json_path;
  bool quick = false;
  std::size_t jobs = par::default_jobs();

  static void print_usage(const char* program) {
    std::fprintf(stderr,
                 "usage: %s [--scale <f>] [--seed <n>] [--quick] [--full] "
                 "[--jobs <n>] [--json <path>]\n",
                 program);
  }

  [[noreturn]] static void usage_error(const char* program,
                                       const std::string& message) {
    std::fprintf(stderr, "%s: %s\n", program, message.c_str());
    print_usage(program);
    std::exit(2);
  }

  static double parse_double(const char* program, std::string_view flag,
                             const std::string& text) {
    errno = 0;
    char* end = nullptr;
    double value = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size() || errno != 0) {
      usage_error(program, std::string(flag) + " expects a number, got \"" +
                               text + "\"");
    }
    return value;
  }

  static std::uint64_t parse_u64(const char* program, std::string_view flag,
                                 const std::string& text) {
    errno = 0;
    char* end = nullptr;
    unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || end != text.c_str() + text.size() || errno != 0 ||
        text[0] == '-') {
      usage_error(program, std::string(flag) +
                               " expects a non-negative integer, got \"" +
                               text + "\"");
    }
    return static_cast<std::uint64_t>(value);
  }

  /// Consumes one argument (plus a value argument for "--flag value" form).
  /// Returns the number of argv slots consumed, 0 if the flag is unknown.
  int consume(const char* program, int argc, char** argv, int i) {
    std::string_view arg = argv[i];
    std::string value;
    bool inline_value = false;
    if (auto eq = arg.find('='); eq != std::string_view::npos) {
      value = std::string(arg.substr(eq + 1));
      arg = arg.substr(0, eq);
      inline_value = true;
    }
    auto take_value = [&](std::string_view flag) -> std::string {
      if (inline_value) {
        return value;
      }
      if (i + 1 >= argc) {
        usage_error(program, std::string(flag) + " requires a value");
      }
      return argv[i + 1];
    };
    if (arg == "--scale") {
      scale = parse_double(program, arg, take_value(arg));
      return inline_value ? 1 : 2;
    }
    if (arg == "--seed") {
      seed = parse_u64(program, arg, take_value(arg));
      return inline_value ? 1 : 2;
    }
    if (arg == "--jobs") {
      jobs = static_cast<std::size_t>(parse_u64(program, arg, take_value(arg)));
      if (jobs == 0) {
        jobs = par::hardware_jobs();
      }
      return inline_value ? 1 : 2;
    }
    if (arg == "--json") {
      json_path = take_value(arg);
      return inline_value ? 1 : 2;
    }
    if (arg == "--quick") {
      scale = 0.1;
      quick = true;
      return 1;
    }
    if (arg == "--full") {
      scale = 1.0;
      quick = false;
      return 1;
    }
    if (arg == "--help" || arg == "-h") {
      print_usage(program);
      std::exit(0);
    }
    return 0;
  }

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    const char* program = argc > 0 ? argv[0] : "bench";
    for (int i = 1; i < argc;) {
      int consumed = args.consume(program, argc, argv, i);
      if (consumed == 0) {
        usage_error(program, std::string("unknown flag \"") + argv[i] + "\"");
      }
      i += consumed;
    }
    if (args.scale <= 0.0) {
      args.scale = 1.0;
    }
    return args;
  }

  atlas::PlatformSpec platform_spec() const {
    atlas::PlatformSpec spec;
    spec.probe_count =
        static_cast<std::size_t>(9000 * scale) < 50
            ? 50
            : static_cast<std::size_t>(9000 * scale);
    spec.resolver_count =
        static_cast<std::size_t>(6000 * scale) < 40
            ? 40
            : static_cast<std::size_t>(6000 * scale);
    return spec;
  }
};

inline void print_header(const char* id, const char* title) {
  std::printf("==========================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("Cache Me If You Can: Effects of DNS Time-to-Live (IMC'19)\n");
  std::printf("==========================================================\n");
}

/// Peak resident set size of this process in bytes.  Prefers VmHWM from
/// /proc/self/status: ru_maxrss is copied across fork() and NOT reset by
/// execve(), so a small benchmark spawned from a large parent (the
/// bench_compare.py gate) would otherwise report the parent's footprint.
/// VmHWM is per-mm and starts fresh at exec.
inline std::uint64_t peak_rss_bytes() {
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, status) != nullptr) {
      unsigned long long kib = 0;
      if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) {
        std::fclose(status);
        return static_cast<std::uint64_t>(kib) * 1024;
      }
    }
    std::fclose(status);
  }
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

/// Machine-readable benchmark report writer: collects named throughput
/// metrics plus run metadata (seed, scale, jobs, wall time, peak RSS) and
/// writes a BENCH_*.json file, establishing a perf trajectory across
/// revisions.  Every experiment binary builds one right after parsing its
/// flags and returns finish() from main.
class JsonReport {
 public:
  /// Starts the run's wall clock.
  JsonReport(std::string benchmark_id, const BenchArgs& args)
      : benchmark_id_(std::move(benchmark_id)),
        json_path_(args.json_path),
        seed_(args.seed),
        scale_(args.scale),
        jobs_(args.jobs),
        start_(std::chrono::steady_clock::now()) {}

  /// Wall seconds since construction.
  double elapsed_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  /// Ends the run: writes the report to the --json path, when one was
  /// given, with the wall time since construction.  Prints nothing on
  /// stdout.  Returns main's exit status: 0, or 1 when the report cannot
  /// be written.
  int finish() const {
    if (json_path_.empty()) {
      return 0;
    }
    return write(json_path_, elapsed_seconds()) ? 0 : 1;
  }

  /// Records @p ops operations over @p wall_seconds; ops_per_sec is derived
  /// (0 when no time elapsed).
  void add_metric(const std::string& name, const std::string& unit,
                  std::uint64_t ops, double wall_seconds) {
    metrics_.push_back(Metric{
        name, unit, ops, wall_seconds,
        wall_seconds > 0 ? static_cast<double>(ops) / wall_seconds : 0.0});
  }

  /// Writes the report; returns false (with a message on stderr) on I/O
  /// failure.
  bool write(const std::string& path, double total_wall_seconds) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write JSON report to %s: %s\n",
                   path.c_str(), std::strerror(errno));
      return false;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"benchmark\": \"%s\",\n", benchmark_id_.c_str());
    std::fprintf(out, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(seed_));
    std::fprintf(out, "  \"scale\": %g,\n", scale_);
    std::fprintf(out, "  \"jobs\": %zu,\n", jobs_);
    std::fprintf(out, "  \"wall_seconds_total\": %.6f,\n", total_wall_seconds);
    std::fprintf(out, "  \"peak_rss_bytes\": %llu,\n",
                 static_cast<unsigned long long>(peak_rss_bytes()));
    std::fprintf(out, "  \"metrics\": [\n");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"unit\": \"%s\", \"ops\": %llu, "
                   "\"wall_seconds\": %.6f, \"ops_per_sec\": %.1f}%s\n",
                   m.name.c_str(), m.unit.c_str(),
                   static_cast<unsigned long long>(m.ops), m.wall_seconds,
                   m.ops_per_sec, i + 1 < metrics_.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    return true;
  }

 private:
  struct Metric {
    std::string name;
    std::string unit;
    std::uint64_t ops = 0;
    double wall_seconds = 0;
    double ops_per_sec = 0;
  };

  std::string benchmark_id_;
  std::string json_path_;
  std::uint64_t seed_ = 1;
  double scale_ = 1.0;
  std::size_t jobs_ = 1;
  std::chrono::steady_clock::time_point start_;
  std::vector<Metric> metrics_;
};

}  // namespace dnsttl::bench

#endif  // DNSTTL_BENCH_COMMON_H
