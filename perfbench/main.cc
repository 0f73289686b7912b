// Benchmark runner: runs one workload once per process, so the process's
// peak RSS is that run's.
//
//   perfbench --workload <renumber|centricity|passive|crawl> --seed <n>
//             --jobs <j> [--trace <spans.json>] [--render]
//
// The last stdout line is one JSON object: timings, VmHWM, the digest of
// the rendered output and, with --trace, the per-layer metrics, the absent
// metrics with their reasons, and the spans written to <spans.json>.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "perfbench.h"

namespace {

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--jobs <j> [--trace <spans.json>] [--render]\n",
               message.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(std::string_view flag, const char* text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*text == '\0' || *text == '-' || *end != '\0') {
    usage(std::string(flag) + " expects a non-negative integer");
  }
  return value;
}

/// FNV-1a 64 over the rendered output: the digest run.py pins per seed.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// VmHWM of this process in MB (10^6 bytes).
double peak_rss_mb() {
  double mb = 0;
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, status) != nullptr) {
      unsigned long long kib = 0;
      if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) {
        mb = static_cast<double>(kib) * 1024.0 / 1e6;
      }
    }
    std::fclose(status);
  }
  return mb;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

bool write_spans(const std::string& path, const perfbench::Tracer& tracer) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"spans\": [");
  const auto spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(out,
                 "%s\n  {\"id\": %zu, \"parent\": %zu, \"name\": %s, "
                 "\"start_s\": %s, \"end_s\": %s}",
                 i == 0 ? "" : ",", s.id, s.parent, quoted(s.name).c_str(),
                 number(s.start_s).c_str(), number(s.end_s).c_str());
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string trace_path;
  bool render = false;
  bool have_seed = false;
  bool have_jobs = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--render") {
      render = true;
      continue;
    }
    if (i + 1 >= argc) usage(std::string(flag) + " requires a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = parse_u64(flag, value);
      have_seed = true;
    } else if (flag == "--jobs") {
      options.jobs = static_cast<std::size_t>(parse_u64(flag, value));
      have_jobs = options.jobs > 0;
    } else if (flag == "--trace") {
      trace_path = value;
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  bool known = false;
  for (const auto& name : perfbench::workload_names()) {
    known = known || name == options.workload;
  }
  if (!known || !have_seed || !have_jobs) {
    usage("--workload (a known name), --seed and --jobs (> 0) are required");
  }

  perfbench::Tracer tracer;
  if (!trace_path.empty()) options.tracer = &tracer;
  perfbench::Result result;
  try {
    result = perfbench::run_workload(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), error.what());
    return 1;
  }
  if (!trace_path.empty() && !write_spans(trace_path, tracer)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  if (render) std::fputs(result.rendered.c_str(), stdout);

  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(fnv1a(result.rendered)));
  std::string json = "{\"workload\": " + quoted(options.workload) +
                     ", \"seed\": " + std::to_string(options.seed) +
                     ", \"jobs\": " + std::to_string(options.jobs) +
                     ", \"wall_s\": " + number(result.wall_s) +
                     ", \"setup_s\": " + number(result.setup_s) +
                     ", \"peak_rss_mb\": " + number(peak_rss_mb()) +
                     ", \"digest\": " + quoted(digest) +
                     ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
                     ", \"compiler\": " + quoted(PERFBENCH_COMPILER);
  if (options.tracer != nullptr) {
    json += ", \"layers\": {";
    const char* sep = "";
    for (const auto& [name, value] : result.layers) {
      json += sep + quoted(name) + ": " + number(value);
      sep = ", ";
    }
    json += "}, \"absent\": {";
    sep = "";
    for (const auto& [name, reason] : result.absent) {
      json += sep + quoted(name) + ": " + quoted(reason);
      sep = ", ";
    }
    json += "}";
  }
  std::printf("%s}\n", json.c_str());
  return 0;
}
