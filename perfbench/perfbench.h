// Shared types of the benchmark runner: the span recorder of the traced
// run, the per-layer metric tally, and what one workload run reports.

#ifndef DNSTTL_PERFBENCH_PERFBENCH_H
#define DNSTTL_PERFBENCH_PERFBENCH_H

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// In-memory span recorder for the traced run.  Spans are kept until the
/// run ends and written out by main(); shard threads record concurrently.
class Tracer {
 public:
  struct Span {
    std::size_t id = 0;
    std::size_t parent = 0;  ///< 0: no parent
    std::string name;
    double start_s = 0;  ///< since the tracer was created
    double end_s = 0;
  };

  Tracer() : epoch_(Clock::now()) {}

  std::size_t open(std::string name, std::size_t parent) {
    const double start = seconds_since(epoch_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{spans_.size() + 1, parent, std::move(name), start, 0});
    return spans_.size();
  }

  void close(std::size_t id) {
    const double end = seconds_since(epoch_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end_s = end;
  }

  /// Durations of the spans called @p name, in opening order.
  std::vector<double> durations(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.name == name) out.push_back(span.end_s - span.start_s);
    }
    return out;
  }

  /// Summed duration of every span called @p name.
  double total(std::string_view name) const {
    double sum = 0;
    for (double d : durations(name)) sum += d;
    return sum;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; records nothing when the tracer is null (untraced runs).
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, std::size_t parent)
      : tracer_(tracer),
        id_(tracer == nullptr ? 0 : tracer->open(std::move(name), parent)) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::size_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  std::size_t id_;
};

/// Per-layer metrics by name ("<src module>.<metric>"); shard tallies are
/// summed into the run's tally.
using Tally = std::map<std::string, double>;

inline void add_tally(Tally& into, const Tally& from) {
  for (const auto& [name, value] : from) into[name] += value;
}

/// What one workload run measured.
struct Result {
  double wall_s = 0;   ///< first library call to rendered output
  double setup_s = 0;  ///< inside the benchmark's set-up calls
  std::string rendered;     ///< the output the digest is taken over

  // Traced run only.  A per-layer metric is either in `layers` or in
  // `absent`, never in both.
  Tally layers;
  std::map<std::string, std::string> absent;  ///< metric -> reason
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t jobs = 1;
  Tracer* tracer = nullptr;  ///< non-null: the traced run
};

/// Workload names in the order the docs list them.
const std::vector<std::string>& workload_names();

/// Runs one workload once; the traced variant also fills the per-layer
/// tally and the absent list.
Result run_workload(const Options& options);

}  // namespace perfbench

#endif  // DNSTTL_PERFBENCH_PERFBENCH_H
