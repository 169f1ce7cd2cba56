// Shared pieces of the stcn end-to-end benchmark: the city, the
// cluster configurations of the three workloads, wall-clock spans for the
// traced run, sample statistics, and the result record printed as JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/framework.h"
#include "partition/strategies.h"
#include "trace/generator.h"

namespace perfbench {

using namespace stcn;

// ------------------------------------------------------------------ options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// ------------------------------------------------------------------- clocks

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Resident set size of this process, from /proc/self/statm.
std::size_t resident_bytes();

/// Returns freed heap pages to the kernel, so the next RSS growth reading
/// measures what the next cluster allocates, not what the last one freed.
void release_free_memory();

// ------------------------------------------------------------------ samples

/// Nearest-rank quantile of a sample (q in [0, 1]); 0 for an empty one.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

// -------------------------------------------------------------------- spans

/// Spans of the traced run, kept in memory and written out at the end. A
/// span covers one call from the benchmark into one layer's public
/// function; `parent` links it to the benchmark operation that made it.
class Spans {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  struct Span {
    std::uint32_t name;  // index into names_
    std::uint32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  Spans() : origin_(Clock::now()) {}

  std::uint32_t open(const std::string& name,
                     std::uint32_t parent = kNoParent) {
    spans_.push_back({intern(name), parent, now_ns(), 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void close(std::uint32_t span) { spans_[span].end_ns = now_ns(); }

  /// Records a finished span measured by the caller.
  void add(const std::string& name, std::uint32_t parent,
           Clock::time_point start, Clock::time_point end) {
    spans_.push_back(
        {intern(name), parent, ns_between(origin_, start),
         ns_between(origin_, end)});
  }

  /// Summed duration of every span with this name, in seconds.
  [[nodiscard]] double total_s(const std::string& name) const;
  /// Number of spans with this name.
  [[nodiscard]] std::size_t count(const std::string& name) const;
  /// Self time per span name: duration minus the part covered by children.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Writes every span as CSV (name,parent,start_ns,end_ns).
  bool write_csv(const std::string& path) const;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  std::uint32_t intern(const std::string& name);
  [[nodiscard]] std::int64_t now_ns() const {
    return ns_between(origin_, Clock::now());
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
};

// ------------------------------------------------------------------- result

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// First few disagreements, printed before the JSON line.
  std::vector<std::string> mismatches;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Counts one checked operation; a wrong answer counts as failed.
  void check(bool ok, const std::string& what);
  /// A benchmark-level invariant (not an operation) that must hold.
  void require(bool ok, const std::string& what);
};

// --------------------------------------------------------------------- city

/// The city of every workload: bench::scenario(8.0, 30 min) of the repo's
/// benches, at the scenario's own seeds — 480 cameras on a 28 x 28 road
/// grid, 400 moving objects, 30 minutes, 63,565 detections. The day is the
/// same in every run; the workload seed picks the queries, pursuit probes
/// and monitors. (Seeding the day as well made per-run medians depend on
/// the day: pursuit costs and the share of historical ranges that meet
/// cold blocks moved by a quarter between seeds.)
struct City {
  Trace trace;
  Rect world;
  TimePoint start;  // first detection time
  TimePoint end;    // last detection time
};

City make_city();

/// ingest_city / forensic_queries: 8 workers, HybridStrategy 8x8 tiles,
/// cameras split 4 ways in tiles with more than 4 cameras, default config.
HybridStrategy::Config city_strategy_config();
ClusterConfig city_cluster_config();
std::unique_ptr<Cluster> make_city_cluster(const City& city,
                                           const ClusterConfig& config);

/// live_ops: 8 workers, HybridStrategy 2x2 without hot splits, tiered
/// storage (1 hot sealed block, demotion after 3 min) and 20-min retention.
/// Four partitions of ~16k detections a day seal a 4096-row block every
/// ~8 minutes, so blocks demote and the cold tier serves the historical
/// ranges; with 4x4 tiles (<= 6.8k per partition) the one sealed block of
/// a partition always still holds rows of the last 3 minutes under 20-min
/// retention, and no block ever went cold.
HybridStrategy::Config live_strategy_config();
ClusterConfig live_cluster_config();
std::unique_ptr<Cluster> make_live_cluster(const City& city);

}  // namespace perfbench
