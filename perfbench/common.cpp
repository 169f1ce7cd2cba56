#include "common.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>


namespace perfbench {

std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size_pages = 0;
  std::size_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

void release_free_memory() { malloc_trim(0); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  if (rank > 0) --rank;
  return values[std::min(rank, values.size() - 1)];
}

// -------------------------------------------------------------------- spans

std::uint32_t Spans::intern(const std::string& name) {
  auto [it, fresh] =
      ids_.emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (fresh) names_.push_back(name);
  return it->second;
}

double Spans::total_s(const std::string& name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) return 0.0;
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == it->second) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e9;
}

std::size_t Spans::count(const std::string& name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) return 0;
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return s.name == it->second; }));
}

std::map<std::string, double> Spans::self_seconds() const {
  // Children of one parent never overlap (one thread, sequential calls),
  // so a parent's covered time is the sum of its children's durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[names_[s.name]] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e9;
  }
  return out;
}

bool Spans::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "span,name,parent,start_ns,end_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    long long parent = s.parent == kNoParent ? -1 : s.parent;
    std::fprintf(f, "%zu,%s,%lld,%lld,%lld\n", i, names_[s.name].c_str(),
                 parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------------- result

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (mismatches.size() < 20) mismatches.push_back(what);
}

void Result::require(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (mismatches.size() < 20) mismatches.push_back(what);
}

// --------------------------------------------------------------------- city

City make_city() {
  // bench::scenario(8.0, Duration::minutes(30)).
  constexpr double kScale = 8.0;
  TraceConfig c;
  auto grid = static_cast<std::uint32_t>(10 * std::sqrt(kScale));
  c.roads.grid_cols = std::max(4u, grid);
  c.roads.grid_rows = std::max(4u, grid);
  c.roads.block_size_m = 120.0;
  c.roads.seed = 101;
  c.cameras.camera_count = static_cast<std::size_t>(60 * kScale);
  c.cameras.seed = 102;
  c.mobility.object_count = static_cast<std::size_t>(50 * kScale);
  c.mobility.seed = 103;
  c.duration = Duration::minutes(30);
  c.tick = Duration::millis(500);
  c.seed = 104;

  City city;
  city.trace = TraceGenerator::generate(c);
  city.world = city.trace.roads.bounds(150.0);
  STCN_CHECK(!city.trace.detections.empty());
  city.start = city.trace.detections.front().time;
  city.end = city.trace.detections.back().time;
  return city;
}

ClusterConfig city_cluster_config() {
  ClusterConfig config;
  config.worker_count = 8;
  return config;
}

HybridStrategy::Config city_strategy_config() {
  HybridStrategy::Config hc;
  hc.tiles_x = 8;
  hc.tiles_y = 8;
  hc.hot_camera_threshold = 4;
  hc.hot_split_factor = 4;
  return hc;
}

std::unique_ptr<Cluster> make_city_cluster(const City& city,
                                           const ClusterConfig& config) {
  return std::make_unique<Cluster>(
      city.world,
      std::make_unique<HybridStrategy>(city.world, city.trace.cameras,
                                       city_strategy_config()),
      config);
}

ClusterConfig live_cluster_config() {
  ClusterConfig config;
  config.worker_count = 8;
  config.tiered_storage = true;
  config.hot_sealed_blocks = 1;
  config.demote_after = Duration::minutes(3);
  config.retention = Duration::minutes(20);
  return config;
}

HybridStrategy::Config live_strategy_config() {
  HybridStrategy::Config hc;
  hc.tiles_x = 2;
  hc.tiles_y = 2;
  hc.hot_split_factor = 1;
  return hc;
}

std::unique_ptr<Cluster> make_live_cluster(const City& city) {
  return std::make_unique<Cluster>(
      city.world,
      std::make_unique<HybridStrategy>(city.world, city.trace.cameras,
                                       live_strategy_config()),
      live_cluster_config());
}

}  // namespace perfbench
