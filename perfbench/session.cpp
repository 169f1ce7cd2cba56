#include "session.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::string describe(const Query& q, std::size_t got, std::size_t want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s query %llu: %zu rows, oracle %zu",
                query_kind_name(q.kind),
                static_cast<unsigned long long>(q.id.value()), got, want);
  return buf;
}

std::vector<std::uint64_t> ids_of(const std::vector<Detection>& dets) {
  std::vector<std::uint64_t> out;
  out.reserve(dets.size());
  for (const Detection& d : dets) out.push_back(d.id.value());
  return out;
}

// Cold-tier positions are quantized to within 2^-21 m; distances may move
// by that much.
constexpr double kDistanceTolerance = 1e-5;

bool same_distances(const std::vector<Detection>& got, Point center,
                    const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    double d = std::sqrt(squared_distance(got[i].position, center));
    if (std::abs(d - want[i]) > kDistanceTolerance) return false;
  }
  return true;
}

/// detections_at through the cluster, counted and timed.
class CountingSource final : public CandidateSource {
 public:
  CountingSource(const CandidateSource& inner, Spans* spans,
                 std::uint32_t parent)
      : inner_(inner), spans_(spans), parent_(parent) {}

  [[nodiscard]] std::vector<Detection> detections_at(
      CameraId camera, const TimeInterval& window) const override {
    auto t0 = Clock::now();
    std::vector<Detection> out = inner_.detections_at(camera, window);
    auto t1 = Clock::now();
    ++fetches;
    fetch_s += std::chrono::duration<double>(t1 - t0).count();
    if (spans_ != nullptr) {
      spans_->add("reid.detections_at", parent_, t0, t1);
    }
    return out;
  }
  [[nodiscard]] std::vector<CameraId> all_cameras() const override {
    return inner_.all_cameras();
  }

  mutable std::uint64_t fetches = 0;
  mutable double fetch_s = 0.0;

 private:
  const CandidateSource& inner_;
  Spans* spans_;
  std::uint32_t parent_;
};

}  // namespace

// ------------------------------------------------------------------- oracle

Oracle::Oracle(const Trace& trace)
    : dets_(trace.detections), ingested_(trace.detections.size()) {
  for (std::size_t i = 0; i < dets_.size(); ++i) {
    by_camera_[dets_[i].camera.value()].push_back(
        static_cast<std::uint32_t>(i));
    by_object_[dets_[i].object.value()].push_back(
        static_cast<std::uint32_t>(i));
  }
}

std::pair<std::size_t, std::size_t> Oracle::slice(
    const TimeInterval& interval) const {
  auto end = dets_.begin() + static_cast<std::ptrdiff_t>(ingested_);
  auto lo = std::lower_bound(
      dets_.begin(), end, interval.begin,
      [](const Detection& d, TimePoint t) { return d.time < t; });
  auto hi = std::lower_bound(
      lo, end, interval.end,
      [](const Detection& d, TimePoint t) { return d.time < t; });
  return {static_cast<std::size_t>(lo - dets_.begin()),
          static_cast<std::size_t>(hi - dets_.begin())};
}

std::vector<std::uint64_t> Oracle::range(const Rect& region,
                                         const TimeInterval& interval) const {
  std::vector<std::uint64_t> out;
  auto [first, last] = slice(interval);
  for (std::size_t i = first; i < last; ++i) {
    if (region.contains(dets_[i].position)) out.push_back(dets_[i].id.value());
  }
  return out;
}

std::vector<std::uint64_t> Oracle::circle(const Circle& c,
                                          const TimeInterval& interval) const {
  std::vector<std::uint64_t> out;
  auto [first, last] = slice(interval);
  for (std::size_t i = first; i < last; ++i) {
    double dx = dets_[i].position.x - c.center.x;
    double dy = dets_[i].position.y - c.center.y;
    if (dx * dx + dy * dy <= c.radius * c.radius) {
      out.push_back(dets_[i].id.value());
    }
  }
  return out;
}

std::vector<std::uint64_t> Oracle::ids_in(
    const std::vector<std::uint32_t>& positions,
    const TimeInterval& interval) const {
  std::vector<std::uint64_t> out;
  for (std::uint32_t i : positions) {
    if (i >= ingested_) break;
    if (interval.contains(dets_[i].time)) out.push_back(dets_[i].id.value());
  }
  return out;
}

std::vector<std::uint64_t> Oracle::camera_window(
    CameraId camera, const TimeInterval& interval) const {
  auto it = by_camera_.find(camera.value());
  if (it == by_camera_.end()) return {};
  return ids_in(it->second, interval);
}

std::vector<std::uint64_t> Oracle::trajectory(
    ObjectId object, const TimeInterval& interval) const {
  auto it = by_object_.find(object.value());
  if (it == by_object_.end()) return {};
  return ids_in(it->second, interval);
}

std::map<std::uint64_t, std::uint64_t> Oracle::count(
    const Rect& region, const TimeInterval& interval, GroupBy group_by) const {
  std::map<std::uint64_t, std::uint64_t> out;
  auto [first, last] = slice(interval);
  std::uint64_t total = 0;
  for (std::size_t i = first; i < last; ++i) {
    if (!region.contains(dets_[i].position)) continue;
    if (group_by == GroupBy::kCamera) {
      ++out[dets_[i].camera.value()];
    } else {
      ++total;
    }
  }
  if (group_by != GroupBy::kCamera) out[0] = total;
  return out;
}

std::map<std::uint64_t, std::uint64_t> Oracle::heatmap(
    const Rect& region, double cell_size, const TimeInterval& interval) const {
  // Cells are cell_size squares anchored at the region's min corner,
  // numbered row-major over ceil(width / cell_size) columns.
  auto cols = static_cast<std::uint64_t>(
      std::ceil((region.max.x - region.min.x) / cell_size));
  std::map<std::uint64_t, std::uint64_t> out;
  auto [first, last] = slice(interval);
  for (std::size_t i = first; i < last; ++i) {
    Point p = dets_[i].position;
    if (!region.contains(p)) continue;
    auto col = static_cast<std::uint64_t>(std::floor((p.x - region.min.x) /
                                                     cell_size));
    auto row = static_cast<std::uint64_t>(std::floor((p.y - region.min.y) /
                                                     cell_size));
    ++out[row * cols + col];
  }
  return out;
}

std::vector<double> Oracle::knn_distances(Point center, std::uint32_t k,
                                          const TimeInterval& interval) const {
  std::vector<double> d2;
  auto [first, last] = slice(interval);
  d2.reserve(last - first);
  for (std::size_t i = first; i < last; ++i) {
    d2.push_back(squared_distance(dets_[i].position, center));
  }
  std::size_t n = std::min<std::size_t>(k, d2.size());
  std::partial_sort(d2.begin(), d2.begin() + static_cast<std::ptrdiff_t>(n),
                    d2.end());
  d2.resize(n);
  for (double& v : d2) v = std::sqrt(v);
  return d2;
}

std::vector<Detection> Oracle::detections_at(
    CameraId camera, const TimeInterval& window) const {
  std::vector<Detection> out;
  auto it = by_camera_.find(camera.value());
  if (it == by_camera_.end()) return out;
  for (std::uint32_t i : it->second) {
    if (i >= ingested_) break;
    if (window.contains(dets_[i].time)) out.push_back(dets_[i]);
  }
  return out;
}

std::vector<CameraId> OracleCandidateSource::all_cameras() const {
  std::vector<CameraId> out;
  out.reserve(cameras_.size());
  for (const Camera& cam : cameras_.cameras()) out.push_back(cam.id);
  return out;
}

// --------------------------------------------------------------------- reid

Reid::Reid(const Trace& trace) {
  auto t0 = Clock::now();
  graph.learn(trace.detections);
  learn_ms = seconds_since(t0) * 1e3;
  // bench_path_reconstruction's settings, with paths capped at 4 hops: at
  // 8 the cost per path had a step right at its median, so the median
  // jumped between runs.
  params.cone.max_hops = 2;
  params.cone.min_edge_count = 2;
  params.min_similarity = 0.55;
  params.max_matches = 5;
  path.beam_width = 4;
  path.max_path_length = 4;
  path.hop_horizon = Duration::minutes(2);
}

// ------------------------------------------------------------------- client

Client::Client(Cluster& cluster, const City& city, const Oracle& oracle,
               const Reid& reid, Result& result, Spans* spans)
    : cluster_(cluster), city_(city), oracle_(oracle), reid_(reid),
      result_(result), spans_(spans) {
  const auto& counters = cluster_.network().metrics().counters();
  bytes_sent_ = counters.at("bytes_sent").get();
  messages_sent_ = counters.at("messages_sent").get();
}

std::uint64_t Client::net_bytes() const { return bytes_sent_->value(); }
std::uint64_t Client::net_messages() const { return messages_sent_->value(); }

void Client::ingest(std::span<const Detection> detections) {
  if (spans_ == nullptr) {
    cluster_.ingest_all(detections);
    return;
  }
  // Cluster::ingest_all, one layer down.
  std::uint64_t bytes0 = net_bytes();
  std::uint64_t messages0 = net_messages();
  Coordinator& coordinator = cluster_.coordinator();
  SimNetwork& network = cluster_.network();
  std::uint32_t root = spans_->open("ingest");
  for (const Detection& d : detections) {
    if (d.time > network.now()) {
      auto t0 = Clock::now();
      network.run_until_idle(d.time);
      spans_->add("net.run_until_idle", root, t0, Clock::now());
    }
    auto t0 = Clock::now();
    coordinator.ingest(d, network);
    spans_->add("coordinator.ingest", root, t0, Clock::now());
  }
  auto t0 = Clock::now();
  coordinator.flush_ingest(network);
  auto t1 = Clock::now();
  spans_->add("coordinator.flush_ingest", root, t0, t1);
  network.run_until_idle(network.now() + Duration::seconds(2));
  auto t2 = Clock::now();
  spans_->add("net.run_until_idle", root, t1, t2);
  spans_->close(root);
  tally_.detections += detections.size();
  tally_.ingest_bytes += net_bytes() - bytes0;
  tally_.ingest_messages += net_messages() - messages0;
}

QueryResult Client::execute(const Query& q, std::uint32_t parent) {
  if (spans_ == nullptr) return cluster_.execute(q);
  // Cluster::execute, one layer down.
  Coordinator& coordinator = cluster_.coordinator();
  SimNetwork& network = cluster_.network();
  std::uint64_t bytes0 = net_bytes();
  std::uint64_t messages0 = net_messages();
  auto t0 = Clock::now();
  std::uint64_t request = coordinator.submit(q, network);
  auto t1 = Clock::now();
  while (!coordinator.is_complete(request)) {
    if (!network.step()) break;
  }
  auto t2 = Clock::now();
  std::optional<QueryResult> r = coordinator.poll(request);
  auto t3 = Clock::now();
  spans_->add("coordinator.submit", parent, t0, t1);
  spans_->add("net.step_loop", parent, t1, t2);
  spans_->add("coordinator.poll", parent, t2, t3);
  ++tally_.queries;
  tally_.query_bytes += net_bytes() - bytes0;
  tally_.query_messages += net_messages() - messages0;
  STCN_CHECK(r.has_value());
  return std::move(*r);
}

void Client::record(const std::string& label, double value, double seconds) {
  latencies_[label].push_back(value);
  ++queries_;
  query_s_ += seconds;
}

void Client::query(const Query& request, const std::string& label) {
  Query q = request;
  q.id = cluster_.next_query_id();
  std::uint32_t root =
      spans_ != nullptr ? spans_->open("query." + label) : Spans::kNoParent;
  auto t0 = Clock::now();
  QueryResult r = execute(q, root);
  double s = seconds_since(t0);
  if (spans_ != nullptr) spans_->close(root);
  record(label, s * 1e6, s);
  check(q, r);
}

void Client::check(const Query& q, const QueryResult& r) {
  switch (q.kind) {
    case QueryKind::kRange:
    case QueryKind::kCircle:
    case QueryKind::kCameraWindow:
    case QueryKind::kTrajectory: {
      std::vector<std::uint64_t> want =
          q.kind == QueryKind::kRange    ? oracle_.range(q.region, q.interval)
          : q.kind == QueryKind::kCircle ? oracle_.circle(q.circle, q.interval)
          : q.kind == QueryKind::kCameraWindow
              ? oracle_.camera_window(q.camera, q.interval)
              : oracle_.trajectory(q.object, q.interval);
      std::vector<std::uint64_t> got = ids_of(r.detections);
      result_.check(got == want, describe(q, got.size(), want.size()));
      break;
    }
    case QueryKind::kCount: {
      auto want = oracle_.count(q.region, q.interval, q.group_by);
      result_.check(r.counts == want,
                    describe(q, r.counts.size(), want.size()));
      break;
    }
    case QueryKind::kHeatmap: {
      auto want = oracle_.heatmap(q.region, q.cell_size, q.interval);
      result_.check(r.counts == want,
                    describe(q, r.counts.size(), want.size()));
      break;
    }
    case QueryKind::kKnn: {
      auto want = oracle_.knn_distances(q.center, q.k, q.interval);
      result_.check(same_distances(r.detections, q.center, want),
                    describe(q, r.detections.size(), want.size()));
      break;
    }
  }
}

void Client::knn_adaptive(Point center, std::uint32_t k,
                          const TimeInterval& interval) {
  std::uint64_t rounds0 =
      cluster_.coordinator().counters().get("knn_adaptive_rounds");
  std::uint32_t root = spans_ != nullptr
                           ? spans_->open("cluster.execute_knn_adaptive")
                           : Spans::kNoParent;
  auto t0 = Clock::now();
  QueryResult r = cluster_.execute_knn_adaptive(center, k, interval);
  double s = seconds_since(t0);
  if (spans_ != nullptr) {
    spans_->close(root);
    ++tally_.knn_adaptive;
    tally_.knn_adaptive_rounds +=
        cluster_.coordinator().counters().get("knn_adaptive_rounds") -
        rounds0;
  }
  record("knn_adaptive", s * 1e6, s);
  auto want = oracle_.knn_distances(center, k, interval);
  result_.check(same_distances(r.detections, center, want),
                "adaptive knn: " + std::to_string(r.detections.size()) +
                    " rows, oracle " + std::to_string(want.size()));
}

void Client::reid_path(const Detection& probe) {
  ReidEngine engine(reid_.graph, reid_.params);
  PathReconstructor reconstructor(engine, reid_.path);
  DistributedCandidateSource distributed(cluster_, city_.trace.cameras);
  std::uint32_t root = spans_ != nullptr
                           ? spans_->open("reid.reconstruct")
                           : Spans::kNoParent;
  CountingSource source(distributed, spans_, root);
  auto t0 = Clock::now();
  ReconstructedPath path = reconstructor.reconstruct(probe, source);
  double s = seconds_since(t0);
  if (spans_ != nullptr) {
    spans_->close(root);
    ++tally_.paths;
    tally_.fetches += source.fetches;
    tally_.fetch_s += source.fetch_s;
    tally_.path_s += s;
    tally_.candidates += path.candidates_examined;
  }
  record("reid_path", s * 1e3, s);

  OracleCandidateSource reference(oracle_, city_.trace.cameras);
  ReconstructedPath want = reconstructor.reconstruct(probe, reference);
  bool same = ids_of(path.hops) == ids_of(want.hops) &&
              path.score == want.score &&
              path.candidates_examined == want.candidates_examined;
  result_.check(same, "reid path from detection " +
                          std::to_string(probe.id.value()) + ": " +
                          std::to_string(path.hops.size()) + " hops, oracle " +
                          std::to_string(want.hops.size()));
}

// ----------------------------------------------------------------- monitors

void check_monitor(const Cluster& cluster, const Oracle& oracle,
                   const ContinuousQuerySpec& spec, Duration monitor_tick,
                   Result& result) {
  // Worker ticks fire at whole multiples of monitor_tick from time 0;
  // run_until_idle stops short of its deadline, so the last tick that ran
  // is the last multiple strictly before now.
  std::int64_t tick = monitor_tick.count_micros();
  std::int64_t now = cluster.now().micros_since_origin();
  TimePoint last_tick((now - 1) / tick * tick);
  std::vector<std::uint64_t> want =
      oracle.range(spec.region, {last_tick - spec.window, TimePoint::max()});
  std::sort(want.begin(), want.end());
  std::vector<std::uint64_t> got = ids_of(cluster.live_answer(spec.id));
  result.check(got == want, "monitor " + std::to_string(spec.id.value()) +
                                ": " + std::to_string(got.size()) +
                                " live, oracle " + std::to_string(want.size()));
}

}  // namespace perfbench
