// The client side of every workload: an oracle that answers each query by
// brute force over the trace's detection vector, and the client that sends
// queries and ingest through the cluster's public API, times them, checks
// every answer against the oracle and, in the traced run, wraps each call
// into a layer in a span.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "reid/path_reconstruction.h"
#include "reid/transition_graph.h"

namespace perfbench {

/// Brute-force answers over the first `ingested` detections of the trace
/// (the trace is sorted by time, so that prefix is what the cluster holds).
/// No index: per-camera and per-object position lists only, scanned
/// linearly. Id lists come out in (time, id) order, like merged results.
class Oracle {
 public:
  explicit Oracle(const Trace& trace);

  void set_ingested(std::size_t n) { ingested_ = n; }

  [[nodiscard]] std::vector<std::uint64_t> range(
      const Rect& region, const TimeInterval& interval) const;
  [[nodiscard]] std::vector<std::uint64_t> circle(
      const Circle& circle, const TimeInterval& interval) const;
  [[nodiscard]] std::vector<std::uint64_t> camera_window(
      CameraId camera, const TimeInterval& interval) const;
  [[nodiscard]] std::vector<std::uint64_t> trajectory(
      ObjectId object, const TimeInterval& interval) const;
  [[nodiscard]] std::map<std::uint64_t, std::uint64_t> count(
      const Rect& region, const TimeInterval& interval,
      GroupBy group_by) const;
  [[nodiscard]] std::map<std::uint64_t, std::uint64_t> heatmap(
      const Rect& region, double cell_size,
      const TimeInterval& interval) const;
  /// Distances of the k nearest detections, ascending.
  [[nodiscard]] std::vector<double> knn_distances(
      Point center, std::uint32_t k, const TimeInterval& interval) const;
  /// Detections of one camera in a window, in (time, id) order.
  [[nodiscard]] std::vector<Detection> detections_at(
      CameraId camera, const TimeInterval& window) const;

 private:
  /// Positions [first, last) of the ingested detections whose time lies
  /// in `interval`.
  [[nodiscard]] std::pair<std::size_t, std::size_t> slice(
      const TimeInterval& interval) const;
  [[nodiscard]] std::vector<std::uint64_t> ids_in(
      const std::vector<std::uint32_t>& positions,
      const TimeInterval& interval) const;

  const std::vector<Detection>& dets_;
  std::size_t ingested_;
  std::map<std::uint64_t, std::vector<std::uint32_t>> by_camera_;
  std::map<std::uint64_t, std::vector<std::uint32_t>> by_object_;
};

/// CandidateSource over the oracle: the reference for path checks.
class OracleCandidateSource final : public CandidateSource {
 public:
  OracleCandidateSource(const Oracle& oracle, const CameraNetwork& cameras)
      : oracle_(oracle), cameras_(cameras) {}
  [[nodiscard]] std::vector<Detection> detections_at(
      CameraId camera, const TimeInterval& window) const override {
    return oracle_.detections_at(camera, window);
  }
  [[nodiscard]] std::vector<CameraId> all_cameras() const override;

 private:
  const Oracle& oracle_;
  const CameraNetwork& cameras_;
};

/// Re-identification set-up shared by the workloads.
struct Reid {
  TransitionGraph graph;
  ReidParams params;
  PathParams path;
  double learn_ms = 0.0;

  explicit Reid(const Trace& trace);
};

/// Per-layer accounting the client gathers in the traced run.
struct LayerTally {
  std::uint64_t detections = 0;     // detections ingested through ingest()
  std::uint64_t queries = 0;        // queries sent through submit/poll
  std::uint64_t knn_adaptive = 0;   // execute_knn_adaptive calls
  std::uint64_t knn_adaptive_rounds = 0;
  std::uint64_t paths = 0;          // reid path reconstructions
  std::uint64_t fetches = 0;        // detections_at calls inside paths
  std::uint64_t candidates = 0;     // candidates examined by paths
  double fetch_s = 0.0;
  double path_s = 0.0;
  std::uint64_t ingest_bytes = 0, ingest_messages = 0;
  std::uint64_t query_bytes = 0, query_messages = 0;
};

/// The workload's one closed-loop client: each call returns when the
/// cluster has answered.
class Client {
 public:
  /// `spans` null: the end-to-end path (Cluster::ingest_all and
  /// Cluster::execute). Non-null: the traced path, which makes the same
  /// calls one layer down (Coordinator::ingest / flush_ingest,
  /// SimNetwork::run_until_idle / step, Coordinator::submit / poll) so
  /// each can be timed. Cluster::execute also feeds range, circle and
  /// heatmap answers back into the selectivity estimator; the traced path
  /// cannot, so adaptive k-NN plans there start from a less-trained one.
  Client(Cluster& cluster, const City& city, const Oracle& oracle,
         const Reid& reid, Result& result, Spans* spans);

  /// Ingests detections (time-ordered) and pumps them to delivery.
  void ingest(std::span<const Detection> detections);

  /// Executes one query, times it under `label`, checks it.
  void query(const Query& q, const std::string& label);
  void knn_adaptive(Point center, std::uint32_t k,
                    const TimeInterval& interval);
  void reid_path(const Detection& probe);

  /// Latency samples (us) by label; "reid_path" samples are in ms.
  [[nodiscard]] const std::map<std::string, std::vector<double>>& latencies()
      const {
    return latencies_;
  }
  [[nodiscard]] std::uint64_t queries() const { return queries_; }
  [[nodiscard]] double query_seconds() const { return query_s_; }
  [[nodiscard]] const LayerTally& tally() const { return tally_; }

 private:
  QueryResult execute(const Query& q, std::uint32_t parent);
  void check(const Query& q, const QueryResult& r);
  void record(const std::string& label, double value, double seconds);
  [[nodiscard]] std::uint64_t net_bytes() const;
  [[nodiscard]] std::uint64_t net_messages() const;

  Cluster& cluster_;
  const City& city_;
  const Oracle& oracle_;
  const Reid& reid_;
  Result& result_;
  Spans* spans_;
  const Counter* bytes_sent_ = nullptr;
  const Counter* messages_sent_ = nullptr;
  std::map<std::string, std::vector<double>> latencies_;
  std::uint64_t queries_ = 0;
  double query_s_ = 0.0;
  LayerTally tally_;
};

/// Checks a monitor's live answer against the oracle: the ingested
/// detections in its region whose time is at or after the last monitor
/// tick before `now` minus the window.
void check_monitor(const Cluster& cluster, const Oracle& oracle,
                   const ContinuousQuerySpec& spec, Duration monitor_tick,
                   Result& result);

}  // namespace perfbench
