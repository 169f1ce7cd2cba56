// Per-layer metrics of the traced run. Each is timed from outside around a
// public call of one layer, counted from such calls, or read from the
// program's own metric registries.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "baseline/centralized.h"
#include "common/rng.h"
#include "core/protocol.h"
#include "partition/strategies.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Relative distance from 1 within which the spans of the ingest and query
/// paths must account for the wall time of those paths.
constexpr double kConservationBound = 0.05;

std::uint64_t counter(const MetricsRegistry& registry,
                      const std::string& name) {
  auto it = registry.counters().find(name);
  return it == registry.counters().end() ? 0 : it->second->value();
}

double gauge(const MetricsRegistry& registry, const std::string& name) {
  auto it = registry.gauges().find(name);
  return it == registry.gauges().end() ? 0.0 : it->second->value();
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

template <typename Fn>
double time_s(Fn&& fn) {
  auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

template <typename Fn>
double median_time_s(int reps, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(time_s(fn));
  return median(v);
}

/// The trace routed into per-partition indexes, primaries only, as the
/// workers of a cluster with this strategy would hold them.
struct PartitionedIndexes {
  std::vector<std::unique_ptr<WorkerIndexes>> parts;
  std::vector<std::uint32_t> route;  // partition of each detection

  PartitionedIndexes(const City& city, const PartitionStrategy& strategy,
                     const StoreTierConfig& tier) {
    for (std::size_t p = 0; p < strategy.partition_count(); ++p) {
      parts.push_back(std::make_unique<WorkerIndexes>(
          GridIndexConfig{city.world, 50.0}));
      parts.back()->store.set_tier_config(tier);
    }
    for (const Detection& d : city.trace.detections) {
      route.push_back(static_cast<std::uint32_t>(
          strategy.partition_of(d.camera, d.position, d.time).value()));
    }
  }
};

struct Fragmented {
  Query query;
  std::vector<QueryResult> fragments;
  double exec_s = 0.0;
};

}  // namespace

// ------------------------------------------------------- cluster figures

std::map<std::string, double> cluster_figures(Cluster& cluster,
                                              std::uint64_t detections,
                                              std::uint64_t deltas) {
  const Coordinator& coordinator = cluster.coordinator();
  std::map<std::string, double> f;
  double retransmits = static_cast<double>(
      counter(coordinator.metrics(), "retransmits"));
  double snapshots = 0, summaries = 0, store = 0, snapshot_bytes = 0,
         replay = 0, fragments = 0, tested = 0, scanned = 0, skipped = 0;
  LatencyHistogram scan_wall;
  for (WorkerId w : cluster.worker_ids()) {
    const WorkerNode& worker = cluster.worker(w);
    const MetricsRegistry& m = worker.metrics();
    retransmits += static_cast<double>(counter(m, "retransmits"));
    snapshots += static_cast<double>(counter(m, "snapshots_taken"));
    summaries +=
        static_cast<double>(worker.counters().get("summaries_published"));
    store += gauge(m, "store_memory_bytes");
    snapshot_bytes += gauge(m, "snapshot_bytes");
    replay += gauge(m, "replay_log_bytes");
    fragments += static_cast<double>(counter(m, "queries_served"));
    tested += static_cast<double>(counter(m, "monitors_tested"));
    scanned += static_cast<double>(counter(m, "store_blocks_scanned"));
    skipped += static_cast<double>(counter(m, "store_blocks_skipped"));
    scan_wall.merge(*m.histograms().at("scan_wall_us"));
  }
  auto dets = static_cast<double>(detections);
  double queries =
      static_cast<double>(counter(coordinator.metrics(), "queries_submitted"));
  f["partition.fanout_per_query"] = coordinator.mean_fanout();
  f["net.retransmits"] = retransmits;
  f["worker.snapshots_taken"] = snapshots;
  f["worker.summaries_published"] = summaries;
  f["worker.store_bytes_per_det"] = per(store, dets);
  f["worker.snapshot_bytes_per_det"] = per(snapshot_bytes, dets);
  f["worker.replay_log_bytes_per_det"] = per(replay, dets);
  f["worker.scan_wall_us_p50"] = scan_wall.p50();
  f["worker.fragments_per_query"] = per(fragments, queries);
  f["worker.monitors_tested_per_det"] = per(tested, dets);
  f["index.blocks_skipped_ratio"] = per(skipped, scanned + skipped);
  f["query.deltas_per_det"] = per(static_cast<double>(deltas), dets);
  return f;
}

// ------------------------------------------------------------ traced pass

void report_traced_pass(const TracedPass& pass, Result& result) {
  const Spans& s = pass.spans;
  const LayerTally& t = pass.tally;
  auto dets = static_cast<double>(t.detections);
  auto queries = static_cast<double>(t.queries);

  double coordinator_ingest =
      s.total_s("coordinator.ingest") + s.total_s("coordinator.flush_ingest");
  double pump = s.total_s("net.run_until_idle");
  double submit = s.total_s("coordinator.submit");
  double step = s.total_s("net.step_loop");
  double poll = s.total_s("coordinator.poll");
  double query_roots = 0.0;
  for (const auto& [name, self] : s.self_seconds()) {
    if (name.rfind("query.", 0) == 0) query_roots += s.total_s(name);
  }
  double ingest_conservation = per(coordinator_ingest + pump,
                                   s.total_s("ingest"));
  double query_conservation = per(submit + step + poll, query_roots);

  result.set("coordinator.ingest_us_per_det",
             per(coordinator_ingest, dets) * 1e6, "us");
  result.set("net.pump_us_per_det", per(pump, dets) * 1e6, "us");
  result.set("coordinator.submit_us_per_query", per(submit, queries) * 1e6,
             "us");
  result.set("coordinator.poll_us_per_query", per(poll, queries) * 1e6, "us");
  result.set("net.step_us_per_query", per(step, queries) * 1e6, "us");
  result.set("net.bytes_per_det",
             per(static_cast<double>(t.ingest_bytes), dets), "B");
  result.set("net.messages_per_det",
             per(static_cast<double>(t.ingest_messages), dets), "count");
  result.set("net.bytes_per_query",
             per(static_cast<double>(t.query_bytes), queries), "B");
  result.set("net.messages_per_query",
             per(static_cast<double>(t.query_messages), queries), "count");
  result.set("query.knn_adaptive_rounds_per_query",
             per(static_cast<double>(t.knn_adaptive_rounds),
                 static_cast<double>(t.knn_adaptive)),
             "count");
  auto paths = static_cast<double>(t.paths);
  result.set("reid.fetch_ms_per_path", per(t.fetch_s, paths) * 1e3, "ms");
  result.set("reid.fetches_per_path",
             per(static_cast<double>(t.fetches), paths), "count");
  result.set("reid.match_ms_per_path", per(t.path_s - t.fetch_s, paths) * 1e3,
             "ms");
  result.set("reid.candidates_per_path",
             per(static_cast<double>(t.candidates), paths), "count");
  result.set("bench.tracing_overhead",
             per(pass.traced_wall_s, pass.untraced_wall_s), "ratio");
  result.set("bench.ingest_conservation", ingest_conservation, "ratio");
  result.set("bench.query_conservation", query_conservation, "ratio");
  result.require(std::abs(1.0 - ingest_conservation) <= kConservationBound,
                 "ingest spans cover " +
                     std::to_string(ingest_conservation) +
                     " of ingest wall time");
  result.require(std::abs(1.0 - query_conservation) <= kConservationBound,
                 "query spans cover " + std::to_string(query_conservation) +
                     " of query wall time");

  static const std::map<std::string, std::string> kUnits = {
      {"partition.fanout_per_query", "count"},
      {"net.retransmits", "count"},
      {"worker.snapshots_taken", "count"},
      {"worker.summaries_published", "count"},
      {"worker.store_bytes_per_det", "B"},
      {"worker.snapshot_bytes_per_det", "B"},
      {"worker.replay_log_bytes_per_det", "B"},
      {"worker.scan_wall_us_p50", "us"},
      {"worker.fragments_per_query", "count"},
      {"worker.monitors_tested_per_det", "count"},
      {"index.blocks_skipped_ratio", "ratio"},
      {"query.deltas_per_det", "count"},
  };
  for (const auto& [name, value] : pass.cluster_figures) {
    result.set(name, value, kUnits.at(name));
  }

  std::printf("self time of the traced pass, by span (%zu spans):\n",
              s.size());
  for (const auto& [name, self] : s.self_seconds()) {
    std::printf("  %-34s %10.4f s self, %8zu spans\n", name.c_str(), self,
                s.count(name));
  }
}

// ----------------------------------------------------------- layer replays

void measure_layers(const City& city, const Reid& reid,
                    const SelectivityEstimator& estimator, Result& result) {
  const auto& dets = city.trace.detections;
  const auto n = static_cast<double>(dets.size());
  Rng rng(city.trace.config.seed ^ 0x1a7e5ULL);

  // partition: routing every detection.
  auto strategy = std::make_unique<HybridStrategy>(
      city.world, city.trace.cameras, city_strategy_config());
  {
    std::uint64_t sink = 0;
    double s = median_time_s(5, [&] {
      for (const Detection& d : dets) {
        sink += strategy->partition_of(d.camera, d.position, d.time).value();
      }
    });
    result.set("partition.route_ns_per_det", s / n * 1e9, "ns");
    result.require(sink > 0 || strategy->partition_count() == 1,
                   "routing produced no partitions");
  }

  // index: the trace in per-partition indexes of the 8x8 layout.
  PartitionedIndexes city_parts(city, *strategy, {});
  result.set("index.ingest_us_per_det", time_s([&] {
               for (std::size_t i = 0; i < dets.size(); ++i) {
                 city_parts.parts[city_parts.route[i]]->ingest(dets[i]);
               }
             }) / n * 1e6,
             "us");
  {
    std::vector<DetectionStore> stores(city_parts.parts.size());
    result.set("index.append_us_per_det", time_s([&] {
                 for (std::size_t i = 0; i < dets.size(); ++i) {
                   stores[city_parts.route[i]].append(dets[i]);
                 }
               }) / n * 1e6,
               "us");
  }

  // index: local execution of each query kind over the partitions the
  // coordinator would ask.
  std::vector<PartitionId> all_parts;
  for (std::size_t p = 0; p < city_parts.parts.size(); ++p) {
    all_parts.emplace_back(p);
  }
  auto run_local = [&](const Query& q) {
    Fragmented out{q, {}, 0.0};
    std::vector<PartitionId> targets =
        q.has_spatial_footprint()
            ? strategy->partitions_for_region(q.spatial_footprint(), q.interval)
        : q.kind == QueryKind::kCameraWindow
            ? strategy->partitions_for_camera(q.camera, q.interval)
            : all_parts;
    auto t0 = Clock::now();
    for (PartitionId p : targets) {
      out.fragments.push_back(
          LocalExecutor::execute(*city_parts.parts[p.value()], q));
    }
    out.exec_s = seconds_since(t0);
    return out;
  };
  auto any = [&]() -> const Detection& {
    return dets[rng.uniform_index(dets.size())];
  };
  auto window = [](TimePoint t, Duration half) {
    return TimeInterval{t - half, t + half};
  };
  std::map<std::string, std::vector<Fragmented>> by_kind;
  for (int i = 0; i < 50; ++i) {
    const Detection& d = any();
    by_kind["range"].push_back(run_local(Query::range(
        QueryId(1), Rect::centered(d.position, 100.0),
        window(d.time, Duration::minutes(1)))));
    by_kind["trajectory"].push_back(run_local(
        Query::trajectory(QueryId(2), d.object, TimeInterval::all())));
    by_kind["camera_window"].push_back(run_local(Query::camera_window(
        QueryId(3), d.camera, window(d.time, Duration::seconds(150)))));
    if (i < 10) {
      by_kind["heatmap"].push_back(run_local(
          Query::heatmap(QueryId(4), city.world, 100.0,
                         window(d.time, Duration::seconds(150)))));
    }
  }
  auto cells_probed = [&] {
    std::uint64_t n = 0;
    for (const auto& part : city_parts.parts) n += part->grid.cells_probed();
    return n;
  };
  std::uint64_t probed0 = cells_probed();
  for (int i = 0; i < 10; ++i) {
    const Detection& d = any();
    by_kind["knn"].push_back(run_local(Query::knn(
        QueryId(5), d.position, 10, window(d.time, Duration::minutes(1)))));
  }
  result.set("index.knn_cells_probed_per_query",
             static_cast<double>(cells_probed() - probed0) / 10.0, "count");
  for (const auto& [kind, runs] : by_kind) {
    std::vector<double> us;
    for (const Fragmented& f : runs) us.push_back(f.exec_s * 1e6);
    result.set("index." + kind + "_us", median(us), "us");
  }

  // query: merging fragments; common: response codec, per row.
  {
    double merge_s = 0, encode_s = 0, decode_s = 0, rows = 0;
    std::size_t merged_rows = 0;
    bool decoded_equal = true;
    for (const char* kind : {"range", "trajectory", "heatmap"}) {
      for (const Fragmented& f : by_kind[kind]) {
        for (const QueryResult& r : f.fragments) {
          rows += static_cast<double>(r.detections.size() + r.counts.size());
        }
        merge_s += time_s([&] {
          ResultMerger merger(f.query);
          for (const QueryResult& r : f.fragments) merger.add(r);
          QueryResult merged = merger.take();
          merged_rows += merged.detections.size() + merged.counts.size();
        });
        for (const QueryResult& r : f.fragments) {
          QueryResponse response;
          response.result = r;
          std::vector<std::uint8_t> bytes;
          encode_s += time_s([&] { bytes = encode(response); });
          QueryResponse back;
          decode_s += time_s([&] {
            BinaryReader reader(bytes);
            back = decode_query_response(reader);
          });
          decoded_equal = decoded_equal &&
                          back.result.detections.size() ==
                              r.detections.size() &&
                          back.result.counts == r.counts;
        }
      }
    }
    result.require(decoded_equal, "response codec round trip differs");
    result.require(merged_rows > 0, "merged fragments hold no rows");
    result.set("query.merge_us_per_row", per(merge_s, rows) * 1e6, "us");
    result.set("codec.response_encode_ns_per_row", per(encode_s, rows) * 1e9,
               "ns");
    result.set("codec.response_decode_ns_per_row", per(decode_s, rows) * 1e9,
               "ns");
  }

  // common: ingest batches of the coordinator's size, per partition.
  {
    std::vector<IngestBatch> batches;
    std::map<std::uint32_t, IngestBatch> open;
    for (std::size_t i = 0; i < dets.size(); ++i) {
      IngestBatch& b = open[city_parts.route[i]];
      b.partition = PartitionId(city_parts.route[i]);
      b.detections.push_back(dets[i]);
      if (b.detections.size() == 32) {
        batches.push_back(std::move(b));
        b = IngestBatch{};
      }
    }
    for (auto& [p, b] : open) {
      if (!b.detections.empty()) batches.push_back(std::move(b));
    }
    std::vector<std::vector<std::uint8_t>> wire(batches.size());
    double encode_s = time_s([&] {
      for (std::size_t i = 0; i < batches.size(); ++i) {
        wire[i] = encode(batches[i]);
      }
    });
    std::size_t decoded = 0;
    double decode_s = time_s([&] {
      for (const auto& bytes : wire) {
        BinaryReader reader(bytes);
        decoded += decode_ingest_batch(reader).detections.size();
      }
    });
    result.require(decoded == dets.size(), "ingest codec lost detections");
    result.set("codec.ingest_encode_ns_per_det", encode_s / n * 1e9, "ns");
    result.set("codec.ingest_decode_ns_per_det", decode_s / n * 1e9, "ns");
  }

  // index: the per-tick sweeps of a worker, over every partition once.
  {
    std::size_t bytes = 0;
    result.set("index.serialize_ms_per_sweep", median_time_s(3, [&] {
                 for (const auto& part : city_parts.parts) {
                   BinaryWriter w;
                   part->store.serialize_to(w);
                   bytes += w.size();
                 }
               }) * 1e3,
               "ms");
    std::size_t objects = 0;
    result.set("index.object_ids_us_per_sweep", median_time_s(3, [&] {
                 for (const auto& part : city_parts.parts) {
                   objects += part->trajectories.object_ids().size();
                 }
               }) * 1e6,
               "us");
    std::size_t total = 0;
    result.set("index.memory_breakdown_us_per_sweep", median_time_s(3, [&] {
                 for (const auto& part : city_parts.parts) {
                   total += part->store.memory_breakdown().total();
                 }
               }) * 1e6,
               "us");
    result.require(bytes > 0 && objects > 0 && total > 0,
                   "index sweeps touched nothing");
  }

  // index: retention compaction and demotion under live_ops' layout and
  // tier policy, at the end of the day.
  {
    HybridStrategy live(city.world, city.trace.cameras,
                        live_strategy_config());
    PartitionedIndexes parts(city, live, {true, 1});
    for (std::size_t i = 0; i < dets.size(); ++i) {
      parts.parts[parts.route[i]]->ingest(dets[i]);
    }
    std::size_t evicted = 0;
    result.set("index.compact_ms_per_sweep", time_s([&] {
                 for (auto& part : parts.parts) {
                   evicted += part->compact(city.end - Duration::minutes(20));
                 }
               }) * 1e3,
               "ms");
    result.require(evicted > 0, "compaction evicted nothing");
    std::size_t demoted = 0;
    double demote_s = time_s([&] {
      for (auto& part : parts.parts) {
        demoted += part->store.demote_older_than(city.end -
                                                 Duration::minutes(3));
      }
    });
    result.set("index.demote_ms_per_block",
               per(demote_s, static_cast<double>(demoted)) * 1e3, "ms");
    double cold_blocks = 0, raw = 0, compressed = 0;
    for (const auto& part : parts.parts) {
      const DetectionStore& st = part->store;
      if (st.cold_block_count() == 0) continue;
      cold_blocks += static_cast<double>(st.cold_block_count());
      // Uncompressed bytes of the cold rows, at this partition's hot
      // bytes per row.
      DetectionStore hot;
      for (std::uint32_t r = 0; r < st.size(); ++r) {
        (void)hot.append_copy(st, static_cast<DetectionRef>(r));
      }
      raw += static_cast<double>(hot.memory_breakdown().hot_bytes()) *
             static_cast<double>(st.cold_rows()) /
             static_cast<double>(hot.size());
      compressed += static_cast<double>(st.compressed_bytes());
    }
    result.set("index.cold_blocks", cold_blocks, "count");
    result.set("index.compression_ratio", per(raw, compressed), "ratio");
  }

  // query: selectivity estimates and monitor matching.
  {
    std::vector<Rect> boxes;
    std::vector<TimeInterval> windows;
    for (int i = 0; i < 1000; ++i) {
      const Detection& d = any();
      boxes.push_back(Rect::centered(d.position, 100.0));
      windows.push_back(window(d.time, Duration::minutes(1)));
    }
    double sum = 0;
    double s = median_time_s(5, [&] {
      for (std::size_t i = 0; i < boxes.size(); ++i) {
        sum += estimator.estimate(boxes[i], windows[i]);
      }
    });
    result.set("query.estimate_ns", s / 1000.0 * 1e9, "ns");
    result.require(sum >= 0, "negative selectivity estimate");

    ContinuousQueryManager monitors(city.world);
    for (const ContinuousQuerySpec& m :
         live_monitors(city, city.trace.config.seed)) {
      monitors.install(m);
    }
    std::vector<DeltaUpdate> deltas;
    result.set("query.monitor_on_detection_ns", time_s([&] {
                 for (const Detection& d : dets) {
                   (void)monitors.on_detection(d, deltas);
                 }
               }) / n * 1e9,
               "ns");
  }

  // reid: int8 prefilter share over an index-free candidate source.
  {
    MetricsRegistry registry;
    ReidEngine engine(reid.graph, reid.params);
    engine.register_metrics(registry);
    PathReconstructor reconstructor(engine, reid.path);
    Oracle oracle(city.trace);
    OracleCandidateSource source(oracle, city.trace.cameras);
    double examined = 0;
    for (int i = 0; i < 10; ++i) {
      examined += static_cast<double>(
          reconstructor.reconstruct(any(), source).candidates_examined);
    }
    result.set("reid.quantized_pruned_share",
               per(static_cast<double>(counter(registry,
                                               "reid_quantized_pruned")),
                   examined),
               "ratio");
  }

  // baseline: one CentralizedIndex holding everything.
  {
    CentralizedIndex central(city.world);
    result.set("baseline.centralized_ingest_us_per_det",
               time_s([&] { central.ingest_all(dets); }) / n * 1e6, "us");
    std::vector<double> us;
    for (const Fragmented& f : by_kind["range"]) {
      us.push_back(time_s([&] { (void)central.execute(f.query); }) * 1e6);
    }
    result.set("baseline.centralized_range_us", median(us), "us");
  }

  // Background attribution: the ingest_city load with one periodic task
  // switched off at a time, in the balanced order ABCD DCBA so that a
  // linear drift in machine speed cancels; and two background calls on a
  // loaded cluster.
  {
    auto ingest_s = [&](const ClusterConfig& config) {
      release_free_memory();
      auto cluster = make_city_cluster(city, config);
      return time_s([&] { cluster->ingest_all(dets); });
    };
    std::vector<ClusterConfig> configs(4, city_cluster_config());
    configs[1].snapshot_every_ticks = 0;
    configs[2].summary_every_ticks = 0;
    configs[3].tracer.max_traces = 0;
    std::vector<double> seconds(configs.size(), 0.0);
    for (std::size_t i = 0; i < 2 * configs.size(); ++i) {
      std::size_t c = i < configs.size() ? i : 2 * configs.size() - 1 - i;
      double t = ingest_s(configs[c]);
      seconds[c] += t;
    }
    result.set("ingest.no_snapshots_speedup", seconds[0] / seconds[1], "x");
    result.set("ingest.no_summaries_speedup", seconds[0] / seconds[2], "x");
    result.set("ingest.no_tracer_speedup", seconds[0] / seconds[3], "x");

    release_free_memory();
    auto loaded = make_city_cluster(city, city_cluster_config());
    loaded->ingest_all(dets);
    std::vector<double> heat_us;
    for (int i = 0; i < 20; ++i) {
      heat_us.push_back(time_s([&] {
                          loaded->coordinator().refresh_heat_gauges(
                              loaded->now());
                        }) *
                        1e6);
    }
    result.set("coordinator.heat_refresh_us", median(heat_us), "us");
    double snap_s = 0;
    for (WorkerId w : loaded->worker_ids()) {
      snap_s +=
          time_s([&] { loaded->worker(w).take_snapshots(loaded->now()); });
    }
    result.set("worker.take_snapshots_ms",
               snap_s / static_cast<double>(loaded->worker_ids().size()) * 1e3,
               "ms");
  }
}

}  // namespace perfbench
