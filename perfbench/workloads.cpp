#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <stdexcept>

#include "common/rng.h"

namespace perfbench {

namespace {

constexpr int kSetupRepetitions = 3;
constexpr std::uint32_t kKnnK = 10;
constexpr double kHeatmapCell = 100.0;

/// Latency samples and query counts pooled over a run's clients.
struct Samples {
  std::map<std::string, std::vector<double>> latencies;
  std::uint64_t queries = 0;
  double query_s = 0.0;

  void absorb(const Client& client) {
    for (const auto& [label, values] : client.latencies()) {
      auto& pool = latencies[label];
      pool.insert(pool.end(), values.begin(), values.end());
    }
    queries += client.queries();
    query_s += client.query_seconds();
  }
  [[nodiscard]] double p(const std::string& label, double q) const {
    auto it = latencies.find(label);
    return it == latencies.end() ? 0.0 : quantile(it->second, q);
  }
};

/// Every end-to-end metric, named as in BENCHMARK.json.
void report_end_to_end(const Samples& s, const std::vector<double>& setup_s,
                       const std::vector<double>& ingest_rates,
                       const std::vector<double>& resident_per_det,
                       Result& result) {
  result.set("setup_s", median(setup_s), "s");
  result.set("ingest_dets_per_s", median(ingest_rates), "detections/s");
  result.set("resident_bytes_per_det", median(resident_per_det), "B");
  result.set("queries_per_s",
             s.query_s > 0 ? static_cast<double>(s.queries) / s.query_s : 0,
             "queries/s");
  result.set("range_p50_us", s.p("range", 0.5), "us");
  result.set("knn_p50_us", s.p("knn", 0.5), "us");
  result.set("knn_adaptive_p50_us", s.p("knn_adaptive", 0.5), "us");
  result.set("trajectory_p50_us", s.p("trajectory", 0.5), "us");
  result.set("camera_window_p50_us", s.p("camera_window", 0.5), "us");
  result.set("heatmap_p50_us", s.p("heatmap", 0.5), "us");
  result.set("cold_range_p50_us", s.p("cold_range", 0.5), "us");
  // Notes, not gated metrics: across seeds their quartile spreads exceeded
  // the largest bound the benchmark may set (README).
  std::size_t ranges = s.latencies.count("range")
                           ? s.latencies.at("range").size()
                           : 0;
  if (ranges >= 1000) {
    std::printf("range_p99_us %.1f over %zu range queries\n",
                s.p("range", 0.99), ranges);
  }
  std::size_t paths = s.latencies.count("reid_path")
                          ? s.latencies.at("reid_path").size()
                          : 0;
  std::printf("reid_path_p50_ms %.3f over %zu pursuits\n",
              s.p("reid_path", 0.5), paths);
}

/// Per-round random stream: the same (seed, round) gives the same queries.
Rng round_rng(std::uint64_t seed, std::uint64_t round) {
  SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + round + 1);
  return Rng(mix.next());
}

const Detection& pick(const std::vector<Detection>& dets, std::size_t first,
                      std::size_t last, Rng& rng) {
  STCN_CHECK(last > first);
  return dets[first + rng.uniform_index(last - first)];
}

/// Positions [first, last) of trace detections with time in `iv`.
std::pair<std::size_t, std::size_t> time_slice(const std::vector<Detection>& d,
                                               const TimeInterval& iv,
                                               std::size_t limit) {
  auto end = d.begin() + static_cast<std::ptrdiff_t>(limit);
  auto lo = std::lower_bound(d.begin(), end, iv.begin,
                             [](const Detection& x, TimePoint t) {
                               return x.time < t;
                             });
  auto hi = std::lower_bound(lo, end, iv.end,
                             [](const Detection& x, TimePoint t) {
                               return x.time < t;
                             });
  return {static_cast<std::size_t>(lo - d.begin()),
          static_cast<std::size_t>(hi - d.begin())};
}

TimeInterval around(TimePoint t, Duration half) { return {t - half, t + half}; }

// ------------------------------------------------------------- set-up

struct Setup {
  std::unique_ptr<City> city;
  std::unique_ptr<Reid> reid;
  std::vector<double> setup_s;
  double generate_s = 0.0;
};

/// Generates the city and learns the transition graph `reps` times (the
/// trace must come out the same every time); `extra` adds the workload's
/// own set-up on top and is timed with it.
template <typename Extra>
Setup set_up(const Options& options, int reps, Result& result, Extra extra) {
  Setup s;
  std::vector<double> generate;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = Clock::now();
    auto city = std::make_unique<City>(make_city());
    generate.push_back(seconds_since(t0));
    auto reid = std::make_unique<Reid>(city->trace);
    extra(*city);
    s.setup_s.push_back(seconds_since(t0));
    if (s.city) {
      result.require(city->trace.detections == s.city->trace.detections,
                     "trace generation is not deterministic");
    }
    s.city = std::move(city);
    s.reid = std::move(reid);
  }
  s.generate_s = median(generate);
  return s;
}

// -------------------------------------------------------- ingest_city

/// After a bulk load, reads every access path back and checks it against
/// the trace: range tiles and trajectories and camera windows that cover
/// every detection exactly once, full-bounds counts, heatmaps over the
/// whole history, and seeded k-NN, circle and re-identification probes.
/// The operations run in a seeded random order, so each kind's samples
/// spread over the whole sweep rather than one burst of it.
void verify_city(Client& client, const City& city, Rng& rng) {
  const auto& dets = city.trace.detections;
  const Rect& w = city.world;
  TimeInterval all = TimeInterval::all();
  std::vector<std::function<void()>> ops;
  auto add = [&](const Query& q, const char* label) {
    ops.push_back([&client, q, label] { client.query(q, label); });
  };
  add(Query::count(QueryId(1), w, all), "count");
  add(Query::count(QueryId(2), w, all, GroupBy::kCamera), "count");

  auto tiles = [&](int n, const TimeInterval& iv, const char* label) {
    double dx = w.width() / n;
    double dy = w.height() / n;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        Rect tile{{w.min.x + dx * i, w.min.y + dy * j},
                  {i + 1 == n ? w.max.x : w.min.x + dx * (i + 1),
                   j + 1 == n ? w.max.y : w.min.y + dy * (j + 1)}};
        add(Query::range(QueryId(3), tile, iv), label);
      }
    }
  };
  tiles(32, all, "range");
  tiles(16,
        {city.end - Duration::minutes(15), city.end - Duration::minutes(10)},
        "cold_range");

  for (const auto& [object, truth] : city.trace.ground_truth) {
    add(Query::trajectory(QueryId(4), object, all), "trajectory");
  }
  for (const Camera& cam : city.trace.cameras.cameras()) {
    add(Query::camera_window(QueryId(5), cam.id, all), "camera_window");
  }
  for (TimePoint t = city.start; t <= city.end; t = t + Duration::minutes(2)) {
    add(Query::heatmap(QueryId(6), w, kHeatmapCell,
                       {t, t + Duration::minutes(2)}),
        "heatmap");
  }
  for (int i = 0; i < 16; ++i) {
    const Detection& d = pick(dets, 0, dets.size(), rng);
    add(Query::circle_query(QueryId(7), {d.position, 100.0},
                            around(d.time, Duration::minutes(1))),
        "circle");
  }
  for (int i = 0; i < 40; ++i) {
    const Detection& d = pick(dets, 0, dets.size(), rng);
    TimeInterval iv = around(d.time, Duration::minutes(1));
    if (i < 10) add(Query::knn(QueryId(8), d.position, kKnnK, iv), "knn");
    ops.push_back([&client, p = d.position, iv] {
      client.knn_adaptive(p, kKnnK, iv);
    });
  }
  auto [first, last] =
      time_slice(dets, {city.start, city.end - Duration::minutes(5)},
                 dets.size());
  for (int i = 0; i < 80; ++i) {
    const Detection& probe = pick(dets, first, last, rng);
    ops.push_back([&client, &probe] { client.reid_path(probe); });
  }

  for (std::size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[rng.uniform_index(i)]);
  }
  for (const auto& op : ops) op();
}

void ingest_city(const Options& options, Result& result) {
  Setup setup = set_up(options, options.trace ? 1 : kSetupRepetitions, result,
                       [&](const City& city) {
                         (void)make_city_cluster(city, city_cluster_config());
                       });
  const City& city = *setup.city;
  Oracle oracle(city.trace);
  const auto& dets = city.trace.detections;

  Samples samples;
  std::vector<double> rates;
  std::vector<double> resident;
  std::vector<double> round_walls;
  std::unique_ptr<TracedPass> pass;

  auto round = [&](std::uint64_t index, Spans* spans) {
    release_free_memory();
    std::size_t rss0 = resident_bytes();
    auto cluster = make_city_cluster(city, city_cluster_config());
    Client client(*cluster, city, oracle, *setup.reid, result, spans);
    auto t0 = Clock::now();
    client.ingest(dets);
    double ingest_s = seconds_since(t0);
    resident.push_back(static_cast<double>(resident_bytes() - rss0) /
                       static_cast<double>(dets.size()));
    rates.push_back(static_cast<double>(dets.size()) / ingest_s);
    result.check(cluster->coordinator().counters().get("ingested") ==
                     dets.size(),
                 "coordinator routed a different detection count");
    Rng rng = round_rng(options.seed, index);
    verify_city(client, city, rng);
    samples.absorb(client);
    double wall = ingest_s + client.query_seconds();
    if (spans != nullptr) {
      pass->tally = client.tally();
      pass->traced_wall_s += wall;
      pass->cluster_figures = cluster_figures(*cluster, dets.size(), 0);
    } else {
      round_walls.push_back(wall);
    }
  };

  auto t0 = Clock::now();
  std::uint64_t rounds = 0;
  while (rounds == 0 || seconds_since(t0) < options.seconds) {
    round(rounds++, nullptr);
  }

  if (!options.trace) {
    report_end_to_end(samples, setup.setup_s, rates, resident, result);
    return;
  }
  pass = std::make_unique<TracedPass>();
  pass->untraced_wall_s = round_walls.front();
  round(0, &pass->spans);
  report_traced_pass(*pass, result);
  result.set("trace.generate_s", setup.generate_s, "s");
  result.set("reid.graph_learn_ms", setup.reid->learn_ms, "ms");
  auto cluster = make_city_cluster(city, city_cluster_config());
  measure_layers(city, *setup.reid, cluster->selectivity(), result);
  pass->spans.write_csv(".bench_build/spans-ingest_city.csv");
}

// --------------------------------------------------- forensic_queries

/// One analyst round: mostly selective ranges, then a few of every other
/// query kind the analyst uses, including multi-hop pursuits.
void forensic_round(Client& client, const City& city, Rng& rng) {
  const auto& dets = city.trace.detections;
  auto any = [&]() -> const Detection& {
    return pick(dets, 0, dets.size(), rng);
  };
  for (int i = 0; i < 60; ++i) {
    const Detection& d = any();
    client.query(Query::range(QueryId(10), Rect::centered(d.position, 100.0),
                              around(d.time, Duration::minutes(1))),
                 "range");
  }
  for (int i = 0; i < 6; ++i) {
    const Detection& d = any();
    client.query(Query::circle_query(QueryId(11), {d.position, 100.0},
                                     around(d.time, Duration::minutes(1))),
                 "circle");
  }
  {
    const Detection& d = any();
    client.query(Query::knn(QueryId(12), d.position, kKnnK,
                            around(d.time, Duration::minutes(1))),
                 "knn");
  }
  for (int i = 0; i < 4; ++i) {
    const Detection& d = any();
    client.knn_adaptive(d.position, kKnnK,
                        around(d.time, Duration::minutes(1)));
  }
  for (int i = 0; i < 4; ++i) {
    client.query(Query::trajectory(QueryId(13), any().object,
                                   TimeInterval::all()),
                 "trajectory");
  }
  for (int i = 0; i < 6; ++i) {
    const Detection& d = any();
    client.query(Query::camera_window(QueryId(14), d.camera,
                                      around(d.time, Duration::seconds(150))),
                 "camera_window");
  }
  for (int i = 0; i < 2; ++i) {
    const Detection& d = any();
    client.query(Query::count(QueryId(15), Rect::centered(d.position, 300.0),
                              around(d.time, Duration::minutes(5)),
                              GroupBy::kCamera),
                 "count");
  }
  {
    const Detection& d = any();
    client.query(Query::heatmap(QueryId(16), city.world, kHeatmapCell,
                                around(d.time, Duration::seconds(150))),
                 "heatmap");
  }
  TimeInterval old{city.end - Duration::minutes(15),
                   city.end - Duration::minutes(10)};
  auto [of, ol] = time_slice(dets, old, dets.size());
  for (int i = 0; i < 4; ++i) {
    const Detection& d = pick(dets, of, ol, rng);
    client.query(Query::range(QueryId(17), Rect::centered(d.position, 100.0),
                              old),
                 "cold_range");
  }
  auto [pf, pl] = time_slice(
      dets, {city.start, city.end - Duration::minutes(5)}, dets.size());
  for (int i = 0; i < 4; ++i) client.reid_path(pick(dets, pf, pl, rng));
}

void forensic_queries(const Options& options, Result& result) {
  std::vector<double> rates;
  std::vector<double> resident;
  std::unique_ptr<Cluster> cluster;
  Setup setup = set_up(
      options, options.trace ? 1 : kSetupRepetitions, result,
      [&](const City& city) {
        cluster.reset();
        release_free_memory();
        std::size_t rss0 = resident_bytes();
        cluster = make_city_cluster(city, city_cluster_config());
        auto t0 = Clock::now();
        cluster->ingest_all(city.trace.detections);
        double s = seconds_since(t0);
        rates.push_back(static_cast<double>(city.trace.detections.size()) / s);
        resident.push_back(static_cast<double>(resident_bytes() - rss0) /
                           static_cast<double>(city.trace.detections.size()));
      });
  const City& city = *setup.city;
  Oracle oracle(city.trace);

  Samples samples;
  std::vector<double> round_walls;
  {
    Client client(*cluster, city, oracle, *setup.reid, result, nullptr);
    auto t0 = Clock::now();
    std::uint64_t rounds = 0;
    while (rounds == 0 || seconds_since(t0) < options.seconds) {
      double before = client.query_seconds();
      Rng rng = round_rng(options.seed, rounds++);
      forensic_round(client, city, rng);
      round_walls.push_back(client.query_seconds() - before);
    }
    samples.absorb(client);
  }
  if (!options.trace) {
    report_end_to_end(samples, setup.setup_s, rates, resident, result);
    return;
  }

  // Traced pass: a traced preload into a fresh cluster, then the first
  // rounds of the same session.
  cluster.reset();
  release_free_memory();
  TracedPass pass;
  auto traced = make_city_cluster(city, city_cluster_config());
  Client client(*traced, city, oracle, *setup.reid, result, &pass.spans);
  client.ingest(city.trace.detections);
  std::size_t rounds = std::max<std::size_t>(1, round_walls.size() / 2);
  for (std::size_t r = 0; r < rounds; ++r) {
    double before = client.query_seconds();
    Rng rng = round_rng(options.seed, r);
    forensic_round(client, city, rng);
    pass.traced_wall_s += client.query_seconds() - before;
    pass.untraced_wall_s += round_walls[r];
  }
  pass.tally = client.tally();
  pass.cluster_figures =
      cluster_figures(*traced, city.trace.detections.size(), 0);
  report_traced_pass(pass, result);
  result.set("trace.generate_s", setup.generate_s, "s");
  result.set("reid.graph_learn_ms", setup.reid->learn_ms, "ms");
  measure_layers(city, *setup.reid, traced->selectivity(), result);
  pass.spans.write_csv(".bench_build/spans-forensic_queries.csv");
}

// ------------------------------------------------------------ live_ops

constexpr Duration kSlice = Duration::seconds(10);

struct LiveRound {
  double ingest_s = 0.0;
  double wall_s = 0.0;  // ingest + queries
  double resident_per_det = 0.0;
  std::uint64_t deltas = 0;
  double peak_cold_blocks = 0.0;  // store.cold_blocks summed over workers
};

/// Replays the whole day in 10-s slices; after each slice the operators'
/// recent-window ranges and heatmap, from minute 15 the historical ranges,
/// every minute an adaptive and a broadcast k-NN, three trajectories and a
/// camera window, a pursuit, and a check of every monitor.
LiveRound live_round(const City& city, const Reid& reid, Oracle& oracle,
                     std::uint64_t seed, std::uint64_t index, Result& result,
                     Samples& samples, TracedPass* pass) {
  const auto& dets = city.trace.detections;
  LiveRound out;
  release_free_memory();
  std::size_t rss0 = resident_bytes();
  auto cluster = make_live_cluster(city);
  Client client(*cluster, city, oracle, reid, result,
                pass != nullptr ? &pass->spans : nullptr);
  auto monitors = live_monitors(city, seed);
  for (const ContinuousQuerySpec& m : monitors) cluster->install_monitor(m);
  Rng rng = round_rng(seed, index);

  std::size_t ingested = 0;
  std::uint64_t slice = 0;
  for (TimePoint edge = city.start + kSlice; ingested < dets.size();
       edge = edge + kSlice, ++slice) {
    std::size_t next = ingested;
    while (next < dets.size() && dets[next].time < edge) ++next;
    auto t0 = Clock::now();
    client.ingest(std::span(dets).subspan(ingested, next - ingested));
    out.ingest_s += seconds_since(t0);
    ingested = next;
    oracle.set_ingested(ingested);
    if (ingested == 0) continue;

    TimeInterval recent{edge - Duration::minutes(2), edge};
    auto [rf, rl] = time_slice(dets, recent, ingested);
    if (rl == rf) rf = 0;
    for (int i = 0; i < 6; ++i) {
      const Detection& d = pick(dets, rf, rl, rng);
      client.query(Query::range(QueryId(20), Rect::centered(d.position, 100.0),
                                recent),
                   "range");
    }
    client.query(Query::heatmap(QueryId(21), city.world, kHeatmapCell, recent),
                 "heatmap");
    if (edge - city.start >= Duration::minutes(15)) {
      TimeInterval old{edge - Duration::minutes(15),
                       edge - Duration::minutes(10)};
      auto [of, ol] = time_slice(dets, old, ingested);
      for (int i = 0; i < 2 && ol > of; ++i) {
        const Detection& d = pick(dets, of, ol, rng);
        client.query(
            Query::range(QueryId(22), Rect::centered(d.position, 100.0), old),
            "cold_range");
      }
    }
    if (slice % 6 == 5) {
      const Detection& d = pick(dets, rf, rl, rng);
      client.knn_adaptive(d.position, kKnnK, recent);
      client.query(Query::knn(QueryId(25), d.position, kKnnK, recent), "knn");
      for (int i = 0; i < 3; ++i) {
        ObjectId object = pick(dets, rf, rl, rng).object;
        client.query(Query::trajectory(QueryId(23), object,
                                       {edge - Duration::minutes(15), edge}),
                     "trajectory");
      }
      client.query(Query::camera_window(QueryId(24), d.camera, recent),
                   "camera_window");
    }
    auto [pf, pl] = time_slice(
        dets, {edge - Duration::seconds(150), edge - Duration::seconds(120)},
        ingested);
    if (pl > pf) client.reid_path(pick(dets, pf, pl, rng));
    double cold = 0;
    for (WorkerId w : cluster->worker_ids()) {
      cold += cluster->worker(w).metrics().gauges().at("store.cold_blocks")
                  ->value();
    }
    out.peak_cold_blocks = std::max(out.peak_cold_blocks, cold);
    for (const ContinuousQuerySpec& m : monitors) {
      out.deltas += cluster->drain_deltas(m.id).size();
      check_monitor(*cluster, oracle, m, Duration::seconds(1), result);
    }
  }
  out.resident_per_det = static_cast<double>(resident_bytes() - rss0) /
                         static_cast<double>(dets.size());

  // Conservation over the part of the day retention keeps.
  TimeInterval kept{city.end - Duration::minutes(19), TimePoint::max()};
  client.query(Query::count(QueryId(26), city.world, kept), "count");
  client.query(Query::count(QueryId(27), city.world, kept, GroupBy::kCamera),
               "count");
  out.wall_s = out.ingest_s + client.query_seconds();
  samples.absorb(client);
  if (pass != nullptr) {
    pass->tally = client.tally();
    pass->cluster_figures = cluster_figures(*cluster, dets.size(), out.deltas);
  }
  return out;
}

void live_ops(const Options& options, Result& result) {
  Setup setup =
      set_up(options, options.trace ? 1 : kSetupRepetitions, result,
             [&](const City& city) { (void)make_live_cluster(city); });
  const City& city = *setup.city;
  Oracle oracle(city.trace);
  const double n = static_cast<double>(city.trace.detections.size());

  Samples samples;
  std::vector<double> rates;
  std::vector<double> resident;
  std::vector<double> walls;
  auto t0 = Clock::now();
  std::uint64_t rounds = 0;
  while (rounds == 0 || seconds_since(t0) < options.seconds) {
    LiveRound r = live_round(city, *setup.reid, oracle, options.seed, rounds++,
                             result, samples, nullptr);
    rates.push_back(n / r.ingest_s);
    resident.push_back(r.resident_per_det);
    walls.push_back(r.wall_s);
    std::printf("live_ops round %llu: peak cold blocks %.0f\n",
                static_cast<unsigned long long>(rounds), r.peak_cold_blocks);
  }
  if (!options.trace) {
    report_end_to_end(samples, setup.setup_s, rates, resident, result);
    return;
  }
  TracedPass pass;
  Samples traced_samples;
  LiveRound r = live_round(city, *setup.reid, oracle, options.seed, 0, result,
                           traced_samples, &pass);
  pass.untraced_wall_s = walls.front();
  pass.traced_wall_s = r.wall_s;
  report_traced_pass(pass, result);
  result.set("trace.generate_s", setup.generate_s, "s");
  result.set("reid.graph_learn_ms", setup.reid->learn_ms, "ms");
  auto cluster = make_city_cluster(city, city_cluster_config());
  measure_layers(city, *setup.reid, cluster->selectivity(), result);
  pass.spans.write_csv(".bench_build/spans-live_ops.csv");
}

}  // namespace


std::vector<ContinuousQuerySpec> live_monitors(const City& city,
                                               std::uint64_t seed) {
  Rng rng = round_rng(seed, 1'000'000);
  std::vector<ContinuousQuerySpec> out;
  const auto& cams = city.trace.cameras.cameras();
  for (std::size_t i = 0; i < 32; ++i) {
    const Camera& cam = cams[rng.uniform_index(cams.size())];
    out.push_back({QueryId(1'000'000 + i), Rect::centered(cam.fov.apex, 75.0),
                   Duration::minutes(1)});
  }
  return out;
}

void run_workload(const Options& options, Result& result) {
  if (options.workload == "ingest_city") return ingest_city(options, result);
  if (options.workload == "forensic_queries") {
    return forensic_queries(options, result);
  }
  if (options.workload == "live_ops") return live_ops(options, result);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace perfbench
