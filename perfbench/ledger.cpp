// The traced run's per-layer ledger.
//
// Each layer is measured from outside, through its public functions, on
// inputs generated from the run's seed in the workload's shape (series
// set, batch size, framing).  Every measurement is one span in an
// in-memory recorder (name, start, end, parent, items); a layer's cost is
// its span's self time divided by the items it covered.  Nothing inside
// the program is instrumented.  Counter-derived figures come from the
// METRICS deltas of the untraced run that precedes the ledger.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>

#include "experiments/fleet.hpp"
#include "experiments/hosts.hpp"
#include "forecast/battery.hpp"
#include "forecast/evaluate.hpp"
#include "harness.hpp"
#include "nws/client.hpp"
#include "nws/forecast_service.hpp"
#include "nws/hash_ring.hpp"
#include "nws/persistence.hpp"
#include "nws/protocol.hpp"
#include "nws/replication.hpp"
#include "nws/router.hpp"
#include "nws/server.hpp"
#include "nws/sharded_service.hpp"
#include "sensors/hybrid_sensor.hpp"
#include "sim/host.hpp"
#include "system.hpp"
#include "tsa/rs_analysis.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

/// The workload's input shape, replayed through the layers.
struct Profile {
  std::vector<std::string> series;
  std::size_t batch = 1;       ///< samples per write request
  bool binary = false;         ///< framing of the write requests
  std::size_t samples = 2048;  ///< samples per series
};

Profile profile_for(const std::string& workload) {
  Profile p;
  if (workload == "ingest" || workload == "ingest_repl") {
    for (std::size_t s = 0; s < 48; ++s) {
      p.series.push_back(sensor_series_name(s));
    }
    p.batch = 64;
    p.binary = true;
    p.samples = 2048;
  } else if (workload == "fleet_query") {
    for (std::size_t h = 0; h < 4096; ++h) {
      p.series.push_back(host_series_name(h));
    }
    p.samples = 16;
  } else {
    for (const nws::UcsdHost h : nws::all_ucsd_hosts()) {
      p.series.push_back(nws::host_name(h) + "/hybrid");
    }
    p.samples = 2160;  // 6 simulated hours at the 10 s period
  }
  return p;
}

/// Runs `pass` (covering `items` work units) until at least `min_ns` have
/// elapsed, under one span.  Returns the span id.
template <typename F>
int timed(SpanRecorder& rec, const char* name, int parent,
          std::uint64_t items, F&& pass, std::int64_t min_ns = 20'000'000) {
  const int id = rec.begin(name, parent);
  const std::int64_t t0 = now_ns();
  std::uint64_t n = 0;
  do {
    pass();
    n += items;
  } while (now_ns() - t0 < min_ns);
  rec.end(id, n);
  return id;
}

double per_item(const SpanRecorder& rec, int id) {
  const auto& s = rec.spans()[static_cast<std::size_t>(id)];
  return s.items ? static_cast<double>(rec.self_ns(id)) /
                       static_cast<double>(s.items)
                 : 0.0;
}

std::size_t heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Publishes a result the timed loops computed, so none of them is dead.
volatile double g_sink = 0.0;

/// p50 round trip through the router minus the direct one, alternating.
double router_hop_p50_us(const Options& opt, const Profile& p,
                         SpanRecorder& rec, int parent) {
  const int id = rec.begin("router.hop", parent);
  nws::ServerConfig sc;
  sc.shards = 1;
  sc.dispatchers = 1;
  nws::NwsServer backend(sc);
  const std::uint16_t bport = backend.start(0);
  nws::RouterConfig rc;
  rc.backends = std::to_string(bport);
  rc.dispatchers = 1;
  nws::Router router(rc);
  router.start(0);
  nws::NwsClient direct;
  nws::NwsClient routed;
  const bool ok = bport != 0 && direct.connect(bport) &&
                  routed.connect(router.port());
  const std::size_t n = std::min<std::size_t>(p.series.size(), 64);
  for (std::size_t s = 0; ok && s < n; ++s) {
    direct.put(p.series[s], sample_at(opt.seed, s, 0));
  }
  std::vector<double> d;
  std::vector<double> r;
  for (std::size_t i = 0; ok && i < 4000; ++i) {
    const std::string& name = p.series[i % n];
    nws::NwsClient& c = i % 2 ? routed : direct;
    const std::int64_t t0 = now_ns();
    const auto f = c.forecast(name);
    const double us = static_cast<double>(now_ns() - t0) / 1e3;
    if (f) (i % 2 ? r : d).push_back(us);
  }
  direct.disconnect();
  routed.disconnect();
  router.stop();
  backend.stop();
  rec.end(id, d.size() + r.size());
  std::sort(d.begin(), d.end());
  std::sort(r.begin(), r.end());
  return percentile(r, 0.5) - percentile(d, 0.5);
}

}  // namespace

RunResult run_ledger(const Options& opt, const RunResult& live) {
  RunResult r;
  r.correct = live.correct;
  r.attempted = live.attempted;
  r.failed = live.failed;
  r.notes = live.notes;
  for (const Metric& m : live.metrics) {
    char line[160];
    std::snprintf(line, sizeof line, "untraced %s = %.6g %s", m.name.c_str(),
                  m.value, m.unit.c_str());
    r.note(line);
  }
  const Profile p = profile_for(opt.workload);
  const std::size_t nseries = p.series.size();
  const std::uint64_t total = nseries * p.samples;
  // Sample j of the interleaved stream: batch-major, series-minor, so the
  // replay visits series in the same round-robin order as the load.
  const auto series_of = [&](std::uint64_t j) {
    return static_cast<std::size_t>((j / p.batch) % nseries);
  };
  const auto index_of = [&](std::uint64_t j) {
    return (j / (p.batch * nseries)) * p.batch + j % p.batch;
  };
  std::vector<nws::Measurement> samples(total);
  for (std::uint64_t j = 0; j < total; ++j) {
    samples[j] = sample_at(opt.seed, series_of(j), index_of(j));
  }

  SpanRecorder rec;
  const int root = rec.begin("ledger." + opt.workload);
  std::map<std::string, std::pair<double, std::string>> m;
  const auto put = [&](const char* name, double v, const char* unit) {
    m[name] = {v, unit};
  };

  // --- nws/protocol ---------------------------------------------------
  std::vector<nws::Request> reqs;
  for (std::uint64_t j = 0; j < total; j += p.batch) {
    nws::Request q;
    q.series = p.series[series_of(j)];
    if (p.batch > 1) {
      q.kind = nws::RequestKind::kPutBatch;
      q.seq = index_of(j) + 1;
      const auto first = samples.begin() + static_cast<std::ptrdiff_t>(j);
      q.batch.assign(first, first + static_cast<std::ptrdiff_t>(p.batch));
    } else {
      q.kind = nws::RequestKind::kPut;
      q.measurement = samples[j];
    }
    reqs.push_back(std::move(q));
  }
  std::string wire;
  for (const nws::Request& q : reqs) {
    if (p.binary) {
      nws::append_binary_request(wire, q);
    } else {
      nws::append_request(wire, q);
      wire += '\n';
    }
  }
  put("protocol.wire_bytes_per_sample",
      static_cast<double>(wire.size()) / static_cast<double>(total), "bytes");
  nws::Request scratch_req;
  std::size_t decoded = 0;
  const int decode = timed(rec, "protocol.decode", root, total, [&] {
    std::string_view rest = wire;
    while (!rest.empty()) {
      if (p.binary) {
        std::size_t end = 0;
        std::string_view payload;
        if (nws::extract_binary_frame(rest, 1 << 20, end, payload) !=
            nws::BinFrameStatus::kFrame) {
          break;
        }
        decoded += nws::parse_binary_request(payload, scratch_req);
        rest.remove_prefix(end);
      } else {
        const std::size_t nl = rest.find('\n');
        decoded += nws::parse_request_into(rest.substr(0, nl), scratch_req);
        rest.remove_prefix(nl + 1);
      }
    }
  });
  put("protocol.decode_ns_per_sample", per_item(rec, decode), "ns");
  r.check(decoded % reqs.size() == 0, "ledger: every request decodes");

  std::string out;
  const int encode = timed(rec, "protocol.encode", root, reqs.size(), [&] {
    for (const nws::Request& q : reqs) {
      out.clear();
      if (p.binary) {
        nws::append_binary_request(out, q);
        nws::append_put_batch_response(out, q.batch.size(), 0, 0);
      } else {
        nws::append_request(out, q);
        nws::append_ok(out);
      }
      nws::append_forecast_response(out, q.measurement.value, 0.01, 0.0001,
                                    p.samples, q.measurement.time,
                                    "sw_mean(10)");
    }
  });
  put("protocol.encode_ns_per_req", per_item(rec, encode), "ns");

  // --- nws/sharded_service --------------------------------------------
  const nws::ShardedForecastService sharded(2, 8192, {}, {});
  std::size_t route_sink = 0;
  const int route = timed(rec, "shard.route", root, nseries, [&] {
    for (const std::string& s : p.series) route_sink += sharded.shard_of(s);
  });
  g_sink = static_cast<double>(route_sink);
  put("shard.route_ns", per_item(rec, route), "ns");
  std::vector<double> per_shard(2, 0.0);
  for (const std::string& s : p.series) per_shard[sharded.shard_of(s)] += 1.0;
  put("shard.skew",
      *std::max_element(per_shard.begin(), per_shard.end()) /
          (static_cast<double>(nseries) / 2.0),
      "ratio");

  // --- nws/memory -------------------------------------------------------
  {
    // Series exist before the span: it times appends, not creation.
    nws::Memory mem(8192);
    for (const std::string& s : p.series) mem.record(s, {0.0, 0.0});
    std::uint64_t j = 0;
    const int append = timed(rec, "store.append", root, total, [&] {
      for (std::uint64_t k = 0; k < total; ++k, ++j) {
        // Later passes continue the series' clocks so appends stay ordered.
        nws::Measurement s = samples[k];
        s.time += static_cast<double>(j / total) * 1e9;
        mem.record(p.series[series_of(k)], s);
      }
    });
    put("store.append_ns_per_sample", per_item(rec, append), "ns");
  }
  {
    const std::size_t n = std::min<std::size_t>(nseries, 512);
    const std::size_t before = heap_bytes();
    auto mem = std::make_unique<nws::Memory>(8192);
    for (std::size_t s = 0; s < n; ++s) mem->record(p.series[s], samples[0]);
    put("store.bytes_per_series",
        static_cast<double>(heap_bytes() - before) / static_cast<double>(n),
        "bytes");
  }

  // --- forecast ---------------------------------------------------------
  // A bounded slice of the stream: the first series, in stream order.
  const std::size_t bseries = std::min<std::size_t>(nseries, 64);
  std::vector<std::uint64_t> slice;
  for (std::uint64_t j = 0; j < total && slice.size() < 65536; ++j) {
    if (series_of(j) < bseries) slice.push_back(j);
  }
  {
    const nws::ForecastService::ForecasterFactory factory = [] {
      return nws::make_nws_forecaster();
    };
    std::vector<nws::ForecasterPtr> fc;
    for (std::size_t s = 0; s < bseries; ++s) fc.push_back(factory());
    const int update = timed(rec, "battery.update", root, slice.size(), [&] {
      for (const std::uint64_t j : slice) {
        fc[series_of(j)]->observe(samples[j].value);
      }
    });
    put("battery.update_ns_per_sample", per_item(rec, update), "ns");
  }
  {
    nws::ForecastService svc(8192);
    for (const std::uint64_t j : slice) {
      svc.record(p.series[series_of(j)], samples[j]);
    }
    double sink = 0.0;
    const int predict = timed(rec, "battery.predict", root, bseries, [&] {
      for (std::size_t s = 0; s < bseries; ++s) {
        sink += svc.predict(p.series[s])->value;
      }
    });
    g_sink = sink;
    put("battery.predict_ns", per_item(rec, predict), "ns");
  }

  // --- nws/persistence ----------------------------------------------------
  {
    ScratchDir dir(opt, "ledger-journal");
    const fs::path path = dir.path() / "journal";
    {
      nws::Journal journal(path);
      journal.open_for_append();
      journal.set_group_size(total + 1);  // commits are explicit below
      const int write = rec.begin("journal.write", root);
      for (std::uint64_t j = 0; j < total; ++j) {
        journal.append(p.series[series_of(j)], samples[j]);
        if ((j + 1) % 64 == 0 || j + 1 == total) {
          const int commit = rec.begin("journal.commit", write);
          journal.commit();
          rec.end(commit, 1);
        }
      }
      rec.end(write, total);
      put("journal.append_ns_per_sample", per_item(rec, write), "ns");
      double commit_ns = 0.0;
      double commits = 0.0;
      for (const auto& s : rec.spans()) {
        if (s.parent == write) {
          commit_ns += static_cast<double>(s.end - s.start);
          commits += 1.0;
        }
      }
      put("journal.commit_us", commit_ns / commits / 1e3, "us");
    }
    put("journal.bytes_per_sample",
        static_cast<double>(fs::file_size(path)) / static_cast<double>(total),
        "bytes");
    std::size_t replayed = 0;
    const int replay = timed(rec, "journal.replay", root, total, [&] {
      nws::Journal journal(path);
      replayed += journal.replay([](const std::string&, nws::Measurement) {
                           return true;
                         }).recovered;
    });
    put("journal.replay_ns_per_record", per_item(rec, replay), "ns");
    r.check(replayed % total == 0, "ledger: journal replays every record");
  }
  const auto& c = live.counters;
  put("journal.records_per_commit",
      ratio(metric_sum(c, "nws_journal_batch_records_sum"),
            metric_sum(c, "nws_journal_batch_records_count")),
      "count");

  // --- nws/replication ----------------------------------------------------
  {
    nws::ReplLog log(total);
    const int append = rec.begin("repl.log_append", root);
    for (std::uint64_t j = 0; j < total; ++j) {
      log.append(p.series[series_of(j)], samples[j]);
    }
    rec.end(append, total);
    put("repl.log_append_ns", per_item(rec, append), "ns");
    std::vector<nws::ReplSample> batch;
    const int copy = timed(rec, "repl.copy", root, total, [&] {
      for (std::uint64_t from = log.start(); from < log.end();) {
        from += log.copy_from(from, 512, batch);
      }
    });
    put("repl.copy_ns_per_record", per_item(rec, copy), "ns");
  }
  {
    ScratchDir dir(opt, "ledger-replmeta");
    nws::ReplMetaState state;
    state.epoch = 1;
    state.synced_epoch = 1;
    state.watermarks = {total / 2, total - total / 2};
    bool saved = true;
    const int meta = timed(rec, "repl.meta_save", root, 1, [&] {
      saved = nws::save_repl_meta(dir.path() / "replmeta", state) && saved;
      ++state.watermarks[0];
    });
    put("repl.meta_save_us", per_item(rec, meta) / 1e3, "us");
    r.check(saved, "ledger: save_repl_meta");
  }
  put("repl.records_per_batch",
      ratio(metric_sum(c, "nws_repl_records_streamed_total"),
            metric_sum(c, "nws_repl_batches_acked_total")),
      "count");
  put("repl.sync_timeouts", metric_sum(c, "nws_repl_sync_timeouts_total"),
      "count");

  // --- nws/event_loop + front ends (counters) ----------------------------
  put("net.writev_buffers_per_call",
      ratio(metric_sum(c, "nws_net_writev_buffers_total"),
            metric_sum(c, "nws_net_writev_calls_total")),
      "count");
  const double served = metric_sum(c, "nws_server_requests_total");
  put("net.wakeups_per_req",
      ratio(metric_sum(c, "nws_server_dispatcher_wakeups_total"), served),
      "count");
  put("net.event_waits_per_req",
      ratio(metric_sum(c, "nws_server_event_waits_total"), served), "count");

  // --- nws/router + hash_ring ---------------------------------------------
  {
    const nws::HashRing ring({"127.0.0.1:7001", "127.0.0.1:7002"}, 64);
    std::size_t sink = 0;
    const int lookup = timed(rec, "router.ring_lookup", root, nseries, [&] {
      for (const std::string& s : p.series) sink += ring.lookup(s);
    });
    g_sink = static_cast<double>(sink);
    put("router.ring_lookup_ns", per_item(rec, lookup), "ns");
  }
  put("router.hop_p50_us", router_hop_p50_us(opt, p, rec, root), "us");
  put("router.replays", metric_sum(c, "nws_router_replays_total"), "count");

  // --- sim, sensors, tsa, experiments -------------------------------------
  {
    auto host = nws::make_ucsd_host(nws::UcsdHost::kThing2, opt.seed);
    const int sim = timed(rec, "sim.run_for", root, 10, [&] {
      host->run_for(10.0);
    });
    put("sim.ns_per_sim_second", per_item(rec, sim), "ns");
  }
  {
    const nws::HybridSensor sensor;
    double sink = 0.0;
    const int measure = timed(rec, "sensors.measure", root, total, [&] {
      for (std::uint64_t j = 1; j < total; ++j) {
        sink += sensor.measure(samples[j - 1].value, samples[j].value);
      }
      sink += sensor.measure(samples[0].value, samples[0].value);
    });
    g_sink = sink;
    put("sensors.measure_ns", per_item(rec, measure), "ns");
  }
  std::vector<double> values;
  for (std::uint64_t j = 0; j < total && values.size() < 8192; ++j) {
    values.push_back(samples[j].value);
  }
  {
    const std::span<const double> xs(
        values.data(), std::min<std::size_t>(values.size(), 2048));
    const int eval = timed(rec, "evaluate.battery", root, xs.size(), [&] {
      (void)nws::evaluate_battery(xs);
    });
    put("evaluate.ns_per_sample", per_item(rec, eval), "ns");
  }
  {
    double h = 0.0;
    const int hurst = timed(rec, "tsa.hurst", root, 1, [&] {
      h += nws::estimate_hurst_rs(values).hurst;
    });
    g_sink = h;
    put("tsa.hurst_ms", per_item(rec, hurst) / 1e6, "ms");
  }
  {
    double imbalance = 0.0;
    if (const auto it = live.info.find("experiments.host_imbalance");
        it != live.info.end()) {
      imbalance = it->second;
    } else {
      // A one-hour fleet on the service workloads' ledger.
      const auto& all = nws::all_ucsd_hosts();
      nws::RunnerConfig cfg;
      cfg.duration = 3600.0;
      std::mutex mu;
      std::vector<double> walls;
      const int fleet = rec.begin("experiments.fleet", root);
      (void)nws::run_fleet_parallel(
          std::vector<nws::UcsdHost>(all.begin(), all.end()), opt.seed, cfg,
          4, [&](nws::UcsdHost, double w) {
            const std::scoped_lock lock(mu);
            walls.push_back(w);
          });
      rec.end(fleet, walls.size());
      imbalance = *std::max_element(walls.begin(), walls.end()) /
                  *std::min_element(walls.begin(), walls.end());
    }
    put("experiments.host_imbalance", imbalance, "ratio");
  }
  put("gen.lag_p99_us", live.info.at("gen.lag_p99_us"), "us");
  rec.end(root);

  // --- coverage: traced stage costs beside the untraced per-unit cost ----
  const auto v = [&](const char* name) { return m.at(name).first; };
  std::vector<std::pair<std::string, double>> stages;  // ns per unit
  std::string unit = "request";
  if (opt.workload == "ingest" || opt.workload == "ingest_repl") {
    const double b = static_cast<double>(p.batch);
    const double rpc = v("journal.records_per_commit");
    stages = {{"decode", b * v("protocol.decode_ns_per_sample")},
              {"encode", v("protocol.encode_ns_per_req")},
              {"route", v("shard.route_ns")},
              {"store", b * v("store.append_ns_per_sample")},
              {"battery", b * v("battery.update_ns_per_sample")},
              {"journal", b * v("journal.append_ns_per_sample") +
                              (rpc > 0 ? b / rpc * v("journal.commit_us") * 1e3
                                       : 0.0)}};
    if (opt.workload == "ingest_repl") {
      const double rpb = v("repl.records_per_batch");
      stages.push_back({"repl.ship", b * (v("repl.log_append_ns") +
                                          v("repl.copy_ns_per_record"))});
      const double meta_ns = v("repl.meta_save_us") * 1e3;
      stages.push_back({"repl.meta", rpb > 0 ? b / rpb * meta_ns : 0.0});
      // The follower is co-located: its apply repeats store+battery+journal.
      stages.push_back({"follower.apply",
                        b * (v("store.append_ns_per_sample") +
                             v("battery.update_ns_per_sample") +
                             v("journal.append_ns_per_sample"))});
    }
  } else if (opt.workload == "fleet_query") {
    // Half PUTs (store + battery), half FORECASTs (predict); the router
    // parses each request once more and looks up its ring.
    stages = {{"decode", 2 * v("protocol.decode_ns_per_sample")},
              {"encode", v("protocol.encode_ns_per_req")},
              {"route", v("shard.route_ns") + v("router.ring_lookup_ns")},
              {"store", 0.5 * v("store.append_ns_per_sample")},
              {"battery", 0.5 * v("battery.update_ns_per_sample") +
                              0.5 * v("battery.predict_ns")}};
  } else {
    unit = "sample";
    stages = {{"sim", 10.0 * v("sim.ns_per_sim_second")},
              {"sensors", v("sensors.measure_ns")},
              {"evaluate", v("evaluate.ns_per_sample")}};
  }
  double ledger_ns = 0.0;
  std::string line = "ledger coverage (per " + unit + "):";
  for (const auto& [name, ns] : stages) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " %s=%.3fus", name.c_str(), ns / 1e3);
    line += buf;
    ledger_ns += ns;
  }
  const double cpu_s = live.info.at("cpu_s");
  const double wall_s = live.info.at("wall_s");
  const double units = live.info.at("units");
  const double untraced_us = cpu_s / units * 1e6;
  const double residual_us = untraced_us - ledger_ns / 1e3;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                " | ledger sum=%.3fus; untraced=%.3fus (cores busy %.2f / "
                "%.0f %ss per s); residual=%.3fus",
                ledger_ns / 1e3, untraced_us, cpu_s / wall_s, units / wall_s,
                unit.c_str(), residual_us);
  r.note(line + buf);
  put("net.residual_us_per_req", residual_us, "us");

  // Spans are kept in memory and written out once, here.
  const fs::path dump = fs::path(opt.scratch) /
                        ("spans-" + opt.workload + "-" +
                         std::to_string(opt.seed) + ".txt");
  std::ofstream(dump) << rec.dump();
  r.note("spans written to " + dump.string() + " (" +
         std::to_string(rec.spans().size()) + " spans)");

  for (const auto& [name, vu] : m) r.add(name, vu.first, vu.second);
  return r;
}

}  // namespace perfbench
