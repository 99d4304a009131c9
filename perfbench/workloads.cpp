#include "workloads.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include "experiments/analysis.hpp"
#include "experiments/fleet.hpp"
#include "experiments/hosts.hpp"
#include "harness.hpp"
#include "nws/client.hpp"
#include "nws/forecast_service.hpp"
#include "nws/router.hpp"
#include "nws/server.hpp"
#include "sim/host.hpp"
#include "system.hpp"

namespace perfbench {

namespace fs = std::filesystem;

void RunResult::check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
}

// ---------------------------------------------------------------------------
// System helpers (system.hpp).

double rss_kib() {
  std::ifstream f("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  f >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

std::map<std::string, double> fetch_metrics(std::uint16_t port) {
  nws::NwsClient c;
  if (!c.connect(port)) return {};
  const auto body = c.metrics();
  return body ? parse_exposition(*body) : std::map<std::string, double>{};
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

ScratchDir::ScratchDir(const Options& opt, const std::string& name) {
  static std::atomic<int> counter{0};
  path_ = fs::path(opt.scratch) /
          (name + "-" + std::to_string(getpid()) + "-" +
           std::to_string(counter.fetch_add(1)));
  fs::remove_all(path_);
  fs::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

void summarize(RunResult& r, const std::string& label, const OpLog& log) {
  const std::vector<double> v = log.sorted();
  const Tail t = tail_rule(v);
  char line[256];
  std::snprintf(line, sizeof line,
                "%s: n=%zu failed=%zu p50=%.1fus p90=%.1fus p99=%.1fus "
                "rule:p%g=%.1fus (%zu beyond)",
                label.c_str(), log.attempted(), log.failed(),
                percentile(v, 0.5), percentile(v, 0.9), percentile(v, 0.99),
                t.pct, t.value, t.beyond);
  r.note(line);
}

void SubRunStats::add(double rate_per_s, const OpLog& ops, double tail_pct) {
  const std::vector<double> v = ops.sorted();
  rate.push_back(rate_per_s);
  p50.push_back(percentile(v, 0.5));
  tail.push_back(percentile(v, tail_pct));
}

void SubRunStats::report(RunResult& r) const {
  if (rate.empty()) {  // set-up failed before the first sub-run
    r.add("samples_per_s", 0.0, "1/s");
    r.add("op_p50_us", 0.0, "us");
    r.add("op_tail_us", 0.0, "us");
    return;
  }
  const auto range = [](const std::vector<double>& v) {
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g..%.6g", *lo, *hi);
    return std::string(buf);
  };
  r.note("sub-runs: n=" + std::to_string(rate.size()) + " samples_per_s " +
         range(rate) + ", op_p50_us " + range(p50) + ", op_tail_us " +
         range(tail) + " (metrics are the medians)");
  r.add("samples_per_s", median(rate), "1/s");
  r.add("op_p50_us", median(p50), "us");
  r.add("op_tail_us", median(tail), "us");
}

void add_counters(RunResult& r, const std::map<std::string, double>& after,
                  const std::map<std::string, double>& before) {
  for (const auto& [k, v] : exposition_delta(after, before)) r.counters[k] += v;
}

void print_counters(RunResult& r) {
  std::string line = "METRICS deltas (process-wide registry):";
  for (const auto& [k, v] : r.counters) {
    const std::string_view name = std::string_view(k).substr(0, k.find('{'));
    if (v == 0.0 || !(name.ends_with("_total") || name.ends_with("_sum") ||
                      name.ends_with("_count"))) {
      continue;
    }
    char buf[160];
    std::snprintf(buf, sizeof buf, " %s=%.6g", k.c_str(), v);
    line += buf;
  }
  r.note(line);
}

namespace {

// ---------------------------------------------------------------------------
// Reference answers: an in-process ForecastService fed the same samples.

struct Expected {
  std::string forecast;
  std::string values;
};

/// Expected FORECAST and VALUES replies for series 0..counts.size()-1 of
/// the sensor set, each fed samples [0, counts[s]); four threads.
std::vector<Expected> reference_replies(
    std::uint64_t seed, const std::vector<std::uint64_t>& counts,
    std::size_t capacity) {
  std::vector<Expected> out(counts.size());
  std::vector<std::thread> threads;
  constexpr std::size_t kThreads = 4;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t s = t; s < counts.size(); s += kThreads) {
        nws::ForecastService ref(capacity);
        const std::string name = sensor_series_name(s);
        for (std::uint64_t i = 0; i < counts[s]; ++i) {
          ref.record(name, sample_at(seed, s, i));
        }
        const auto f = ref.predict(name);
        if (f) {
          nws::append_forecast_response(out[s].forecast, f->value, f->mae,
                                        f->mse, f->history, f->last_time,
                                        f->method);
        }
        const nws::SeriesStore* store = ref.memory().find(name);
        std::vector<nws::Measurement> values;
        for (std::size_t i = 0; store != nullptr && i < store->size(); ++i) {
          values.push_back(store->at(i));
        }
        nws::append_values_response(out[s].values, values);
      }
    });
  }
  for (auto& th : threads) th.join();
  return out;
}

std::optional<std::string> ask(nws::NwsClient& c, nws::RequestKind kind,
                               const std::string& series,
                               std::size_t max_values = 0) {
  nws::Request req;
  req.kind = kind;
  req.series = series;
  req.max_values = max_values;
  return c.request(req);
}

/// FORECAST and VALUES of every sensor series over the wire must equal
/// the reference byte for byte.
void check_sensor_replies(RunResult& r, std::uint16_t port,
                          const std::vector<Expected>& expected,
                          std::size_t capacity, const std::string& when) {
  nws::NwsClient c;
  if (!c.connect(port)) {
    r.check(false, when + ": connect for the reference check");
    return;
  }
  std::size_t mismatches = 0;
  for (std::size_t s = 0; s < expected.size(); ++s) {
    const std::string name = sensor_series_name(s);
    const auto f = ask(c, nws::RequestKind::kForecast, name);
    const auto v = ask(c, nws::RequestKind::kValues, name, capacity);
    if (!f || *f != expected[s].forecast || !v || *v != expected[s].values) {
      ++mismatches;
    }
  }
  r.check(mismatches == 0, when + ": " + std::to_string(mismatches) +
                               " series differ from the in-process reference");
}

// ---------------------------------------------------------------------------
// ingest / ingest_repl

constexpr std::size_t kSensorSeries = 48;
constexpr std::size_t kSensorConns = 3;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kIngestShards = 2;
constexpr std::size_t kCapacity = 8192;
constexpr std::uint64_t kWarmBatches = 4;
constexpr std::uint64_t kRecoveryBatches = 32;  // 2048 samples per series
constexpr int kSubRuns = 10;
constexpr int kRecoveryReps = 3;

nws::ServerConfig ingest_config(const fs::path& journal) {
  nws::ServerConfig cfg;
  cfg.memory_capacity = kCapacity;
  cfg.shards = kIngestShards;
  cfg.dispatchers = 1;
  cfg.journal_path = journal;
  return cfg;
}

bool put_batch(nws::NwsClient& c, const std::vector<nws::Measurement>& b,
               std::size_t s, std::uint64_t k) {
  const auto reply = c.put_batch(sensor_series_name(s), b, k * kBatch + 1);
  return reply && reply->applied == kBatch && reply->dup == 0 &&
         reply->dropped == 0;
}

std::vector<nws::Measurement> make_batch(std::uint64_t seed, std::size_t s,
                                         std::uint64_t k) {
  std::vector<nws::Measurement> b(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    b[i] = sample_at(seed, s, k * kBatch + i);
  }
  return b;
}

struct IngestStack {
  std::unique_ptr<ScratchDir> dir;
  std::unique_ptr<nws::NwsServer> follower;
  std::unique_ptr<nws::NwsServer> primary;
  std::vector<nws::NwsClient> clients;
  std::vector<std::uint64_t> next_batch;  ///< per series

  IngestStack() = default;
  ~IngestStack() {
    clients.clear();
    if (primary) primary->stop();
    if (follower) follower->stop();
  }
  IngestStack(const IngestStack&) = delete;
  IngestStack& operator=(const IngestStack&) = delete;
};

/// Constructs, starts, primes and warms one ingest stack.
std::unique_ptr<IngestStack> build_ingest(const Options& opt, bool repl,
                                          RunResult& r) {
  auto st = std::make_unique<IngestStack>();
  st->dir = std::make_unique<ScratchDir>(opt, repl ? "ingest_repl" : "ingest");
  nws::ServerConfig pc = ingest_config(st->dir->path() / "primary.journal");
  if (repl) {
    nws::ServerConfig fc = ingest_config(st->dir->path() / "follower.journal");
    fc.role = nws::ServerRole::kFollower;
    st->follower = std::make_unique<nws::NwsServer>(fc);
    const std::uint16_t fport = st->follower->start(0);
    r.check(fport != 0, "follower start");
    pc.repl_followers = std::to_string(fport);
    pc.repl_sync = true;
  }
  st->primary = std::make_unique<nws::NwsServer>(pc);
  const std::uint16_t port = st->primary->start(0);
  r.check(port != 0, "primary start");
  nws::ClientConfig cc;
  cc.binary = true;
  cc.io_timeout_ms = 5000;
  for (std::size_t c = 0; c < kSensorConns; ++c) {
    st->clients.emplace_back(cc);
    r.check(st->clients.back().connect(port) &&
                st->clients.back().binary_active(),
            "sensor connection with HELLO BIN");
  }
  st->next_batch.assign(kSensorSeries, 0);
  // Priming (batch 0) and warm-up (batches 1..kWarmBatches).
  for (std::uint64_t k = 0; k <= kWarmBatches; ++k) {
    for (std::size_t s = 0; s < kSensorSeries; ++s) {
      r.check(put_batch(st->clients[s % kSensorConns],
                        make_batch(opt.seed, s, k), s, k),
              "priming PUTB");
      st->next_batch[s] = k + 1;
    }
  }
  return st;
}

/// Builds the fixed-size journal the restart replays: kRecoveryBatches
/// batches per series, written through the server's own write path.
void write_recovery_journal(const Options& opt, const fs::path& journal,
                            RunResult& r) {
  nws::NwsServer writer(ingest_config(journal));
  std::size_t bad = 0;
  for (std::uint64_t k = 0; k < kRecoveryBatches; ++k) {
    for (std::size_t s = 0; s < kSensorSeries; ++s) {
      nws::Request req;
      req.kind = nws::RequestKind::kPutBatch;
      req.series = sensor_series_name(s);
      req.seq = k * kBatch + 1;
      req.batch = make_batch(opt.seed, s, k);
      if (writer.handle_line(nws::format_request(req)) != "OK 64 0 0") ++bad;
    }
  }
  r.check(bad == 0, "recovery journal writes");
}

/// Checks one finished ingest stack: every series against an in-process
/// reference, and (replicated) the drained follower against the primary.
void check_ingest(const Options& opt, IngestStack& st, RunResult& r) {
  std::vector<std::uint64_t> counts(kSensorSeries);
  for (std::size_t s = 0; s < kSensorSeries; ++s) {
    counts[s] = st.next_batch[s] * kBatch;
  }
  check_sensor_replies(r, st.primary->port(),
                       reference_replies(opt.seed, counts, kCapacity),
                       kCapacity, "after the timed phase");
  if (!st.follower) return;
  const std::int64_t deadline = now_ns() + 10'000'000'000;
  while (st.primary->repl_lag() > 0 && now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  r.check(st.primary->repl_lag() == 0, "follower drained");
  std::size_t differ = 0;
  for (std::size_t s = 0; s < kSensorSeries; ++s) {
    const std::string name = sensor_series_name(s);
    for (const std::string& line :
         {"VALUES " + name + " " + std::to_string(kCapacity),
          "STATS " + name}) {
      if (st.follower->handle_line(line) != st.primary->handle_line(line)) {
        ++differ;
      }
    }
  }
  const auto fstats =
      nws::parse_stats_response(st.follower->handle_line("STATS"));
  const auto pstats =
      nws::parse_stats_response(st.primary->handle_line("STATS"));
  r.check(fstats && pstats && fstats->series == pstats->series &&
              fstats->retained == pstats->retained &&
              fstats->appended == pstats->appended &&
              fstats->dropped == pstats->dropped,
          "follower global STATS equal the primary's");
  r.check(differ == 0,
          std::to_string(differ) + " follower VALUES/STATS replies differ");
}

}  // namespace

RunResult run_ingest(const Options& opt, bool replicated) {
  RunResult r;
  char shape[320];
  std::snprintf(shape, sizeof shape,
                "shape: shards=%zu dispatchers=1 framing=binary batch=%zu "
                "conns=%zu closed-loop series=%zu sub-runs=%d%s "
                "journal=server-default(group=64,flush_ms=0,write+flush,"
                "no-fsync) on every instance",
                kIngestShards, kBatch, kSensorConns, kSensorSeries, kSubRuns,
                replicated ? " follower=in-process(shards=2) repl_sync=on"
                           : "");
  r.note(shape);
  std::vector<double> setups;
  OpLog puts;
  std::vector<double> gaps;  ///< reply -> next send on a connection
  std::uint64_t samples = 0;
  SubRunStats subs;
  double cpu = 0.0;
  double wall = 0.0;
  // kSubRuns sub-runs, each on a freshly built stack: set-up is timed
  // every time and thread placement re-randomises between sub-runs.
  for (int run = 0; run < kSubRuns && r.correct; ++run) {
    const std::int64_t t0 = now_ns();
    const std::unique_ptr<IngestStack> st = build_ingest(opt, replicated, r);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!r.correct) break;
    const std::uint16_t port = st->primary->port();

    // kSensorConns closed-loop connections, each owning the series s with
    // s % kSensorConns == c and cycling over them.
    struct ConnLog {
      OpLog puts;
      std::vector<double> gaps_us;
      std::uint64_t samples = 0;
    };
    std::vector<ConnLog> logs(kSensorConns);
    const auto before = fetch_metrics(port);
    const double cpu0 = cpu_seconds();
    const std::int64_t start = now_ns();
    const auto end =
        start + static_cast<std::int64_t>(opt.seconds / kSubRuns * 1e9);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kSensorConns; ++c) {
      threads.emplace_back([&, c] {
        ConnLog& log = logs[c];
        std::int64_t last_reply = 0;
        for (std::size_t i = 0;; ++i) {
          const std::size_t s =
              c + kSensorConns * (i % (kSensorSeries / kSensorConns));
          const std::uint64_t k = st->next_batch[s];
          const auto batch = make_batch(opt.seed, s, k);
          const std::int64_t sent = now_ns();
          if (sent >= end) break;
          if (last_reply != 0) {
            log.gaps_us.push_back(static_cast<double>(sent - last_reply) / 1e3);
          }
          const bool ok = put_batch(st->clients[c], batch, s, k);
          last_reply = now_ns();
          ++st->next_batch[s];
          if (ok) {
            log.puts.ok(static_cast<double>(last_reply - sent) / 1e3);
            log.samples += kBatch;
          } else {
            log.puts.fail();
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    const double run_wall = static_cast<double>(now_ns() - start) / 1e9;
    wall += run_wall;
    cpu += cpu_seconds() - cpu0;
    add_counters(r, fetch_metrics(port), before);
    OpLog run_puts;
    std::uint64_t run_samples = 0;
    for (const ConnLog& log : logs) {
      run_puts.merge(log.puts);
      gaps.insert(gaps.end(), log.gaps_us.begin(), log.gaps_us.end());
      run_samples += log.samples;
    }
    subs.add(static_cast<double>(run_samples) / run_wall, run_puts, 0.99);
    puts.merge(run_puts);
    samples += run_samples;
    check_ingest(opt, *st, r);
  }
  std::sort(gaps.begin(), gaps.end());
  print_counters(r);
  r.add("setup_s", median(setups), "s");
  subs.report(r);
  r.attempted += puts.attempted();
  r.failed += puts.failed();
  summarize(r, "putb", puts);
  r.info["units"] = static_cast<double>(puts.attempted());  // requests
  r.info["cpu_s"] = cpu;
  r.info["wall_s"] = wall;
  r.info["gen.lag_p99_us"] = percentile(gaps, 0.99);
  if (replicated) {
    r.note("follower: VALUES+STATS of all " + std::to_string(kSensorSeries) +
           " series equal the primary's after drain, in every sub-run");
    return r;
  }

  // Restart from a journal of a fixed sample count.
  ScratchDir rdir(opt, "recovery");
  const fs::path journal = rdir.path() / "primary.journal";
  write_recovery_journal(opt, journal, r);
  const auto fixed = reference_replies(
      opt.seed, std::vector<std::uint64_t>(kSensorSeries,
                                           kRecoveryBatches * kBatch),
      kCapacity);
  std::vector<double> recoveries;
  for (int rep = 0; rep < kRecoveryReps; ++rep) {
    const std::int64_t t0 = now_ns();
    nws::NwsServer server(ingest_config(journal));
    const std::uint16_t p = server.start(0);
    nws::NwsClient c;
    r.check(p != 0 && c.connect(p) && c.ping(), "restarted server answers");
    recoveries.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (rep + 1 == kRecoveryReps) {
      check_sensor_replies(r, p, fixed, kCapacity, "after the journal restart");
    }
    c.disconnect();
    server.stop();
  }
  char line[160];
  std::snprintf(line, sizeof line,
                "recovery_s=%.4f (median of %d restarts from %zu samples)",
                median(recoveries), kRecoveryReps,
                static_cast<std::size_t>(kSensorSeries * kRecoveryBatches *
                                         kBatch));
  r.note(line);
  return r;
}

// ---------------------------------------------------------------------------
// fleet_query

namespace {

constexpr std::size_t kHosts = 4096;
constexpr std::size_t kBackends = 2;
constexpr std::size_t kQueryConns = 2;
constexpr std::uint64_t kPrimeSamples = 4;
constexpr double kZipfS = 1.1;
constexpr std::size_t kReferenceHosts = 256;
constexpr std::uint16_t kBackendPort = 47311;
/// Latency depends on where the scheduler places the stack's seven
/// threads; fresh stacks per sub-run average that out.
constexpr int kQuerySubRuns = 10;

int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// A nonblocking text connection: queued output, line-split input.
struct RawConn {
  int fd = -1;
  std::string tx;
  std::size_t tx_off = 0;
  std::string rx;
  bool broken = false;

  RawConn() = default;
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;
  void flush() {
    while (tx_off < tx.size()) {
      const ssize_t n = ::send(fd, tx.data() + tx_off, tx.size() - tx_off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        tx_off += static_cast<std::size_t>(n);
      } else {
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) return;
        broken = true;
        return;
      }
    }
    tx.clear();
    tx_off = 0;
  }
  [[nodiscard]] bool pending_tx() const { return tx_off < tx.size(); }
  /// Waits up to timeout_ns for input (or output room), then moves bytes.
  /// Calls on_line(line) for every complete reply line.
  template <typename F>
  void pump(std::int64_t timeout_ns, F&& on_line) {
    pollfd p{fd, static_cast<short>(POLLIN | (pending_tx() ? POLLOUT : 0)),
             0};
    timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                static_cast<long>(timeout_ns % 1'000'000'000)};
    if (::ppoll(&p, 1, &ts, nullptr) <= 0) return;
    if (p.revents & POLLOUT) flush();
    if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
      char buf[65536];
      for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n > 0) {
          rx.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0 || (errno != EAGAIN && errno != EINTR)) broken = true;
        break;
      }
      std::size_t pos = 0;
      for (std::size_t nl; (nl = rx.find('\n', pos)) != std::string::npos;
           pos = nl + 1) {
        on_line(std::string_view(rx).substr(pos, nl - pos));
      }
      rx.erase(0, pos);
    }
  }
};

/// Sends n requests with at most `window` outstanding; every reply must
/// be OK.  Returns the number of bad or missing replies.
template <typename Make>
std::size_t closed_pipeline(RawConn& conn, std::size_t n, std::size_t window,
                            Make&& make) {
  std::size_t sent = 0;
  std::size_t got = 0;
  std::size_t bad = 0;
  const std::int64_t deadline = now_ns() + 30'000'000'000;
  while (got < n && !conn.broken && now_ns() < deadline) {
    while (sent < n && sent - got < window) make(sent++, conn.tx);
    conn.flush();
    conn.pump(5'000'000, [&](std::string_view line) {
      ++got;
      if (!reply_ok(line)) ++bad;
    });
  }
  return bad + (n - got);
}

struct QueryStack {
  std::vector<std::unique_ptr<nws::NwsServer>> backends;
  std::vector<std::uint16_t> backend_ports;
  std::unique_ptr<nws::Router> router;
  std::vector<std::unique_ptr<RawConn>> conns;

  QueryStack() = default;
  ~QueryStack() {
    conns.clear();
    if (router) router->stop();
    for (auto& b : backends) b->stop();
  }
  QueryStack(const QueryStack&) = delete;
  QueryStack& operator=(const QueryStack&) = delete;
};

std::unique_ptr<QueryStack> build_query(const Options& opt, RunResult& r,
                                        double* rss_growth_kib) {
  const double rss0 = rss_kib();
  auto st = std::make_unique<QueryStack>();
  std::string spec;
  for (std::size_t b = 0; b < kBackends; ++b) {
    nws::ServerConfig cfg;
    cfg.shards = 1;
    cfg.dispatchers = 1;
    st->backends.push_back(std::make_unique<nws::NwsServer>(cfg));
    // The router's ring is a function of the backend endpoint strings, so
    // fixed ports keep the host-to-backend split identical across runs;
    // an occupied port falls through to the next candidate.
    std::uint16_t p = 0;
    for (std::uint16_t port = kBackendPort + b;
         p == 0 && port < kBackendPort + 64; port += kBackends) {
      p = st->backends.back()->start(port);
    }
    r.check(p != 0, "backend start");
    st->backend_ports.push_back(p);
    spec += (b ? "," : "") + std::to_string(p);
  }
  nws::RouterConfig rc;
  rc.backends = spec;
  rc.dispatchers = 1;
  st->router = std::make_unique<nws::Router>(rc);
  r.check(st->router->start(0), "router start");
  for (std::size_t c = 0; c < kQueryConns; ++c) {
    auto conn = std::make_unique<RawConn>();
    conn->fd = connect_raw(st->router->port());
    r.check(conn->fd >= 0, "generator connection");
    st->conns.push_back(std::move(conn));
  }
  if (!r.correct) return st;
  // Priming: kPrimeSamples PUTs per host, on the host's own connection.
  for (std::size_t c = 0; c < kQueryConns; ++c) {
    const std::size_t owned = (kHosts - c + kQueryConns - 1) / kQueryConns;
    const std::size_t bad = closed_pipeline(
        *st->conns[c], owned * kPrimeSamples, 512,
        [&](std::size_t i, std::string& out) {
          FleetRequest req;
          req.put = true;
          req.host = c + kQueryConns * (i % owned);
          req.sample = i / owned;
          append_fleet_line(out, opt.seed, req);
        });
    r.check(bad == 0, "priming PUTs");
  }
  if (rss_growth_kib != nullptr) *rss_growth_kib = rss_kib() - rss0;
  // Warm-up: one FORECAST per host.
  for (std::size_t c = 0; c < kQueryConns; ++c) {
    const std::size_t owned = (kHosts - c + kQueryConns - 1) / kQueryConns;
    const std::size_t bad = closed_pipeline(
        *st->conns[c], owned, 512, [&](std::size_t i, std::string& out) {
          FleetRequest req;
          req.host = c + kQueryConns * i;
          append_fleet_line(out, opt.seed, req);
        });
    r.check(bad == 0, "warm-up FORECASTs");
  }
  return st;
}

}  // namespace

namespace {

/// Routed FORECASTs equal the owning backend's direct reply, and the
/// fleet-wide appended count matches the primed plus acked PUTs.
void check_query(const Options& opt, QueryStack& st, std::uint64_t put_ok,
                 RunResult& r) {
  nws::NwsClient routed;
  std::vector<nws::NwsClient> direct(kBackends);
  bool connected = routed.connect(st.router->port());
  for (std::size_t b = 0; b < kBackends; ++b) {
    connected = direct[b].connect(st.backend_ports[b]) && connected;
  }
  r.check(connected, "reference connections");
  std::size_t differ = 0;
  for (std::size_t i = 0; connected && i < kReferenceHosts; ++i) {
    const std::string name = host_series_name(mix64(opt.seed + i) % kHosts);
    const auto via_router = ask(routed, nws::RequestKind::kForecast, name);
    const auto via_backend = ask(direct[st.router->backend_of(name)],
                                 nws::RequestKind::kForecast, name);
    if (!via_router || !via_backend || *via_router != *via_backend ||
        !reply_ok(*via_router)) {
      ++differ;
    }
  }
  r.check(differ == 0, std::to_string(differ) + " of " +
                           std::to_string(kReferenceHosts) +
                           " routed FORECASTs differ from the direct reply");
  const auto stats = routed.stats();
  r.check(stats && stats->appended == kHosts * kPrimeSamples + put_ok,
          "fleet STATS appended equals primed + acked PUTs");
}

}  // namespace

/// Closed-loop capacity of one fleet_query stack: four connections (the
/// workload's limit), each sending its next request when the previous
/// reply arrives.  Used to choose kFleetQueryRate (`--calibrate 1`).
RunResult calibrate_fleet_query(const Options& opt) {
  RunResult r;
  const std::unique_ptr<QueryStack> st = build_query(opt, r, nullptr);
  const Zipf zipf(kHosts, kZipfS);
  std::atomic<std::uint64_t> done{0};
  const std::int64_t end =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < 4; ++c) {
    threads.emplace_back([&, c] {
      nws::NwsClient client;
      if (!client.connect(st->router->port())) return;
      for (std::uint64_t j = 1; now_ns() < end; j += 2) {
        // FORECASTs only: closed-loop PUTs would need per-host ordering.
        const FleetRequest req =
            fleet_request(opt.seed, c, 4, j, kHosts, zipf, kPrimeSamples);
        if (client.forecast(host_series_name(req.host))) ++done;
      }
    });
  }
  for (auto& th : threads) th.join();
  const double rate = static_cast<double>(done.load()) / opt.seconds;
  r.note("closed-loop capacity: " + std::to_string(rate) +
         " req/s over 4 connections");
  r.add("capacity_per_s", rate, "1/s");
  r.attempted = done.load();
  return r;
}

RunResult run_fleet_query(const Options& opt) {
  if (opt.calibrate) return calibrate_fleet_query(opt);
  const double rate_per_s = kFleetQueryRate;
  const Zipf zipf(kHosts, kZipfS);
  RunResult r;
  char shape[320];
  std::snprintf(shape, sizeof shape,
                "shape: backends=%zu shards=1/backend dispatchers=1 "
                "router_dispatchers=1 framing=text batch=1 conns=%zu "
                "open-loop offered_rate=%.0f/s hosts=%zu zipf=%g "
                "sub-runs=%d journal=none",
                kBackends, kQueryConns, rate_per_s, kHosts, kZipfS,
                kQuerySubRuns);
  r.note(shape);
  std::vector<double> setups;
  double rss_growth = 0.0;
  OpLog puts;
  OpLog forecasts;
  SubRunStats subs;
  std::vector<double> lateness;
  double cpu = 0.0;
  double wall = 0.0;
  for (int run = 0; run < kQuerySubRuns && r.correct; ++run) {
    const std::int64_t t0 = now_ns();
    const std::unique_ptr<QueryStack> st =
        build_query(opt, r, run == 0 ? &rss_growth : nullptr);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!r.correct) break;

    // Open loop, each connection at rate / kQueryConns.  Request indices
    // continue across sub-runs so every sub-run sends fresh samples.
    std::vector<OpenLoopAccount> accts(kQueryConns);
    const auto before = fetch_metrics(st->router->port());
    const double cpu0 = cpu_seconds();
    const std::int64_t start = now_ns() + 1'000'000;
    const auto end =
        start + static_cast<std::int64_t>(opt.seconds / kQuerySubRuns * 1e9);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kQueryConns; ++c) {
      threads.emplace_back([&, c] {
        // Wake on schedule: the default 50 us timer slack would add up
        // to that much lateness to every send.
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        RawConn& conn = *st->conns[c];
        OpenLoopAccount& acct = accts[c];
        const OpenLoop sched(rate_per_s / kQueryConns, start);
        const auto on_line = [&](std::string_view line) {
          if (!acct.on_reply(line, now_ns())) conn.broken = true;
        };
        const std::uint64_t j0 = static_cast<std::uint64_t>(run) << 32;
        std::uint64_t j = 0;
        const std::int64_t drain_deadline = end + 5'000'000'000;
        for (;;) {
          std::int64_t now = now_ns();
          while (sched.due(j) <= now && sched.due(j) < end) {
            const FleetRequest req = fleet_request(
                opt.seed, c, kQueryConns, j0 + j, kHosts, zipf, kPrimeSamples);
            append_fleet_line(conn.tx, opt.seed, req);
            acct.on_send(req.put ? 0 : 1, sched.due(j), now);
            ++j;
          }
          conn.flush();
          const bool sending_done = sched.due(j) >= end;
          if (conn.broken || (sending_done && acct.outstanding() == 0) ||
              now >= drain_deadline) {
            break;
          }
          now = now_ns();
          const std::int64_t wake =
              sending_done ? drain_deadline : std::max(sched.due(j), now);
          conn.pump(wake - now, on_line);
        }
        acct.finish();
      });
    }
    for (auto& th : threads) th.join();
    const double run_wall = static_cast<double>(now_ns() - start) / 1e9;
    wall += run_wall;
    cpu += cpu_seconds() - cpu0;
    add_counters(r, fetch_metrics(st->router->port()), before);
    std::uint64_t run_put_ok = 0;
    OpLog run_forecasts;
    for (const OpenLoopAccount& a : accts) {
      run_forecasts.merge(a.ops[1]);
      puts.merge(a.ops[0]);
      forecasts.merge(a.ops[1]);
      run_put_ok += a.ops[0].attempted() - a.ops[0].failed();
      lateness.insert(lateness.end(), a.lateness_us.begin(),
                      a.lateness_us.end());
    }
    subs.add(static_cast<double>(run_put_ok) / run_wall, run_forecasts, 0.9);
    check_query(opt, *st, run_put_ok, r);
  }
  std::sort(lateness.begin(), lateness.end());
  const double put_ok = static_cast<double>(puts.attempted() - puts.failed());

  print_counters(r);
  r.add("setup_s", median(setups), "s");
  subs.report(r);
  r.attempted += puts.attempted() + forecasts.attempted();
  r.failed += puts.failed() + forecasts.failed();
  summarize(r, "forecast", forecasts);
  summarize(r, "put", puts);
  char line[200];
  std::snprintf(line, sizeof line,
                "offered=%.0f req/s over %zu connections; generator lateness "
                "p50=%.1fus p99=%.1fus; rss_kib_per_series=%.1f",
                rate_per_s, kQueryConns, percentile(lateness, 0.5),
                percentile(lateness, 0.99), rss_growth / kHosts);
  r.note(line);
  r.info["units"] =
      static_cast<double>(puts.attempted() + forecasts.attempted());
  r.info["cpu_s"] = cpu;
  r.info["wall_s"] = wall;
  r.info["gen.lag_p99_us"] = percentile(lateness, 0.99);
  return r;
}

// ---------------------------------------------------------------------------
// paper_fleet

namespace {

constexpr double kFleetHours = 6.0;
constexpr std::size_t kFleetJobs = 4;
constexpr int kHostSetupReps = 5;
constexpr std::uint64_t kSetupSeeds = 16;
constexpr std::size_t kMinFleetRuns = 3;

nws::RunnerConfig fleet_config() {
  nws::RunnerConfig cfg;  // the short-test protocol (Tables 1-3)
  cfg.duration = kFleetHours * 3600.0;
  cfg.run_tests = true;
  cfg.run_agg_tests = false;
  return cfg;
}

/// Tables 1-3 (per host and method) plus the Table 4 Hurst estimate.
std::vector<double> paper_tables(const std::vector<nws::HostTrace>& traces) {
  std::vector<double> out;
  for (const nws::HostTrace& t : traces) {
    for (const nws::MethodTriple& m :
         {nws::measurement_error(t), nws::true_forecast_error(t),
          nws::prediction_error(t)}) {
      out.insert(out.end(), {m.load_average, m.vmstat, m.hybrid});
    }
    out.push_back(nws::self_similarity(t.load_series.values()).rs.hurst);
  }
  return out;
}

}  // namespace

RunResult run_paper_fleet(const Options& opt) {
  RunResult r;
  char shape[160];
  std::snprintf(shape, sizeof shape,
                "shape: hosts=6 jobs=%zu protocol=short-test simulated=%gh",
                kFleetJobs, kFleetHours);
  r.note(shape);
  const auto& all = nws::all_ucsd_hosts();
  const std::vector<nws::UcsdHost> hosts(all.begin(), all.end());

  // Set-up: construct the six hosts and settle them to the start of the
  // recorded window (the protocol's warm-up plus one epoch), through
  // run_fleet_parallel with the fleet's job count.  Its cost depends on
  // the seed's early process mix, so one set-up covers kSetupSeeds fleets
  // on seeds derived from --seed and reports the mean per fleet.
  const nws::RunnerConfig cfg = fleet_config();
  nws::RunnerConfig settle = cfg;
  settle.duration = cfg.measure_period;
  std::vector<double> setups;
  for (int rep = -1; rep < kHostSetupReps; ++rep) {  // rep -1 is untimed
    const std::int64_t t0 = now_ns();
    for (std::uint64_t k = 0; k < kSetupSeeds; ++k) {
      (void)nws::run_fleet_parallel(hosts, mix64(opt.seed) + k, settle,
                                    kFleetJobs);
    }
    if (rep >= 0) {
      setups.push_back(static_cast<double>(now_ns() - t0) / 1e9 / kSetupSeeds);
    }
  }

  // Reference tables, serial, outside the timed region.
  const std::vector<double> reference =
      paper_tables(nws::run_fleet_parallel(hosts, opt.seed, cfg, 1));

  OpLog host_tasks;
  OpLog fleets;  ///< fleet runs: start to complete tables
  std::vector<double> rates;
  std::vector<double> imbalance;
  std::vector<double> queue_wait_us;
  std::uint64_t samples = 0;
  std::size_t mismatched = 0;
  const double cpu0 = cpu_seconds();
  const std::int64_t start = now_ns();
  const auto end = start + static_cast<std::int64_t>(opt.seconds * 1e9);
  while (now_ns() < end || fleets.attempted() < kMinFleetRuns) {
    std::mutex mu;
    std::vector<double> host_walls;
    const std::int64_t t0 = now_ns();
    const auto traces = nws::run_fleet_parallel(
        hosts, opt.seed, cfg, kFleetJobs, [&](nws::UcsdHost, double wall) {
          const std::scoped_lock lock(mu);
          const double since = static_cast<double>(now_ns() - t0) / 1e9;
          host_walls.push_back(wall);
          queue_wait_us.push_back(std::max(0.0, since - wall) * 1e6);
        });
    const std::vector<double> tables = paper_tables(traces);
    const double fleet_wall = static_cast<double>(now_ns() - t0) / 1e9;
    fleets.ok(fleet_wall * 1e6);
    if (tables != reference) ++mismatched;
    OpLog run_tasks;
    for (const double w : host_walls) run_tasks.ok(w * 1e6);
    const auto [lo, hi] =
        std::minmax_element(host_walls.begin(), host_walls.end());
    imbalance.push_back(*hi / *lo);
    std::uint64_t run_samples = 0;
    for (const nws::HostTrace& t : traces) {
      run_samples += t.hybrid_series.size();
    }
    rates.push_back(static_cast<double>(run_samples) / fleet_wall);
    host_tasks.merge(run_tasks);
    samples += run_samples;
  }
  const double wall = static_cast<double>(now_ns() - start) / 1e9;
  const double cpu = cpu_seconds() - cpu0;
  r.check(mismatched == 0, std::to_string(mismatched) +
                               " fleet runs differ from the serial reference");

  const std::vector<double> walls = fleets.sorted();
  r.add("setup_s", median(setups), "s");
  r.add("samples_per_s", median(rates), "1/s");
  r.add("op_p50_us", percentile(walls, 0.5), "us");
  r.add("op_tail_us", percentile(walls, 0.9), "us");
  r.attempted += fleets.attempted();
  r.failed += fleets.failed();
  summarize(r, "fleet_run", fleets);
  summarize(r, "host_task", host_tasks);
  std::sort(queue_wait_us.begin(), queue_wait_us.end());
  char line[200];
  std::snprintf(line, sizeof line,
                "fleet_wall_s=%.4f (median of %zu runs, %g h simulated, %zu "
                "jobs); host_imbalance=%.3f; %zu table values equal the "
                "serial reference",
                percentile(walls, 0.5), walls.size(), kFleetHours, kFleetJobs,
                median(imbalance), reference.size());
  r.note(line);
  r.info["units"] = static_cast<double>(samples);
  r.info["cpu_s"] = cpu;
  r.info["wall_s"] = wall;
  r.info["experiments.host_imbalance"] = median(imbalance);
  r.info["gen.lag_p99_us"] = tail_rule(queue_wait_us).value;
  return r;
}

}  // namespace perfbench
