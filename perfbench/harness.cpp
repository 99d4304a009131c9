#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "nws/protocol.hpp"

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

nws::Measurement sample_at(std::uint64_t seed, std::uint64_t series,
                           std::uint64_t i) noexcept {
  const std::uint64_t h = mix64(mix64(seed ^ (series * 0x100000001b3ull)) + i);
  const double swing =
      0.5 + 0.3 * std::sin(static_cast<double>(i) / 40.0 +
                           static_cast<double>(series));
  return {10.0 * static_cast<double>(i + 1),
          std::clamp(swing + 0.2 * (unit(h) - 0.5), 0.0, 1.0)};
}

std::string sensor_series_name(std::size_t s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "sensor%02zu/cpu", s);
  return buf;
}

std::string host_series_name(std::size_t h) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "host%04zu/cpu", h);
  return buf;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::draw(std::uint64_t h) const {
  const double u = unit(h);
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                  cdf_.size() - 1);
}

void append_ingest_frame(std::string& out, std::uint64_t seed, std::size_t s,
                         std::uint64_t k, std::size_t batch) {
  nws::Request req;
  req.kind = nws::RequestKind::kPutBatch;
  req.series = sensor_series_name(s);
  req.seq = k * batch + 1;
  req.batch.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    req.batch.push_back(sample_at(seed, s, k * batch + i));
  }
  nws::append_binary_request(out, req);
}

FleetRequest fleet_request(std::uint64_t seed, std::size_t conn,
                           std::size_t conns, std::uint64_t j,
                           std::size_t hosts, const Zipf& zipf,
                           std::uint64_t first_sample) {
  FleetRequest r;
  if (j % 2 == 0) {
    // The hosts this connection owns: conn, conn + conns, ...
    const std::uint64_t owned = (hosts - conn + conns - 1) / conns;
    const std::uint64_t w = j / 2;
    r.put = true;
    r.host = conn + conns * static_cast<std::size_t>(w % owned);
    r.sample = first_sample + w / owned;
  } else {
    const std::uint64_t h =
        mix64(seed ^ mix64((static_cast<std::uint64_t>(conn) << 48) ^ j));
    r.host = zipf.draw(h);
  }
  return r;
}

void append_fleet_line(std::string& out, std::uint64_t seed,
                       const FleetRequest& r) {
  nws::Request req;
  req.series = host_series_name(r.host);
  if (r.put) {
    req.kind = nws::RequestKind::kPut;
    req.measurement = sample_at(seed, r.host, r.sample);
  } else {
    req.kind = nws::RequestKind::kForecast;
  }
  nws::append_request(out, req);
  out += '\n';
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p * n));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

Tail tail_rule(const std::vector<double>& sorted) {
  Tail t;
  t.n = sorted.size();
  for (const double pct : {99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(t.n)));
    const std::size_t beyond = t.n - std::min(rank, t.n);
    if (beyond >= 10 || pct == 50.0) {
      t.pct = pct;
      t.value = percentile(sorted, pct / 100.0);
      t.beyond = beyond;
      return t;
    }
  }
  return t;
}

void OpLog::fail() {
  lat_.push_back(std::numeric_limits<double>::infinity());
  ++failed_;
}

void OpLog::merge(const OpLog& other) {
  lat_.insert(lat_.end(), other.lat_.begin(), other.lat_.end());
  failed_ += other.failed_;
}

std::vector<double> OpLog::sorted() const {
  std::vector<double> v = lat_;
  std::sort(v.begin(), v.end());
  return v;
}

bool reply_ok(std::string_view reply) noexcept {
  return reply == "OK" || reply.starts_with("OK ");
}

void OpenLoopAccount::on_send(int kind, std::int64_t due_ns,
                              std::int64_t sent_ns) {
  inflight_.push_back({kind, due_ns});
  lateness_us.push_back(static_cast<double>(sent_ns - due_ns) / 1e3);
}

bool OpenLoopAccount::on_reply(std::string_view reply, std::int64_t now_ns) {
  if (inflight_.empty()) return false;
  const Entry e = inflight_.front();
  inflight_.pop_front();
  if (reply_ok(reply)) {
    ops[e.kind].ok(static_cast<double>(now_ns - e.due) / 1e3);
  } else {
    ops[e.kind].fail();
  }
  return true;
}

void OpenLoopAccount::finish() {
  for (const Entry& e : inflight_) ops[e.kind].fail();
  inflight_.clear();
}

int SpanRecorder::begin(std::string name, int parent) {
  spans_.push_back({std::move(name), now_ns(), 0, parent, 0});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::end(int id, std::uint64_t items) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = now_ns();
  s.items = items;
}

std::int64_t SpanRecorder::self_ns(int id) const {
  std::int64_t covered = 0;
  for (const Span& s : spans_) {
    if (s.parent == id) covered += s.end - s.start;
  }
  return duration_ns(id) - covered;
}

std::string SpanRecorder::dump() const {
  std::string out;
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line, "%zu %d %lld %lld %lld %llu %s\n", i,
                  s.parent, static_cast<long long>(s.start),
                  static_cast<long long>(s.end),
                  static_cast<long long>(self_ns(static_cast<int>(i))),
                  static_cast<unsigned long long>(s.items), s.name.c_str());
    out += line;
  }
  return out;
}

std::map<std::string, double> parse_exposition(std::string_view body) {
  std::map<std::string, double> out;
  while (!body.empty()) {
    const std::size_t nl = body.find('\n');
    const std::string_view line = body.substr(0, nl);
    body = nl == std::string_view::npos ? std::string_view{}
                                        : body.substr(nl + 1);
    if (line.empty() || line.front() == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string_view::npos) continue;
    out[std::string(line.substr(0, sp))] =
        std::strtod(std::string(line.substr(sp + 1)).c_str(), nullptr);
  }
  return out;
}

std::map<std::string, double> exposition_delta(
    const std::map<std::string, double>& after,
    const std::map<std::string, double>& before) {
  std::map<std::string, double> out;
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    out[k] = v - (it == before.end() ? 0.0 : it->second);
  }
  return out;
}

double metric_sum(const std::map<std::string, double>& m,
                  std::string_view name) {
  double total = 0.0;
  for (const auto& [k, v] : m) {
    if (k.size() >= name.size() && std::string_view(k).starts_with(name) &&
        (k.size() == name.size() || k[name.size()] == '{')) {
      total += v;
    }
  }
  return total;
}

}  // namespace perfbench
