// End-to-end runs: a self-hosted QueryServer with the session defaults
// (batch exec, plain encoding, threads 0, plan cache off) driven over TCP
// by this process, every reply checked against the row-mode reference.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <random>
#include <sched.h>
#include <string_view>
#include <thread>

#include "common.h"
#include "server/client.h"

namespace perfbench {

namespace {

/// Set-up + cold-pass repetitions per run; setup_s and first_pass_s are
/// their medians. A cold pass takes ~1.4 s on tpch_suite, ~1.3 s on
/// adhoc_mix and ~5 s on wide_result.
int Reps(Workload workload) {
  switch (workload) {
    case Workload::kTpchSuite: return 5;
    case Workload::kAdhocMix: return 5;
    case Workload::kWideResult: return 3;
  }
  return 1;
}
/// adhoc_mix offered load: Poisson arrivals at this rate through at most
/// kAdhocConnections connections (one per in-flight query). It is about a
/// twentieth of one session's closed-loop capacity on these queries
/// (1.7k-2.6k queries/s measured on the reference host): a light
/// interactive load, at which fewer than one query in twenty arrives while
/// another is running, so the p90 reflects each query's own cost. At 300/s
/// those collisions sat at the p90 and moved it by a quarter or more
/// between runs. The rate is fixed, not taken from each run's capacity, so
/// every commit sees the same load.
constexpr double kAdhocRate = 100.0;
constexpr int kAdhocConnections = 4;
/// adhoc_mix cold pass and closed loop: this many distinct queries, in
/// sequence. Fewer let the seed's draw of heavy queries move qps and
/// first_pass_s by a fifth or more.
constexpr size_t kAdhocColdQueries = 3000;
/// Closed loops keep running whole passes until both the time and this
/// many samples are reached (latency_p90_ms needs them).
constexpr size_t kMinSamples = 100;

/// One connection. A failed query without a server-minted query id failed
/// on the transport (a frame the client's decoder rejected poisons the byte
/// stream), so the connection is re-dialed; a server-reported SQL error
/// leaves it in use.
class Conn {
 public:
  explicit Conn(int port) : port_(port) { Dial(); }

  orq::Result<orq::WireResult> Query(const std::string& sql) {
    orq::Result<orq::WireResult> got = client_->Query(sql);
    if (!got.ok() && client_->last_query_id().empty()) {
      client_.reset();
      Dial();
    }
    return got;
  }

 private:
  void Dial() {
    orq::Result<orq::Client> c = orq::Client::Connect("127.0.0.1", port_);
    if (!c.ok()) {
      std::fprintf(stderr, "perfbench: connect: %s\n",
                   c.status().ToString().c_str());
      std::exit(2);
    }
    client_.emplace(std::move(c.value()));
  }

  int port_;
  std::optional<orq::Client> client_;
};

/// Compares a reply against the reference outcome: the same status code and
/// message on errors; the same columns and canonical rows on success, byte
/// for byte in order, or as a sorted bag when `as_bag`.
bool Matches(const Outcome& expected, const orq::Result<orq::WireResult>& got,
             bool as_bag) {
  if (!got.ok() || !expected.status.ok()) {
    return got.status().code() == expected.status.code() &&
           got.status().message() == expected.status.message();
  }
  if (got->columns != expected.columns ||
      got->rows.size() != expected.rows()) {
    return false;
  }
  std::vector<std::string_view> want;
  want.reserve(expected.rows());
  size_t begin = 0;
  for (size_t end : expected.ends) {
    want.emplace_back(expected.bytes.data() + begin, end - begin);
    begin = end;
  }
  std::vector<std::string_view> have(got->rows.begin(), got->rows.end());
  if (as_bag) {
    std::sort(want.begin(), want.end());
    std::sort(have.begin(), have.end());
  }
  return want == have;
}

/// Decoded bytes of a result (canonical row text).
int64_t ResultBytes(const orq::WireResult& result) {
  int64_t bytes = 0;
  for (const std::string& row : result.rows) {
    bytes += static_cast<int64_t>(row.size());
  }
  return bytes;
}

/// Per-run bookkeeping of attempts, outcomes and latencies.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wrong = 0;
  int64_t frame_cap = 0;
  int64_t bytes = 0;
  std::vector<double> latencies_ms;

  /// Books one reply. Replies that match the reference (rows, or the same
  /// SQL error) are correct; a reply lost to the frame cap on a query whose
  /// result is known to exceed it is a failure but not a wrong result.
  /// Returns whether the reply was correct.
  bool Book(const Outcome& expected,
            const orq::Result<orq::WireResult>& got, bool as_bag,
            double latency_ms, const std::string& sql) {
    ++attempted;
    if (Matches(expected, got, as_bag)) {
      latencies_ms.push_back(latency_ms);
      if (got.ok()) bytes += ResultBytes(*got);
      return true;
    }
    ++failed;
    if (expected.over_frame_cap() && !got.ok()) {
      ++frame_cap;
      return false;
    }
    ++wrong;
    const std::string what = got.ok()
                                 ? "rows=" + std::to_string(got->rows.size())
                                 : got.status().ToString();
    std::fprintf(stderr, "perfbench: WRONG RESULT for: %s\n  got: %s\n",
                 sql.c_str(), what.c_str());
    return false;
  }

  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    wrong += other.wrong;
    frame_cap += other.frame_cap;
    bytes += other.bytes;
    latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                        other.latencies_ms.end());
  }
};

double Ms(int64_t nanos) { return static_cast<double>(nanos) / 1e6; }

std::vector<Outcome> References(orq::Catalog* catalog,
                                const std::vector<std::string>& queries) {
  orq::QueryEngine reference(catalog, ReferenceOptions());
  std::vector<Outcome> expected;
  expected.reserve(queries.size());
  for (const std::string& sql : queries) {
    expected.push_back(OutcomeOf(reference.Execute(sql)));
  }
  return expected;
}

/// Throughput and latency of a timed window. Each figure except geomean_ms
/// is the median over the window's passes (closed loop) or seconds (open
/// loop) of that slice's own figure, so a slow stretch of the shared host
/// moves it less than a window total would.
struct Window {
  double seconds = 0.0;
  double qps = 0.0;
  double mb_per_s = 0.0;
  double geomean_ms = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
};

/// Median over slices of each slice's latency percentiles.
void SliceLatencies(const std::vector<std::vector<double>>& slices,
                    Window* window) {
  std::vector<double> p50;
  std::vector<double> p90;
  for (const std::vector<double>& slice : slices) {
    if (slice.empty()) continue;
    p50.push_back(Quantile(slice, 0.5));
    p90.push_back(Quantile(slice, 0.9));
  }
  window->p50_ms = Quantile(p50, 0.5);
  window->p90_ms = Quantile(p90, 0.5);
}

/// kProbeReferenceMs over the mean of two probe readings: times multiply
/// by it, rates divide by it.
double ProbeScale(double before_ms, double after_ms) {
  return kProbeReferenceMs / ((before_ms + after_ms) / 2);
}

/// The open loop's latencies are scaled by one factor: kProbeReferenceMs
/// over the median of every probe reading of the run, this many of them
/// taken right before the loop and as many right after. A closed loop has a
/// factor per pass and takes the median over passes; the open loop has one
/// factor, and a single reading on either side of it is off by a tenth or
/// more (the first reading after the loop often reads high).
constexpr int kOpenLoopReadings = 5;

void ReadProbe(HostProbe* probe) {
  for (int i = 0; i < kOpenLoopReadings; ++i) probe->ReadMs();
}

/// Closed loop on one connection: whole passes over the first `count`
/// queries, in order, until `seconds` have passed and kMinSamples replies
/// were checked (3 x `seconds` at most). The probe is read before the loop
/// and after every pass; each pass is scaled by the readings around it.
/// `raw` receives the same figures unscaled.
Window ClosedLoop(int port, const std::vector<std::string>& queries,
                  const std::vector<Outcome>& expected, size_t count,
                  bool as_bag, double seconds, HostProbe* probe, Tally* tally,
                  Window* raw) {
  Conn conn(port);
  // Index 0: scaled by the probe; index 1: as measured.
  std::vector<double> pass_qps[2];
  std::vector<double> pass_mb_per_s[2];
  std::vector<std::vector<double>> pass_latencies[2];
  std::vector<std::vector<double>> per_query[2] = {
      std::vector<std::vector<double>>(count),
      std::vector<std::vector<double>>(count)};
  double probe_ms = probe->ReadMs();
  const int64_t start = NowNanos();
  Window window;
  std::vector<std::pair<size_t, double>> replies;
  while (true) {
    replies.clear();
    const int64_t pass_start = NowNanos();
    const int64_t bytes_before = tally->bytes;
    for (size_t q = 0; q < count; ++q) {
      const int64_t t0 = NowNanos();
      orq::Result<orq::WireResult> got = conn.Query(queries[q]);
      const double latency = Ms(NowNanos() - t0);
      if (tally->Book(expected[q], got, as_bag, latency, queries[q])) {
        replies.emplace_back(q, latency);
      }
    }
    const double pass_s = static_cast<double>(NowNanos() - pass_start) / 1e9;
    const double mb = static_cast<double>(tally->bytes - bytes_before) / 1e6;
    const double probe_after = probe->ReadMs();
    const double scales[2] = {ProbeScale(probe_ms, probe_after), 1.0};
    probe_ms = probe_after;
    for (int v = 0; v < 2; ++v) {
      pass_qps[v].push_back(static_cast<double>(count) / pass_s / scales[v]);
      pass_mb_per_s[v].push_back(mb / pass_s / scales[v]);
      pass_latencies[v].emplace_back();
      for (const auto& [q, latency] : replies) {
        pass_latencies[v].back().push_back(latency * scales[v]);
        per_query[v][q].push_back(latency * scales[v]);
      }
    }
    window.seconds = static_cast<double>(NowNanos() - start) / 1e9;
    if (window.seconds >= 3 * seconds) break;
    if (window.seconds >= seconds &&
        tally->latencies_ms.size() >= kMinSamples) {
      break;
    }
  }
  for (int v = 0; v < 2; ++v) {
    Window* out = v == 0 ? &window : raw;
    out->seconds = window.seconds;
    out->qps = Quantile(pass_qps[v], 0.5);
    out->mb_per_s = Quantile(pass_mb_per_s[v], 0.5);
    std::vector<double> medians;
    for (const std::vector<double>& l : per_query[v]) {
      if (!l.empty()) medians.push_back(Quantile(l, 0.5));
    }
    out->geomean_ms = GeoMean(medians);
    SliceLatencies(pass_latencies[v], out);
  }
  return window;
}

/// Open loop: seeded Poisson arrivals at kAdhocRate, each dispatched at its
/// due time on the next free of kAdhocConnections connections. Latency runs
/// from the due time. Returns the latencies of correct replies in `slices`,
/// one slice per second of due times. Query i of the window is
/// queries[offset + i].
void OpenLoop(int port, const std::vector<std::string>& queries,
              const std::vector<Outcome>& expected, size_t offset,
              const std::vector<int64_t>& due_offsets, Tally* tally,
              std::vector<double>* late_ms,
              std::vector<std::vector<double>>* slices) {
  std::atomic<size_t> next{0};
  std::vector<Tally> tallies(kAdhocConnections);
  std::vector<std::vector<double>> lates(kAdhocConnections);
  // Per connection: (second of the due time, latency) of correct replies.
  std::vector<std::vector<std::pair<size_t, double>>> timed(
      kAdhocConnections);
  // Keeps the pinned CPU from idling while the schedule runs (see NOTES.md,
  // "Open-loop wake-ups"): a SCHED_IDLE thread yields to any other thread
  // at once, but a vCPU that never halts needs no host wake-up per reply.
  std::atomic<bool> stop_spinning{false};
  std::thread spinner([&] {
    struct sched_param param {};
    sched_setscheduler(0, SCHED_IDLE, &param);
    while (!stop_spinning.load(std::memory_order_relaxed)) {
    }
  });
  const int64_t start = NowNanos() + 20'000'000;  // let every thread dial
  std::vector<std::thread> threads;
  for (int c = 0; c < kAdhocConnections; ++c) {
    threads.emplace_back([&, c] {
      Conn conn(port);
      while (true) {
        const size_t i = next.fetch_add(1);
        if (i >= due_offsets.size()) break;
        const int64_t due = start + due_offsets[i];
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
        const int64_t sent = NowNanos();
        const size_t q = offset + i;
        orq::Result<orq::WireResult> got = conn.Query(queries[q]);
        const int64_t done = NowNanos();
        lates[c].push_back(Ms(sent - due));
        if (tallies[c].Book(expected[q], got, /*as_bag=*/true,
                            Ms(done - due), queries[q])) {
          timed[c].emplace_back(
              static_cast<size_t>(due_offsets[i] / 1'000'000'000),
              Ms(done - due));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stop_spinning = true;
  spinner.join();
  for (int c = 0; c < kAdhocConnections; ++c) {
    tally->Merge(tallies[c]);
    late_ms->insert(late_ms->end(), lates[c].begin(), lates[c].end());
    for (const auto& [second, latency] : timed[c]) {
      if (slices->size() <= second) slices->resize(second + 1);
      (*slices)[second].push_back(latency);
    }
  }
}

/// One cold pass on a fresh catalog: the first `count` queries, in
/// sequence, on one connection. Returns the replies and the pass wall.
std::vector<orq::Result<orq::WireResult>> ColdPass(
    int port, const std::vector<std::string>& queries, size_t count,
    double* seconds) {
  std::vector<orq::Result<orq::WireResult>> replies;
  Conn conn(port);
  const int64_t t0 = NowNanos();
  for (size_t q = 0; q < count; ++q) {
    replies.push_back(conn.Query(queries[q]));
  }
  *seconds = static_cast<double>(NowNanos() - t0) / 1e9;
  return replies;
}

}  // namespace

int RunEndToEnd(const Options& options) {
  const Workload workload = options.workload;
  const bool adhoc = workload == Workload::kAdhocMix;
  // adhoc_mix splits the window: a closed loop over the cold-pass queries
  // (throughput), then the open loop (latency).
  const double closed_s = adhoc ? options.seconds / 3 : options.seconds;
  const double open_s = options.seconds - closed_s;

  // The adhoc_mix arrival schedule; its length sets the stream length.
  std::vector<int64_t> due_offsets;
  if (adhoc) {
    std::mt19937_64 rng(options.seed ^ 0xA5A5A5A5ull);
    std::exponential_distribution<double> gap(kAdhocRate);
    double t = 0.0;
    while ((t += gap(rng)) < open_s) {
      due_offsets.push_back(static_cast<int64_t>(t * 1e9));
    }
  }

  // Repeated set-up and cold pass: generate the catalog and its indexes,
  // start the server, wait until it answers (setup_s), then run the cold
  // pass on the fresh catalog (first_pass_s). Every repetition generates
  // the same data, so the references computed on the first one check all
  // of them. The last host stays up for the timed window. The probe is read
  // before and after each repetition, and each is scaled by those readings.
  HostProbe probe;
  // Index 0: scaled by the probe; index 1: as measured.
  std::vector<double> setups[2];
  std::vector<double> cold_passes[2];
  std::unique_ptr<Host> host;
  std::vector<std::string> queries;
  std::vector<Outcome> expected;
  size_t cold_count = 0;
  Tally cold_tally;
  double probe_ms = probe.ReadMs();
  for (int r = 0; r < Reps(workload); ++r) {
    host.reset();
    if (r > 0) probe_ms = probe.ReadMs();
    const int64_t t0 = NowNanos();
    host = StartHost(workload, options.seed);
    const double setup_s = static_cast<double>(NowNanos() - t0) / 1e9;
    if (r == 0) {
      queries = WorkloadQueries(workload, *host->catalog, options.seed,
                                kAdhocColdQueries + due_offsets.size());
      cold_count = adhoc ? kAdhocColdQueries : queries.size();
    }
    double cold_s = 0.0;
    std::vector<orq::Result<orq::WireResult>> cold =
        ColdPass(host->server->port(), queries, cold_count, &cold_s);
    const double scale = ProbeScale(probe_ms, probe.ReadMs());
    setups[0].push_back(setup_s * scale);
    setups[1].push_back(setup_s);
    cold_passes[0].push_back(cold_s * scale);
    cold_passes[1].push_back(cold_s);
    // References, outside every timed interval.
    if (r == 0) expected = References(host->catalog.get(), queries);
    for (size_t q = 0; q < cold.size(); ++q) {
      cold_tally.Book(expected[q], cold[q], adhoc, 0.0, queries[q]);
    }
  }

  const int port = host->server->port();
  Tally closed;
  Window raw;
  const Window window =
      ClosedLoop(port, queries, expected, cold_count, /*as_bag=*/adhoc,
                 closed_s, &probe, &closed, &raw);
  // Latency percentiles come from the open loop where there is one.
  Window latency = window;
  Tally open;
  std::vector<double> late_ms;
  Window raw_latency = raw;
  if (adhoc) {
    std::vector<std::vector<double>> slices;
    ReadProbe(&probe);
    OpenLoop(port, queries, expected, kAdhocColdQueries, due_offsets, &open,
             &late_ms, &slices);
    SliceLatencies(slices, &raw_latency);
    ReadProbe(&probe);
    const double scale =
        kProbeReferenceMs / Quantile(probe.readings_ms(), 0.5);
    for (std::vector<double>& slice : slices) {
      for (double& l : slice) l *= scale;
    }
    SliceLatencies(slices, &latency);
  }
  host.reset();

  Tally all;
  all.Merge(closed);
  all.Merge(open);
  const double attempted = static_cast<double>(all.attempted);
  const std::vector<Metric> metrics = {
      {"setup_s", Quantile(setups[0], 0.5), "s"},
      {"first_pass_s", Quantile(cold_passes[0], 0.5), "s"},
      {"qps", window.qps, "queries/s"},
      {"geomean_ms", window.geomean_ms, "ms"},
      {"latency_p50_ms", latency.p50_ms, "ms"},
      {"latency_p90_ms", latency.p90_ms, "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"ok_frac",
       (attempted - static_cast<double>(all.failed)) /
           std::max(attempted, 1.0),
       "ratio"},
  };

  std::printf(
      "workload=%s seed=%llu closed=%.2fs samples=%zu "
      "result_mb_per_s=%.6g (not gated)\n",
      WorkloadName(workload), static_cast<unsigned long long>(options.seed),
      window.seconds, closed.latencies_ms.size(), window.mb_per_s);
  std::printf(
      "as measured: setup_s=%.6g first_pass_s=%.6g qps=%.6g geomean_ms=%.6g "
      "latency_p50_ms=%.6g latency_p90_ms=%.6g\n",
      Quantile(setups[1], 0.5), Quantile(cold_passes[1], 0.5), raw.qps,
      raw.geomean_ms, raw_latency.p50_ms, raw_latency.p90_ms);
  if (adhoc) {
    std::printf(
        "open loop: %.0f/s for %.1fs samples=%zu latency_p99_ms=%.4f "
        "gen_late_p90_ms=%.4f (not gated)\n",
        kAdhocRate, open_s, open.latencies_ms.size(),
        Quantile(open.latencies_ms, 0.99), Quantile(late_ms, 0.9));
  }
  all.Merge(cold_tally);
  std::printf("checked=%lld frame_cap_failures=%lld wrong=%lld\n",
              static_cast<long long>(all.attempted),
              static_cast<long long>(all.frame_cap),
              static_cast<long long>(all.wrong));
  const bool correct = all.wrong == 0;
  PrintReport(WorkloadName(workload), correct, all.attempted, all.failed,
              metrics);
  return correct ? 0 : 1;
}

}  // namespace perfbench
