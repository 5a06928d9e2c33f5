#include "common.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <random>
#include <thread>
#include <unordered_map>

#include "difftest/dataset.h"
#include "difftest/oracle.h"
#include "difftest/qgen.h"
#include "obs/stats.h"
#include "server/client.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace perfbench {

namespace {

/// wide_result payloads: one export query per stratum of kWideStrata,
/// log-spaced in frame bytes from kWideMinBytes to kWideMaxBytes. The top
/// stratum (17.1-24 MB) lies wholly past kWireMaxFrameBytes, so one query
/// per pass always hits the frame cap. The seed draws the data, each
/// query's column list, its target inside the middle quarter of its
/// stratum (and so `k`), and the query order.
constexpr int kWideStrata = 16;
constexpr double kWideMinBytes = 100e3;
constexpr double kWideMaxBytes = 24e6;

/// Frame bytes beyond the rows: length prefix + type byte, column count and
/// names, row count, rows_produced and a server-minted query id.
size_t FrameOverhead(const std::vector<std::string>& columns) {
  size_t bytes = 4 + 1 + 4 + 4 + 8 + 4 + 12;
  for (const std::string& column : columns) bytes += 4 + column.size();
  return bytes;
}

void Die(const std::string& what, const orq::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

std::vector<std::string> WideQueries(const orq::Catalog& catalog,
                                     uint64_t seed) {
  const orq::Table& lineitem = *catalog.FindTable("lineitem");
  const orq::Table& orders = *catalog.FindTable("orders");
  const int l_key = lineitem.ColumnOrdinal("l_orderkey");
  const int o_key = orders.ColumnOrdinal("o_orderkey");

  // Lineitem rows in l_orderkey order, each paired with its order row.
  std::vector<size_t> by_key(lineitem.num_rows());
  std::iota(by_key.begin(), by_key.end(), size_t{0});
  const std::vector<orq::Row>& lrows = lineitem.rows();
  std::stable_sort(by_key.begin(), by_key.end(), [&](size_t a, size_t b) {
    return lrows[a][l_key].int64_value() < lrows[b][l_key].int64_value();
  });
  std::unordered_map<int64_t, size_t> order_row;
  for (size_t i = 0; i < orders.num_rows(); ++i) {
    order_row[orders.rows()[i][o_key].int64_value()] = i;
  }

  // Canonical text width of one column's value for each lineitem row (in
  // by_key order), computed once per column on first use.
  std::unordered_map<std::string, std::vector<uint32_t>> widths;
  auto width_of =
      [&](const std::string& column) -> const std::vector<uint32_t>& {
    auto it = widths.find(column);
    if (it != widths.end()) return it->second;
    std::vector<uint32_t> w;
    w.reserve(by_key.size());
    const bool from_orders = column[0] == 'o';
    const orq::Table& table = from_orders ? orders : lineitem;
    const int ordinal = table.ColumnOrdinal(column);
    for (size_t r : by_key) {
      const orq::Row& row =
          from_orders
              ? orders.rows()[order_row.at(lrows[r][l_key].int64_value())]
              : lrows[r];
      w.push_back(static_cast<uint32_t>(
          orq::CanonicalRow(orq::Row{row[ordinal]}).size()));
    }
    return widths.emplace(column, std::move(w)).first->second;
  };

  std::vector<std::string> l_cols;
  std::vector<std::string> o_cols;
  for (const orq::ColumnSpec& c : lineitem.columns()) l_cols.push_back(c.name);
  for (const orq::ColumnSpec& c : orders.columns()) o_cols.push_back(c.name);

  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 11);
  std::uniform_real_distribution<double> jitter(0.375, 0.625);
  std::vector<std::string> queries;
  for (int stratum = 0; stratum < kWideStrata; ++stratum) {
    const double target =
        kWideMinBytes * std::pow(kWideMaxBytes / kWideMinBytes,
                                 (stratum + jitter(rng)) / kWideStrata);
    // 1-3 lineitem columns, then on a coin flip 1-2 orders columns; the
    // rest of both tables, in seeded order, widens the list if needed.
    std::vector<std::string> lpool = l_cols;
    std::vector<std::string> opool = o_cols;
    std::shuffle(lpool.begin(), lpool.end(), rng);
    std::shuffle(opool.begin(), opool.end(), rng);
    std::vector<std::string> cols(lpool.begin(),
                                  lpool.begin() + 1 + rng() % 3);
    lpool.erase(lpool.begin(), lpool.begin() + cols.size());
    if (rng() % 2 == 0) {
      const size_t n = 1 + rng() % 2;
      cols.insert(cols.end(), opool.begin(), opool.begin() + n);
      opool.erase(opool.begin(), opool.begin() + n);
    }
    lpool.insert(lpool.end(), opool.begin(), opool.end());

    auto row_bytes = [&](size_t i) {
      size_t bytes = 4 + cols.size() - 1;
      for (const std::string& c : cols) bytes += width_of(c)[i];
      return bytes;
    };
    auto total_bytes = [&] {
      size_t total = FrameOverhead(cols);
      for (size_t i = 0; i < by_key.size(); ++i) total += row_bytes(i);
      return total;
    };
    // Widen the column list until the whole table can reach the target.
    while (total_bytes() < target * 1.05 && !lpool.empty()) {
      cols.push_back(lpool.front());
      lpool.erase(lpool.begin());
    }
    // Smallest key prefix whose payload reaches the target.
    int64_t k = lrows[by_key.back()][l_key].int64_value() + 1;
    size_t cum = FrameOverhead(cols);
    for (size_t i = 0; i < by_key.size(); ++i) {
      cum += row_bytes(i);
      if (cum >= target) {
        k = lrows[by_key[i]][l_key].int64_value() + 1;
        break;
      }
    }
    bool join = false;
    std::string sql = "SELECT ";
    for (size_t i = 0; i < cols.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += cols[i];
      join = join || cols[i][0] == 'o';
    }
    sql += " FROM lineitem";
    if (join) sql += " JOIN orders ON l_orderkey = o_orderkey";
    sql += " WHERE l_orderkey < " + std::to_string(k);
    queries.push_back(std::move(sql));
  }
  std::shuffle(queries.begin(), queries.end(), rng);
  return queries;
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kTpchSuite: return "tpch_suite";
    case Workload::kAdhocMix: return "adhoc_mix";
    case Workload::kWideResult: return "wide_result";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kTpchSuite, Workload::kAdhocMix,
                     Workload::kWideResult}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

int64_t NowNanos() { return orq::ObsNowNanos(); }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

int64_t ProbeKernelNanos(const std::vector<uint32_t>& words) {
  const int64_t start = NowNanos();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  uint64_t sum = 0;
  for (int i = 0; i < 1000000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    sum += words[(x >> 20) % words.size()];
  }
  std::unordered_map<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 100000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    map[x >> 40] += i + (sum & 1);
  }
  const int64_t end = NowNanos();
  return map.empty() ? 0 : end - start;
}

/// 2,000 one-byte round trips between two threads over a pair of pipes:
/// the thread wake-ups that a query's client, connection and worker
/// hand-offs pay.
int64_t HandOffNanos() {
  int ping[2];
  int pong[2];
  if (pipe(ping) != 0 || pipe(pong) != 0) return 0;
  constexpr int kTrips = 2000;
  std::thread echo([&] {
    char c;
    for (int i = 0; i < kTrips; ++i) {
      if (read(ping[0], &c, 1) != 1 || write(pong[1], &c, 1) != 1) return;
    }
  });
  const int64_t start = NowNanos();
  char c = 'x';
  bool ok = true;
  for (int i = 0; ok && i < kTrips; ++i) {
    ok = write(ping[1], &c, 1) == 1 && read(pong[0], &c, 1) == 1;
  }
  const int64_t end = NowNanos();
  echo.join();
  for (int fd : {ping[0], ping[1], pong[0], pong[1]}) close(fd);
  return ok ? end - start : 0;
}

}  // namespace

HostProbe::HostProbe() {
  int down[2];
  int up[2];
  if (pipe(down) != 0 || pipe(up) != 0) {
    Die("host probe", orq::Status::Internal("pipe failed"));
  }
  child_ = fork();
  if (child_ < 0) Die("host probe", orq::Status::Internal("fork failed"));
  if (child_ == 0) {
    close(down[1]);
    close(up[0]);
    std::vector<uint32_t> words(size_t{1} << 24);
    for (size_t i = 0; i < words.size(); ++i) {
      words[i] = static_cast<uint32_t>(i * 2654435761u);
    }
    char c;
    while (read(down[0], &c, 1) == 1) {
      const int64_t nanos = ProbeKernelNanos(words) + HandOffNanos();
      if (write(up[1], &nanos, sizeof nanos) != sizeof nanos) break;
    }
    _exit(0);
  }
  close(down[0]);
  close(up[1]);
  to_child_ = down[1];
  from_child_ = up[0];
}

HostProbe::~HostProbe() {
  close(to_child_);
  close(from_child_);
  waitpid(child_, nullptr, 0);
}

double HostProbe::ReadMs() {
  const char c = 'p';
  int64_t nanos = 0;
  if (write(to_child_, &c, 1) != 1 ||
      read(from_child_, &nanos, sizeof nanos) != sizeof nanos || nanos <= 0) {
    Die("host probe", orq::Status::Internal("probe child failed"));
  }
  readings_ms_.push_back(static_cast<double>(nanos) / 1e6);
  return readings_ms_.back();
}

std::shared_ptr<orq::Catalog> BuildCatalog(Workload workload, uint64_t seed) {
  auto catalog = std::make_shared<orq::Catalog>();
  orq::Status built;
  if (workload == Workload::kAdhocMix) {
    built = orq::BuildDifftestCatalog(catalog.get(), seed);
  } else {
    orq::TpchGenOptions gen;
    gen.scale_factor = kTpchScale;
    gen.seed = seed;
    built = orq::GenerateTpch(catalog.get(), gen);
  }
  if (!built.ok()) Die("catalog generation", built);
  return catalog;
}

std::vector<std::string> WorkloadQueries(Workload workload,
                                         const orq::Catalog& catalog,
                                         uint64_t seed, size_t count) {
  std::vector<std::string> queries;
  switch (workload) {
    case Workload::kTpchSuite:
      for (const orq::TpchQuery& q : orq::TpchQuerySet()) {
        queries.push_back(q.sql);
      }
      break;
    case Workload::kAdhocMix: {
      orq::QueryGenerator generator(seed);
      for (size_t i = 0; i < count; ++i) {
        queries.push_back(orq::RenderSql(generator.Generate()));
      }
      break;
    }
    case Workload::kWideResult:
      queries = WideQueries(catalog, seed);
      break;
  }
  return queries;
}

Host::~Host() {
  if (server != nullptr) server->Stop();
  server.reset();
  catalog.reset();
}

std::unique_ptr<Host> StartHost(Workload workload, uint64_t seed) {
  auto host = std::make_unique<Host>();
  host->catalog = BuildCatalog(workload, seed);
  host->server =
      std::make_unique<orq::QueryServer>(host->catalog, orq::ServerOptions{});
  orq::Status started = host->server->Start();
  if (!started.ok()) Die("server start", started);
  orq::Result<orq::Client> client =
      orq::Client::Connect("127.0.0.1", host->server->port());
  if (!client.ok()) Die("connect", client.status());
  orq::Status pong = client->Ping();
  if (!pong.ok()) Die("ping", pong);
  return host;
}

orq::EngineOptions ReferenceOptions() {
  orq::EngineOptions options;
  options.exec.batched = false;
  return options;
}

Outcome OutcomeOf(const orq::Result<orq::QueryResult>& result) {
  Outcome out;
  if (!result.ok()) {
    out.status = result.status();
    return out;
  }
  out.columns = result->column_names;
  out.ends.reserve(result->rows.size());
  for (const orq::Row& row : result->rows) {
    out.bytes += orq::CanonicalRow(row);
    out.ends.push_back(out.bytes.size());
  }
  out.frame_bytes =
      FrameOverhead(out.columns) + out.bytes.size() + 4 * out.ends.size();
  return out;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-9));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void PrintReport(const char* title, bool correct, int64_t attempted,
                 int64_t failed, const std::vector<Metric>& metrics) {
  std::printf("== %s ==\n", title);
  std::printf("%-52s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-52s %16.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("correct=%s attempted=%" PRId64 " failed=%" PRId64 "\n",
              correct ? "true" : "false", attempted, failed);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    std::snprintf(buf, sizeof buf, "%.10g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
