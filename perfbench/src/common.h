// Shared pieces of the ORQ end-to-end benchmark: workload definitions,
// catalog set-up, the row-mode reference, result checking, statistics and
// the one-line JSON report.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "engine/engine.h"
#include "server/server.h"
#include "server/wire.h"

namespace perfbench {

enum class Workload { kTpchSuite, kAdhocMix, kWideResult };

const char* WorkloadName(Workload workload);
bool ParseWorkload(const std::string& name, Workload* out);

struct Options {
  Workload workload = Workload::kTpchSuite;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_path;
};

/// TPC-H scale factor of tpch_suite and wide_result.
inline constexpr double kTpchScale = 0.02;

int64_t NowNanos();
double PeakRssMb();

/// Host-speed probe. On a shared host, neighbours' memory traffic moves the
/// speed of random memory access, and with it every query's, by a third
/// over seconds to minutes, while plain arithmetic stays put; thread
/// hand-offs drift too. A reading is the wall time of a fixed kernel: 1M
/// random reads over 64 MB, 100k hash-map inserts, and 2,000 round trips
/// between two threads over pipes. It runs in a child process forked at
/// construction, so its memory stays out of this process's peak RSS. Take
/// readings only while the server is idle.
class HostProbe {
 public:
  HostProbe();
  /// Stops the child and waits for it.
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  double ReadMs();
  /// Every reading taken so far, in order.
  const std::vector<double>& readings_ms() const { return readings_ms_; }

 private:
  std::vector<double> readings_ms_;
  int to_child_ = -1;
  int from_child_ = -1;
  int child_ = -1;
};

/// What HostProbe reads on the reference host (4-vCPU VM, about one
/// effective core) at its usual speed. A set-up, cold pass, closed-loop
/// pass or open loop scaled by kProbeReferenceMs over the readings around
/// it reads as it would there.
inline constexpr double kProbeReferenceMs = 30.0;

/// Generates the workload's catalog (TPC-H at kTpchScale, or the difftest
/// catalog) with its indexes. The seed drives the data.
std::shared_ptr<orq::Catalog> BuildCatalog(Workload workload, uint64_t seed);

/// The SQL a workload sends, derived from the seed (and, for wide_result,
/// from the generated data). tpch_suite: the 10 queries of TpchQuerySet().
/// wide_result: 24 export queries of seeded sizes (see common.cc), shuffled.
/// adhoc_mix: `count` distinct generated queries.
std::vector<std::string> WorkloadQueries(Workload workload,
                                         const orq::Catalog& catalog,
                                         uint64_t seed, size_t count);

/// A started server plus its catalog, as the end-to-end runs use it.
struct Host {
  std::shared_ptr<orq::Catalog> catalog;
  std::unique_ptr<orq::QueryServer> server;
  ~Host();
};

/// Generates the catalog and starts a server on it with the session
/// defaults, returning once a client connection is answered.
std::unique_ptr<Host> StartHost(Workload workload, uint64_t seed);

/// One query's expected outcome, from the in-process engine in row mode.
/// Rows are kept as concatenated canonical text plus end offsets so a
/// multi-megabyte result costs one allocation.
struct Outcome {
  orq::Status status = orq::Status::OK();
  std::vector<std::string> columns;
  std::string bytes;
  std::vector<size_t> ends;
  /// Size of the result frame the server sends for this outcome.
  size_t frame_bytes = 0;

  size_t rows() const { return ends.size(); }
  /// True when the reply cannot cross the wire: the server encodes the
  /// frame, but the client's FrameDecoder rejects it (kWireMaxFrameBytes).
  bool over_frame_cap() const {
    return status.ok() && frame_bytes > orq::kWireMaxFrameBytes;
  }
};

/// Reference engine options: the default configuration in row mode.
orq::EngineOptions ReferenceOptions();

Outcome OutcomeOf(const orq::Result<orq::QueryResult>& result);

/// Percentile by linear interpolation on a copy of `values` (q in [0,1]).
double Quantile(std::vector<double> values, double q);
double GeoMean(const std::vector<double>& values);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the human-readable metric table and, as the last line of
/// stdout, the JSON result object.
void PrintReport(const char* title, bool correct, int64_t attempted,
                 int64_t failed, const std::vector<Metric>& metrics);

int RunEndToEnd(const Options& options);
int RunTraced(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
