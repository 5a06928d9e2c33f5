#ifndef ORQ_OBS_METRICS_H_
#define ORQ_OBS_METRICS_H_

#include <cstdint>
#include <string>

namespace orq {

/// Engine-wide counters covering the micro-behaviors the per-operator
/// stats (obs/stats.h) cannot see: hash-path shape, materialization
/// volume, and the Apply re-execution pattern. One slot per counter, plain
/// int64_t, no strings on the hot path.
enum class MetricCounter : int {
  kHashJoinBuildRows = 0,  // rows drained into hash-join arenas
  kHashJoinBuckets,        // distinct join keys across all builds
  kHashJoinArenaBytes,     // approximate build-arena footprint (rows+slots)
  kHashJoinProbes,         // probe-side LookupBucket calls
  kHashAggInputRows,       // rows accumulated by hash aggregates
  kHashAggGroups,          // distinct groups across all aggregations
  kSpoolRows,              // rows materialized by NLJoin/Sort/ExceptAll spools
  kApplyInnerOpens,        // correlated Apply inner re-opens (Fig. 1's N+1)
  kSegmentInnerOpens,      // SegmentApply inner executions (one per segment)
  kInnerCacheReplays,      // uncorrelated inner re-opens served from cache
  kExchangeBatches,        // batches crossing exchange queues
  kMorselsClaimed,         // morsel ranges claimed by parallel scans
  kTaskSteals,             // pool tasks run on a thread other than their own
  // Server-side counters (src/server): recorded into the daemon's shared
  // registry, not per-execution; surfaced over the wire by \metrics.
  kServerSessionsOpened,   // client connections accepted over the lifetime
  kServerQueriesOk,        // queries that returned a result frame
  kServerQueriesError,     // queries that returned an error frame
  kServerQueriesRejected,  // admissions declined (queue full / shutdown)
  kServerQueriesTimedOut,  // queries that hit their deadline or a cancel
  // Plan-cache counters (src/engine/plan_cache): hits skip the compile
  // phases; evictions count both LRU pressure and stale-version removal.
  kPlanCacheHits,
  kPlanCacheMisses,
  kPlanCacheEvictions,
  // Columnar execution (exec/column_batch.h): column batches produced by
  // operators running in columnar mode (zero in row/batch mode).
  kColumnBatches,
  // Encoded columnar storage (catalog/table.h): per-column-chunk counters
  // recorded by table scans once per Open, for the chunks they serve.
  kEncodedChunks,   // dict- or RLE-encoded column chunks served by scans
  kDictEntries,     // dictionary entries across served dict chunks
  kEncodedBytes,    // byte footprint of served chunks (all encodings)
  kRleRuns,         // runs across served RLE chunks
};
inline constexpr int kNumMetricCounters =
    static_cast<int>(MetricCounter::kRleRuns) + 1;

/// Fixed-bucket histograms for distributions where the mean hides the
/// story (a few mega-buckets in a hash join, half-empty batches).
enum class MetricHistogram : int {
  kHashJoinChainLength = 0,  // matching build rows per probe
  kHashJoinBucketRows,       // build rows per distinct key, at build end
  kHashAggBucketChain,       // per group at build end: slots a probe walks
                             // to reach it in the open-addressed table
  kBatchFillPercent,         // NextBatch fill ratio (0-100) per pull
  kAdmissionQueueDepth,      // waiting queries observed at each admission
  kQueryLatencyMicros,       // server-side per-query wall time (admission
                             // wait + compile + execute), in microseconds
  kSelVectorSelectivity,     // selected rows / batch capacity (0-100) per
                             // columnar pull — the selection-vector density
};
inline constexpr int kNumMetricHistograms =
    static_cast<int>(MetricHistogram::kSelVectorSelectivity) + 1;

const char* MetricCounterName(MetricCounter counter);
const char* MetricHistogramName(MetricHistogram histogram);

/// Buckets per histogram: upper bounds 1,2,4,...,2^(n-2), +inf.
inline constexpr int kMetricHistogramBuckets = 16;

/// Count/sum/max plus power-of-two buckets: buckets[i] counts observations
/// with value <= 2^i (last bucket is the overflow). Percent-valued
/// histograms use the same buckets; 100 lands in bucket 7.
struct HistogramData {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t max = 0;
  int64_t buckets[kMetricHistogramBuckets] = {};

  double Mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
};

/// Named engine metrics for one execution. Opt-in through
/// ExecContext (ExecInstruments::metrics), exactly like StatsCollector:
/// executions without a registry attached pay a single null check per
/// operator call and nothing inside the operators.
class MetricsRegistry {
 public:
  void Add(MetricCounter counter, int64_t delta) {
    counters_[static_cast<int>(counter)] += delta;
  }
  void Observe(MetricHistogram histogram, int64_t value);

  int64_t counter(MetricCounter counter) const {
    return counters_[static_cast<int>(counter)];
  }
  const HistogramData& histogram(MetricHistogram histogram) const {
    return histograms_[static_cast<int>(histogram)];
  }

  /// Adds every counter and histogram of `other` into this registry.
  /// Parallel workers record into private shards that the exchange
  /// operator merges here after all workers finished (same discipline as
  /// StatsCollector::MergeFrom).
  void MergeFrom(const MetricsRegistry& other);

  /// True when nothing was recorded (renderers skip empty sections).
  bool empty() const;
  void clear();

 private:
  int64_t counters_[kNumMetricCounters] = {};
  HistogramData histograms_[kNumMetricHistograms] = {};
};

/// EXPLAIN ANALYZE rendering: one line per nonzero counter, then one line
/// per nonempty histogram (count/mean/max + the occupied buckets).
std::string RenderMetrics(const MetricsRegistry& metrics);

/// {"counters":{...},"histograms":[{"name":...,"count":...,"sum":...,
/// "max":...,"buckets":[{"le":2,"count":3},...]},...]} — schema in
/// DESIGN.md §Profiling. Zero counters and empty histograms are included
/// so consumers see a stable key set.
std::string MetricsToJson(const MetricsRegistry& metrics);

}  // namespace orq

#endif  // ORQ_OBS_METRICS_H_
