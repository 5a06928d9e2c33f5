// Ablation: segmented execution (paper section 3.4, Figs. 6-7). Runs the
// core of TPC-H Q17 in both of the paper's formulations:
//  * the correlated subquery form (Q17 proper), and
//  * the self-join form of section 3.4 ("the SQL representation of the
//    query after removing the correlation"),
// under the full optimizer vs. SegmentApply disabled. The join-pushdown
// effect (Fig. 7: part join inside the segment input) is what keeps the
// segmented plan from touching all of lineitem twice.
//
// Benchmark argument: {milli-scale-factor}.
#include "bench/bench_util.h"
#include "tpch/tpch_queries.h"

namespace orq {
namespace bench {
namespace {

// Section 3.4's explicit self-join formulation (no subquery).
constexpr const char* kSelfJoinForm =
    "select sum(l_extendedprice) / 7.0 as avg_yearly "
    "from lineitem, part, "
    "  (select l_partkey as l2_partkey, 0.2 * avg(l_quantity) as x "
    "   from lineitem group by l_partkey) as aggresult "
    "where p_partkey = l_partkey "
    "  and p_brand = 'Brand#23' and p_container = 'MED BOX' "
    "  and p_partkey = l2_partkey and l_quantity < x";

EngineOptions WithSegmentApply(bool enabled) {
  EngineOptions options = EngineOptions::Full();
  options.optimizer.segment_apply = enabled;
  return options;
}

void BM_Q17SubqueryForm_SA(benchmark::State& state) {
  Catalog* catalog = TpchAt(MilliSf(state.range(0)));
  RunQueryBenchmark(state, catalog, WithSegmentApply(true),
                    GetTpchQuery("Q17")->sql);
}

void BM_Q17SubqueryForm_NoSA(benchmark::State& state) {
  Catalog* catalog = TpchAt(MilliSf(state.range(0)));
  RunQueryBenchmark(state, catalog, WithSegmentApply(false),
                    GetTpchQuery("Q17")->sql);
}

void BM_Q17SelfJoinForm_SA(benchmark::State& state) {
  Catalog* catalog = TpchAt(MilliSf(state.range(0)));
  RunQueryBenchmark(state, catalog, WithSegmentApply(true), kSelfJoinForm);
}

void BM_Q17SelfJoinForm_NoSA(benchmark::State& state) {
  Catalog* catalog = TpchAt(MilliSf(state.range(0)));
  RunQueryBenchmark(state, catalog, WithSegmentApply(false), kSelfJoinForm);
}

void SweepArgs(benchmark::internal::Benchmark* b) {
  b->Arg(2)->Arg(5)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Q17SubqueryForm_SA)->Apply(SweepArgs);
BENCHMARK(BM_Q17SubqueryForm_NoSA)->Apply(SweepArgs);
BENCHMARK(BM_Q17SelfJoinForm_SA)->Apply(SweepArgs);
BENCHMARK(BM_Q17SelfJoinForm_NoSA)->Apply(SweepArgs);

}  // namespace
}  // namespace bench
}  // namespace orq

ORQ_BENCH_MAIN();
