// Figure 9 (right) reproduction: published TPC-H Q17 elapsed times across
// systems/processor counts. Our substitution (see DESIGN.md): Q17 elapsed
// time across optimizer configurations and scale factors. Q17 is the
// paper's SegmentApply showcase (sections 3.4, Figs. 6-7); the preserved
// shape is the order-of-magnitude gap between the full technique set and
// configurations lacking decorrelation or the GroupBy/SegmentApply
// primitives.
//
// Benchmark argument: {milli-scale-factor}.
#include "bench/bench_util.h"
#include "tpch/tpch_queries.h"

namespace orq {
namespace bench {
namespace {

void RegisterAll() {
  for (const NamedConfig& config : Configurations()) {
    std::string name = "Fig9_Q17/" + std::string(config.name);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [config](benchmark::State& state) {
          Catalog* catalog = TpchAt(MilliSf(state.range(0)));
          RunQueryBenchmark(state, catalog, config.options,
                            GetTpchQuery("Q17")->sql);
        })
        ->Arg(2)
        ->Arg(5)
        ->Arg(10)
        ->Arg(20)
        ->Unit(benchmark::kMillisecond);
  }
}

struct Registrar {
  Registrar() { RegisterAll(); }
} registrar;

}  // namespace
}  // namespace bench
}  // namespace orq

ORQ_BENCH_MAIN();
