// Figure 9 (left) reproduction: published TPC-H Q2 elapsed times across
// systems/processor counts. Our substitution (see DESIGN.md): Q2 elapsed
// time across *optimizer configurations* and scale factors on this engine.
// Preserved shape: the full technique set (decorrelation + GroupBy
// reordering + cost-based correlated re-introduction) is fastest by a wide
// margin, mirroring SQL Server's position in the published plot.
//
// Benchmark argument: {milli-scale-factor}.
#include "bench/bench_util.h"
#include "tpch/tpch_queries.h"

namespace orq {
namespace bench {
namespace {

void RegisterAll() {
  for (const NamedConfig& config : Configurations()) {
    std::string name = "Fig9_Q2/" + std::string(config.name);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [config](benchmark::State& state) {
          Catalog* catalog = TpchAt(MilliSf(state.range(0)));
          RunQueryBenchmark(state, catalog, config.options,
                            GetTpchQuery("Q2")->sql);
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
