// SUM exactness against a reference that shares no code with the
// executor. Every input is a dyadic double (a multiple of 2^-10), so the
// exact total is an integer computation; the engine's SUM must return that
// total correctly rounded, bit for bit, whatever the row order, batch
// size, execution mode, thread count or storage encoding. The row
// reference, difftest and the benchmarks all share the executor's
// accumulator, so none of them could see an accumulator that rounds
// early.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "obs/report.h"

namespace orq {
namespace {

constexpr double kUnit = 1.0 / 1024.0;  // 2^-10
constexpr int64_t kTwo62 = int64_t{1} << 62;

/// One input row: group g, and either an int64 `i` or a dyadic double
/// m * 2^-10 (`is_int` picks which one the row carries).
struct Input {
  int64_t g;
  int64_t m;
  bool is_int = false;
};

/// Exact per-group sums, correctly rounded: sum * 2^10 is an integer, and
/// the __int128 -> double conversion rounds to nearest even once.
std::map<int64_t, double> ExactSums(const std::vector<Input>& rows) {
  std::map<int64_t, __int128> scaled;
  for (const Input& in : rows) {
    scaled[in.g] += in.is_int ? static_cast<__int128>(in.m) * 1024 : in.m;
  }
  std::map<int64_t, double> out;
  for (const auto& [g, s] : scaled) {
    out[g] = static_cast<double>(s) * kUnit;
  }
  return out;
}

/// One catalog per row order: t(g, i, x), where each row carries its value
/// in `i` (int64) or `x` (double) and NULL in the other.
std::unique_ptr<Catalog> MakeCatalog(const std::vector<Input>& rows) {
  auto catalog = std::make_unique<Catalog>();
  Table* t = *catalog->CreateTable("t", {{"g", DataType::kInt64, false},
                                          {"i", DataType::kInt64, true},
                                          {"x", DataType::kDouble, true}});
  for (const Input& in : rows) {
    Status st = t->Append(
        {Value::Int64(in.g), in.is_int ? Value::Int64(in.m) : Value::Null(),
         in.is_int ? Value::Null()
                   : Value::Double(static_cast<double>(in.m) * kUnit)});
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return catalog;
}

struct Mode {
  std::string name;
  EngineOptions options;
};

std::vector<Mode> Modes() {
  std::vector<Mode> modes;
  auto add = [&](const std::string& name,
                 const std::function<void(ExecOptions*)>& set) {
    EngineOptions options = EngineOptions::Full();
    set(&options.exec);
    modes.push_back({name, options});
  };
  add("row", [](ExecOptions* e) { e->batched = false; });
  add("batch", [](ExecOptions* e) { e->columnar = false; });
  for (int size : {1, 7, 1024}) {
    add("columnar/batch" + std::to_string(size),
        [size](ExecOptions* e) { e->batch_size = size; });
  }
  add("threads4", [](ExecOptions* e) {
    e->num_threads = 4;
    e->morsel_rows = 64;
  });
  for (int size : {7, 1024}) {
    add("rle/batch" + std::to_string(size), [size](ExecOptions* e) {
      e->table_encoding = TableEncoding::kRle;
      e->batch_size = size;
    });
  }
  return modes;
}

bool PlanHas(const PlanStatsNode& node,
             const std::function<bool(const PlanStatsNode&)>& pred) {
  if (pred(node)) return true;
  for (const PlanStatsNode& child : node.children) {
    if (PlanHas(child, pred)) return true;
  }
  return false;
}

/// Runs the grouped and the scalar SUM of `arg` over `rows` in every mode
/// and checks each result bit for bit against the exact reference.
void ExpectExactInEveryMode(const std::vector<Input>& rows,
                            const std::string& arg,
                            const std::string& label) {
  const std::map<int64_t, double> expected = ExactSums(rows);
  std::vector<Input> all = rows;
  for (Input& in : all) in.g = 0;
  const double expected_total = ExactSums(all)[0];
  std::unique_ptr<Catalog> catalog = MakeCatalog(rows);
  const std::string grouped =
      "select g, sum(" + arg + ") from t group by g";
  const std::string scalar = "select sum(" + arg + ") from t";
  for (const Mode& mode : Modes()) {
    SCOPED_TRACE(label + " [" + mode.name + "]");
    QueryEngine engine(catalog.get(), mode.options);
    Result<AnalyzedQuery> by_group = engine.ExecuteAnalyzed(grouped);
    ASSERT_TRUE(by_group.ok()) << by_group.status().ToString();
    ASSERT_EQ(by_group->result.rows.size(), expected.size());
    for (const Row& row : by_group->result.rows) {
      const int64_t g = row[0].int64_value();
      ASSERT_EQ(row[1].type(), DataType::kDouble) << "group " << g;
      EXPECT_EQ(row[1].double_value(), expected.at(g)) << "group " << g;
    }
    Result<QueryResult> total = engine.Execute(scalar);
    ASSERT_TRUE(total.ok()) << total.status().ToString();
    ASSERT_EQ(total->rows.size(), 1u);
    EXPECT_EQ(total->rows[0][0].double_value(), expected_total);
    // The modes really take the paths they name.
    if (mode.options.exec.num_threads > 0) {
      EXPECT_TRUE(PlanHas(by_group->plan, [](const PlanStatsNode& n) {
        return n.name.find("Exchange") != std::string::npos;
      }));
    }
    if (mode.options.exec.table_encoding == TableEncoding::kRle) {
      EXPECT_TRUE(PlanHas(by_group->plan, [](const PlanStatsNode& n) {
        return n.stats.enc_rle_cols > 0;
      }));
    }
  }
}

/// The same multiset in its given order and in three shuffles.
std::vector<std::vector<Input>> Orders(const std::vector<Input>& rows) {
  std::vector<std::vector<Input>> orders = {rows};
  std::mt19937_64 rng(20261022);
  for (int k = 0; k < 3; ++k) {
    std::vector<Input> shuffled = rows;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    orders.push_back(std::move(shuffled));
  }
  return orders;
}

// Random dyadic doubles of mixed magnitude (|x| below 2^43, each exact in
// 53 bits) whose partial sums pass 2^43, where a running double sum starts
// rounding off the 2^-10 bits.
TEST(SumExactTest, DyadicDoublesInAnyOrderAndMode) {
  std::mt19937_64 rng(7);
  std::vector<Input> rows;
  for (int n = 0; n < 3000; ++n) {
    const int bits = static_cast<int>(rng() % 54);
    const int64_t mag = static_cast<int64_t>(rng() >> (64 - bits - 1)) >> 1;
    rows.push_back({static_cast<int64_t>(rng() % 7),
                    (rng() & 1) != 0 ? mag : -mag});
  }
  int k = 0;
  for (const std::vector<Input>& order : Orders(rows)) {
    ExpectExactInEveryMode(order, "x", "order " + std::to_string(k++));
  }
}

// Runs of repeated values, stored sorted so RLE chunks keep them: the RLE
// SUM path adds count * value per run, a product that needs more than 53
// bits, so its rounding error must be kept too.
TEST(SumExactTest, RunLengthProductsStayExact) {
  std::mt19937_64 rng(11);
  std::vector<Input> rows;
  for (int run = 0; run < 60; ++run) {
    const int64_t g = run % 3;
    const int64_t m = static_cast<int64_t>(rng() >> 12) - (int64_t{1} << 51);
    const int len = 1 + static_cast<int>(rng() % 200);
    for (int n = 0; n < len; ++n) rows.push_back({g, m});
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Input& a, const Input& b) { return a.g < b.g; });
  ExpectExactInEveryMode(rows, "x", "runs");
}

// 1e16 + 1 rounds back to 1e16 in double arithmetic, so a plain running
// sum returns 0 or 1 depending on the order. The exact answer is 1.
TEST(SumExactTest, CancellationKeepsTheSmallTerm) {
  std::vector<double> values = {1e16, 1.0, -1e16};
  std::sort(values.begin(), values.end());
  do {
    std::unique_ptr<Catalog> catalog = std::make_unique<Catalog>();
    Table* t = *catalog->CreateTable("t", {{"g", DataType::kInt64, false},
                                            {"x", DataType::kDouble, true}});
    for (double v : values) {
      ASSERT_TRUE(t->Append({Value::Int64(0), Value::Double(v)}).ok());
    }
    for (const Mode& mode : Modes()) {
      SCOPED_TRACE(mode.name + " order " + std::to_string(values[0]) + "," +
                   std::to_string(values[1]));
      QueryEngine engine(catalog.get(), mode.options);
      for (const char* sql :
           {"select sum(x) from t", "select g, sum(x) from t group by g"}) {
        Result<QueryResult> result = engine.Execute(sql);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_EQ(result->rows.size(), 1u);
        EXPECT_EQ(result->rows[0].back().double_value(), 1.0) << sql;
      }
    }
  } while (std::next_permutation(values.begin(), values.end()));
}

// SUM over int64 and double inputs together: the int64 part is summed
// exactly (mod 2^64) and joined to the double part once, at the end. Near
// +-2^62 a double's ulp is 1024, so converting the int64 sum to double
// first would round it before the fractions are added. These groups sit
// on or next to a rounding tie.
TEST(SumExactTest, IntegerSumsNearTwoToThe62JoinDoublesExactly) {
  std::vector<Input> rows = {
      // 2^62 + 512 + 2^-10: just above the tie, rounds up.
      {0, kTwo62, true}, {0, 256, true}, {0, 256, true}, {0, 1},
      // 2^62 + 512 - 2^-10: just below the tie, rounds down.
      {1, kTwo62, true}, {1, 512, true}, {1, -1},
      // -(2^62 + 512) exactly: a tie, rounds to even (-2^62).
      {2, -kTwo62, true}, {2, -512, true}, {2, 1}, {2, -1},
      // 2^62 - 1 + 0.75: ulp just below 2^62 is 512, rounds to 2^62.
      {3, kTwo62 - 1, true}, {3, 512}, {3, 256},
      // -2^62 + 3 - 1536.5, where some orders take the int64 partial sum
      // past 2^63 and back.
      {4, kTwo62, true}, {4, kTwo62, true}, {4, -kTwo62, true},
      {4, -kTwo62, true}, {4, -kTwo62, true}, {4, 3, true},
      {4, -1536 * 1024 - 512},
  };
  const std::map<int64_t, double> expected = ExactSums(rows);
  // The reference itself, by hand.
  EXPECT_EQ(expected.at(0), static_cast<double>(kTwo62) + 1024.0);
  EXPECT_EQ(expected.at(1), static_cast<double>(kTwo62));
  EXPECT_EQ(expected.at(2), -static_cast<double>(kTwo62));
  EXPECT_EQ(expected.at(3), static_cast<double>(kTwo62));
  int k = 0;
  for (const std::vector<Input>& order : Orders(rows)) {
    ExpectExactInEveryMode(order, "case when i is null then x else i end",
                           "order " + std::to_string(k++));
  }
}

}  // namespace
}  // namespace orq
