// Tests of the benchmark's statistics helpers on hand-made inputs: the
// tail percentile rule, pairwise F1 counting, the run summary and the
// answer digest. Built and run by the perfbench CMake project:
//
//   ctest --test-dir .bench_build/perfbench --output-on-failure

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> OneTo(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // Unsorted on purpose.
  return values;
}

void TestTailRule() {
  using perfbench::TailOf;
  EXPECT(!TailOf(OneTo(39)).has_value());  // Under 40 samples: no tail.

  auto tail = TailOf(OneTo(40));
  EXPECT(tail.has_value() && tail->percent == 75 && tail->beyond == 10 &&
         Near(tail->value, 30));
  tail = TailOf(OneTo(99));  // p90 would leave 9 beyond: falls back to p75.
  EXPECT(tail.has_value() && tail->percent == 75 && tail->beyond == 24);
  tail = TailOf(OneTo(100));
  EXPECT(tail.has_value() && tail->percent == 90 && tail->beyond == 10 &&
         Near(tail->value, 90));
  tail = TailOf(OneTo(200));
  EXPECT(tail.has_value() && tail->percent == 95 && tail->beyond == 10);
  tail = TailOf(OneTo(1000));
  EXPECT(tail.has_value() && tail->percent == 99 && tail->beyond == 10 &&
         Near(tail->value, 990));
  tail = TailOf(OneTo(10000));
  EXPECT(tail.has_value() && Near(tail->percent, 99.9) && tail->beyond == 10);

  EXPECT(Near(perfbench::Percentile({5, 1, 3}, 50), 3));
  EXPECT(Near(perfbench::Percentile({5, 1, 3}, 100), 5));
  EXPECT(Near(perfbench::Percentile({5, 1, 3}, 1), 1));
}

void TestPairCounting() {
  // True clusters {0,1,2} {3,4} {5} {6,7}.
  const perfbench::Truth truth({10, 10, 10, 20, 20, 30, 40, 40});
  // Predicted groups; the focus (selected entities) is {0, 2, 3, 6}.
  const std::vector<std::vector<std::uint32_t>> groups = {
      {0, 1}, {2, 5}, {3, 4}, {6}, {7}};
  const perfbench::PairCounts counts =
      perfbench::ScoreGroups(groups, {0, 2, 3, 6}, truth);
  // Predicted touching the focus: (0,1) (2,5) (3,4).
  // True touching the focus: (0,1) (0,2) (1,2) (3,4) (6,7).
  EXPECT(counts.true_positive == 2);
  EXPECT(counts.false_positive == 1);
  EXPECT(counts.false_negative == 3);
  EXPECT(Near(counts.Precision(), 2.0 / 3));
  EXPECT(Near(counts.Recall(), 2.0 / 5));
  EXPECT(Near(counts.F1(), 0.5));

  // A group repeated (one row per join partner) is one group.
  const perfbench::PairCounts repeated =
      perfbench::ScoreGroups({{3, 4}, {3, 4}}, {3}, truth);
  EXPECT(repeated.true_positive == 1 && repeated.false_positive == 0 &&
         repeated.false_negative == 0 && Near(repeated.F1(), 1));

  // Pairs with no endpoint in the focus are not scored: (6,7) below.
  const perfbench::PairCounts outside =
      perfbench::ScoreGroups({{0, 1, 2}, {6, 7}}, {0}, truth);
  EXPECT(outside.true_positive == 2 && outside.false_positive == 0 &&
         outside.false_negative == 0);

  perfbench::PairCounts sum = counts;
  sum.Add(repeated);
  EXPECT(sum.true_positive == 3 && sum.false_positive == 1 &&
         sum.false_negative == 3);
  EXPECT(Near(perfbench::PairCounts{}.F1(), 0));
}

void TestIdGroups() {
  std::vector<std::uint32_t> ids;
  EXPECT(perfbench::ParseIdGroup("12 | 3802", &ids) && ids.size() == 2 &&
         ids[0] == 12 && ids[1] == 3802);
  EXPECT(perfbench::ParseIdGroup("7", &ids) && ids.size() == 1 && ids[0] == 7);
  EXPECT(!perfbench::ParseIdGroup("", &ids));
  EXPECT(!perfbench::ParseIdGroup("a | 1", &ids));
  EXPECT(!perfbench::ParseIdGroup("1 |2", &ids));
  EXPECT(!perfbench::ParseIdGroup("1 | ", &ids));
}

void TestSummary() {
  // Pass 1: 2 reads + 1 write in 1 s; pass 2: 1 read + 1 write in 0.5 s;
  // pass 3: 1 read in 2 s.
  const std::vector<perfbench::PassSample> passes = {
      {{{0.010, false}, {0.020, false}, {0.100, true}}, 1.0},
      {{{0.030, false}, {0.200, true}}, 0.5},
      {{{0.040, false}}, 2.0}};
  perfbench::RunSummary reads = perfbench::Summarize(passes, {1, 3, 2}, true);
  EXPECT(reads.operations == 6);
  EXPECT(Near(reads.list_seconds, 3.5));
  EXPECT(Near(reads.throughput, 3));  // Median of 3, 4 and 0.5 ops/s.
  EXPECT(Near(reads.setup_seconds, 2));
  EXPECT(reads.read_samples == 4 && Near(reads.read_p50_ms, 25));
  EXPECT(reads.write_samples == 2 && Near(reads.write_p50_ms, 150));
  EXPECT(!reads.read_tail_ms.has_value());

  perfbench::RunSummary all =
      perfbench::Summarize({passes[0], passes[1]}, {1, 3}, false);
  EXPECT(all.read_samples == 5 && Near(all.read_p50_ms, 30));
  EXPECT(Near(all.setup_seconds, 2));  // Median of an even count: the mean.
  EXPECT(Near(all.throughput, 3.5));
}

void TestRowDigest() {
  auto digest = [](const std::vector<std::vector<std::string>>& rows) {
    perfbench::RowDigest d;
    for (const auto& row : rows) {
      perfbench::RowHasher hasher;
      for (const std::string& v : row) hasher.Add(v.data(), v.size());
      hasher.EndRow(&d);
    }
    return d;
  };
  EXPECT(digest({{"a", "b"}, {"c"}}) == digest({{"c"}, {"a", "b"}}));
  EXPECT(digest({{"ab"}}) != digest({{"a", "b"}}));
  EXPECT(digest({{"a"}, {"a"}}) != digest({{"a"}}));
}

}  // namespace

int main() {
  TestTailRule();
  TestPairCounting();
  TestIdGroups();
  TestSummary();
  TestRowDigest();
  if (failures == 0) std::printf("perfbench_stats_test: all passed\n");
  return failures == 0 ? 0 : 1;
}
