#include "stats.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

namespace {

// ceil(percent/100 * n), immune to the representation error of products
// such as 99.9 * 10000 / 100.
std::size_t NearestRank(double percent, std::size_t n) {
  return static_cast<std::size_t>(
      std::ceil(percent * static_cast<double>(n) / 100.0 - 1e-9));
}

}  // namespace

double Percentile(std::vector<double> values, double percent) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  auto rank = NearestRank(percent, values.size());
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

std::optional<Tail> TailOf(const std::vector<double>& values) {
  const std::size_t n = values.size();
  if (n < kMinTailSamples) return std::nullopt;
  for (double percent : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const std::size_t rank = NearestRank(percent, n);
    if (n - rank >= kMinTailBeyond) {
      return Tail{percent, Percentile(values, percent), n - rank};
    }
  }
  return std::nullopt;  // Unreachable for n >= 40: p75 leaves n/4 >= 10.
}

void PairCounts::Add(const PairCounts& other) {
  true_positive += other.true_positive;
  false_positive += other.false_positive;
  false_negative += other.false_negative;
}

double PairCounts::Precision() const {
  const std::uint64_t predicted = true_positive + false_positive;
  return predicted == 0 ? 0 : static_cast<double>(true_positive) / predicted;
}

double PairCounts::Recall() const {
  const std::uint64_t truth = true_positive + false_negative;
  return truth == 0 ? 0 : static_cast<double>(true_positive) / truth;
}

double PairCounts::F1() const {
  const double p = Precision();
  const double r = Recall();
  return p + r == 0 ? 0 : 2 * p * r / (p + r);
}

namespace {

std::uint64_t PairKey(std::uint32_t a, std::uint32_t b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

Truth::Truth(const std::vector<std::uint64_t>& cluster_of) {
  std::unordered_map<std::uint64_t, std::uint32_t> dense;
  cluster_of_.reserve(cluster_of.size());
  for (std::uint32_t e = 0; e < cluster_of.size(); ++e) {
    auto [it, fresh] = dense.emplace(
        cluster_of[e], static_cast<std::uint32_t>(members_.size()));
    if (fresh) members_.emplace_back();
    cluster_of_.push_back(it->second);
    members_[it->second].push_back(e);
  }
}

PairCounts ScoreGroups(const std::vector<std::vector<std::uint32_t>>& groups,
                       const std::vector<std::uint32_t>& focus,
                       const Truth& truth) {
  const std::unordered_set<std::uint32_t> in_focus(focus.begin(), focus.end());

  std::unordered_set<std::uint64_t> predicted;
  for (const std::vector<std::uint32_t>& group : groups) {
    for (std::uint32_t a : group) {
      if (in_focus.count(a) == 0) continue;
      for (std::uint32_t b : group) {
        if (a != b) predicted.insert(PairKey(a, b));
      }
    }
  }

  std::unordered_set<std::uint64_t> true_pairs;
  for (std::uint32_t a : in_focus) {
    for (std::uint32_t b : truth.Members(a)) {
      if (a != b) true_pairs.insert(PairKey(a, b));
    }
  }

  PairCounts counts;
  for (std::uint64_t pair : predicted) {
    if (true_pairs.count(pair) > 0) {
      ++counts.true_positive;
    } else {
      ++counts.false_positive;
    }
  }
  counts.false_negative = true_pairs.size() - counts.true_positive;
  return counts;
}

bool ParseIdGroup(const std::string& value, std::vector<std::uint32_t>* ids) {
  ids->clear();
  std::size_t start = 0;
  while (start <= value.size()) {
    std::size_t end = value.find(" | ", start);
    if (end == std::string::npos) end = value.size();
    if (end == start) return false;
    std::uint64_t id = 0;
    for (std::size_t i = start; i < end; ++i) {
      const char c = value[i];
      if (c < '0' || c > '9') return false;
      id = id * 10 + static_cast<std::uint64_t>(c - '0');
      if (id > UINT32_MAX) return false;
    }
    ids->push_back(static_cast<std::uint32_t>(id));
    start = end + 3;
  }
  return true;
}

RunSummary Summarize(const std::vector<PassSample>& passes,
                     const std::vector<double>& setup_seconds,
                     bool reads_only) {
  RunSummary summary;
  std::vector<double> throughputs;
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  for (const PassSample& pass : passes) {
    summary.operations += pass.ops.size();
    summary.list_seconds += pass.seconds;
    if (pass.seconds > 0) {
      throughputs.push_back(static_cast<double>(pass.ops.size()) /
                            pass.seconds);
    }
    for (const OpSample& op : pass.ops) {
      if (op.write) write_ms.push_back(op.seconds * 1e3);
      if (!op.write || !reads_only) read_ms.push_back(op.seconds * 1e3);
    }
  }
  summary.throughput = Median(throughputs);
  summary.setup_seconds = Median(setup_seconds);
  summary.read_samples = read_ms.size();
  summary.read_p50_ms = Median(read_ms);
  summary.read_tail_ms = TailOf(read_ms);
  summary.write_samples = write_ms.size();
  summary.write_p50_ms = Median(write_ms);
  return summary;
}

void RowHasher::Add(const char* data, std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= static_cast<unsigned char>(data[i]);
    state_ *= 1099511628211ull;
  }
  state_ ^= 0x1f;  // Value separator: ("ab","c") != ("a","bc").
  state_ *= 1099511628211ull;
}

void RowHasher::EndRow(RowDigest* digest) {
  // splitmix64 finalizer, so the sum over rows mixes well.
  std::uint64_t z = state_ + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  digest->sum += z;
  ++digest->rows;
  state_ = 1469598103934665603ull;
}

}  // namespace perfbench
