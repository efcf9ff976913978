#include "matching/profile_matcher.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>

#include "common/string_util.h"

namespace queryer {

namespace {

bool IsExcluded(const MatchingConfig& config, std::size_t attribute) {
  return std::find(config.excluded_attributes.begin(),
                   config.excluded_attributes.end(),
                   attribute) != config.excluded_attributes.end();
}

bool TokensMatch(const std::string& a, const std::string& b,
                 const MatchingConfig& config) {
  if (a == b) return true;
  // Single-letter abbreviation: "e" (from "E.R.") matches "entity".
  if (a.size() == 1 || b.size() == 1) return a[0] == b[0];
  return ComputeSimilarity(config.function, a, b) >=
         config.token_match_threshold;
}

// Distinct lower-cased tokens of a value (min length 1; abbreviations are
// single characters and must survive).
std::vector<std::string> ValueTokens(std::string_view value) {
  std::vector<std::string> tokens = TokenizeAlnum(value, 1);
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

}  // namespace

double ValueSimilarity(std::string_view a, std::string_view b,
                       const MatchingConfig& config) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;

  // Numeric values: string distance between numbers is meaningless.
  std::optional<double> na = ParseNumber(a);
  std::optional<double> nb = ParseNumber(b);
  if (na.has_value() && nb.has_value()) return *na == *nb ? 1.0 : 0.0;

  std::vector<std::string> tokens_a = ValueTokens(a);
  std::vector<std::string> tokens_b = ValueTokens(b);
  if (tokens_a.empty() || tokens_b.empty()) {
    return tokens_a.empty() == tokens_b.empty() ? 1.0 : 0.0;
  }

  // Greedy fuzzy matching from the smaller token set into the larger.
  const std::vector<std::string>& small =
      tokens_a.size() <= tokens_b.size() ? tokens_a : tokens_b;
  const std::vector<std::string>& large =
      tokens_a.size() <= tokens_b.size() ? tokens_b : tokens_a;
  std::vector<bool> used(large.size(), false);
  std::size_t shared = 0;
  for (const std::string& token : small) {
    for (std::size_t j = 0; j < large.size(); ++j) {
      if (used[j] || !TokensMatch(token, large[j], config)) continue;
      used[j] = true;
      ++shared;
      break;
    }
  }
  return static_cast<double>(shared) /
         static_cast<double>(tokens_a.size() + tokens_b.size() - shared);
}

AttributeWeights AttributeWeights::Compute(const Table& table) {
  AttributeWeights result;
  result.weights_.resize(table.num_attributes(), 0.0);
  for (std::size_t attr = 0; attr < table.num_attributes(); ++attr) {
    const ColumnView column = table.column(attr);
    const Dictionary& dictionary = column.dictionary();
    // Every dictionary entry occurs in at least one row, so the distinct
    // set over rows equals the distinct set over dictionary values —
    // O(distinct) lower-cased copies instead of O(rows).
    std::set<std::string> distinct;
    for (DictCode code = 0; code < dictionary.size(); ++code) {
      const std::string_view value = dictionary.value(code);
      if (!value.empty()) distinct.insert(ToLower(value));
    }
    std::size_t non_empty = table.num_rows();
    if (std::optional<DictCode> empty_code = dictionary.Find("")) {
      for (const DictCode code : column.codes()) {
        if (code == *empty_code) --non_empty;
      }
    }
    if (non_empty > 0) {
      result.weights_[attr] = static_cast<double>(distinct.size()) /
                              static_cast<double>(non_empty);
    }
  }
  return result;
}

double ProfileSimilarity(const Table& table, EntityId a, EntityId b,
                         const MatchingConfig& config,
                         const AttributeWeights* weights) {
  const std::size_t attributes = table.num_attributes();
  auto weight_of = [&](std::size_t attribute) {
    return weights == nullptr ? 1.0 : weights->weight(attribute);
  };

  // Signal 1: aligned attribute similarity, distinctiveness-weighted.
  double aligned_total = 0;
  double aligned_weight = 0;
  double total_weight = 0;
  for (std::size_t i = 0; i < attributes; ++i) {
    if (IsExcluded(config, i)) continue;
    total_weight += weight_of(i);
    const std::string_view va = table.ValueAt(a, i);
    const std::string_view vb = table.ValueAt(b, i);
    if (va.empty() || vb.empty()) continue;  // No evidence either way.
    double w = weight_of(i);
    // Identical values score 1 by construction; equal dictionary codes
    // skip the tokenization. ValueSimilarity is case-insensitive
    // internally, so raw views compare exactly as lower-cased copies.
    aligned_total += w * (table.CodeAt(a, i) == table.CodeAt(b, i)
                              ? 1.0
                              : ValueSimilarity(va, vb, config));
    aligned_weight += w;
  }
  double aligned = aligned_weight == 0 ? 0.0 : aligned_total / aligned_weight;
  // Evidence floor: a profile stripped of most of its descriptive content
  // (e.g. a record with only a code-list attribute left) must not match on
  // the little that remains.
  if (total_weight > 0 && aligned_weight < 0.5 * total_weight) {
    aligned *= aligned_weight / (0.5 * total_weight);
  }
  // The aligned signal alone already decides a match: skip the cosine
  // computation on this hot path.
  if (aligned >= config.threshold) return aligned;

  // Signal 2: whole-profile token cosine (order- and attribute-agnostic).
  // Each token carries the distinctiveness weight of the attribute it came
  // from (the max across occurrences), so code-list tokens contribute
  // little even through this channel.
  auto gather = [&](EntityId entity) {
    std::vector<std::pair<std::string, double>> tokens;
    for (std::size_t i = 0; i < attributes; ++i) {
      if (IsExcluded(config, i)) continue;
      double w = weight_of(i);
      for (auto& token : TokenizeAlnum(table.ValueAt(entity, i), 1)) {
        tokens.emplace_back(std::move(token), w);
      }
    }
    std::sort(tokens.begin(), tokens.end());
    // Deduplicate, keeping the max weight per token.
    std::size_t out = 0;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (out > 0 && tokens[out - 1].first == tokens[i].first) {
        tokens[out - 1].second = std::max(tokens[out - 1].second,
                                          tokens[i].second);
      } else {
        if (out != i) tokens[out] = std::move(tokens[i]);
        ++out;
      }
    }
    tokens.resize(out);
    return tokens;
  };
  std::vector<std::pair<std::string, double>> tokens_a = gather(a);
  std::vector<std::pair<std::string, double>> tokens_b = gather(b);
  double cosine = 0;
  if (!tokens_a.empty() && !tokens_b.empty()) {
    double dot = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < tokens_a.size() && j < tokens_b.size()) {
      int cmp = tokens_a[i].first.compare(tokens_b[j].first);
      if (cmp == 0) {
        dot += tokens_a[i].second * tokens_b[j].second;
        ++i;
        ++j;
      } else if (cmp < 0) {
        ++i;
      } else {
        ++j;
      }
    }
    double norm_a = 0;
    for (const auto& [token, w] : tokens_a) norm_a += w * w;
    double norm_b = 0;
    for (const auto& [token, w] : tokens_b) norm_b += w * w;
    if (norm_a > 0 && norm_b > 0 && dot > 0) {
      cosine = dot / (std::sqrt(norm_a) * std::sqrt(norm_b));
    }
  }
  // Rescale so `threshold` applies to both signals (see MatchingConfig).
  double cosine_scaled =
      config.cosine_threshold > 0
          ? cosine * config.threshold / config.cosine_threshold
          : cosine;

  return std::max(aligned, cosine_scaled);
}

}  // namespace queryer
