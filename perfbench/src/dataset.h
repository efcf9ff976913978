// The benchmark's inputs: five dirty tables generated from one seed by the
// repository's generators, written as CSV files (plus one ground-truth file
// per table), and read back by the benchmark's own CSV reader so that the
// answer checks never go through the engine's loader.

#ifndef PERFBENCH_DATASET_H_
#define PERFBENCH_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Table sizes. Duplicate ratios and attribute counts are the generators'
/// defaults (see README.md).
inline constexpr std::size_t kDsdRows = 6000;
inline constexpr std::size_t kOrgRows = 1500;
inline constexpr std::size_t kPeopleRows = 8000;
inline constexpr std::size_t kOagpRows = 30000;
inline constexpr std::size_t kOagvRows = 3000;
inline constexpr std::size_t kVenueUniverse = 400;

/// Catalog names, in registration order.
inline const std::vector<std::string>& TableNames() {
  static const std::vector<std::string> names = {"dsd", "people", "orgs",
                                                 "oagp", "oagv"};
  return names;
}

/// Generates every table from `seed` into `dir` (`<name>.csv` and
/// `<name>.truth`, one true-cluster label per row). Same seed, same files.
bool Generate(std::uint64_t seed, const std::string& dir, std::string* error);

/// One table as the benchmark sees it: header, rows, ground truth.
struct TableData {
  std::string name;
  std::string csv_path;
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  Truth truth;

  /// Column position by name; aborts on an unknown name (a benchmark bug).
  std::size_t Col(const std::string& column) const;
};

struct Dataset {
  std::vector<TableData> tables;  // In TableNames() order.
  const TableData& Get(const std::string& name) const;
};

/// Reads what Generate wrote.
bool LoadDataset(const std::string& dir, Dataset* out, std::string* error);

/// RFC 4180 CSV parsing (quoted fields, doubled quotes, CRLF tolerated).
bool ParseCsv(const std::string& text, std::vector<std::vector<std::string>>* rows,
              std::string* error);

/// The value as a number when the whole of it is one (strtod rules, no
/// trailing characters); false for the empty value.
bool AsNumber(const std::string& value, double* out);

// The engine's value semantics, as documented for its predicates and
// joins, implemented apart from it: a comparison is numeric when both
// values are numbers and case-insensitive lexicographic otherwise.

/// -1, 0 or 1.
int CompareValues(const std::string& a, const std::string& b);

/// The key two values join on: equal keys join; numbers compare by value,
/// other strings case-insensitively. Empty values join nothing.
std::string JoinKey(const std::string& value);

/// SQL LIKE with '%' and '_', case-insensitive.
bool LikeMatch(const std::string& value, const std::string& pattern);

}  // namespace perfbench

#endif  // PERFBENCH_DATASET_H_
