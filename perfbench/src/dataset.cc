#include "dataset.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "datagen/orgs.h"
#include "datagen/people.h"
#include "datagen/scholarly.h"
#include "storage/csv.h"

namespace perfbench {

namespace {

// One independent generator seed per table, derived from the run's seed.
std::uint64_t TableSeed(std::uint64_t seed, std::uint64_t table) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + table * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

bool WriteTable(const queryer::datagen::GeneratedDataset& data,
                const std::string& dir, const std::string& name,
                std::string* error) {
  queryer::Status status =
      queryer::WriteCsvFile(*data.table, dir + "/" + name + ".csv");
  if (!status.ok()) {
    *error = status.ToString();
    return false;
  }
  std::ofstream truth(dir + "/" + name + ".truth");
  for (queryer::EntityId e = 0; e < data.ground_truth.num_entities(); ++e) {
    truth << data.ground_truth.cluster(e) << '\n';
  }
  truth.close();
  if (!truth) {
    *error = "cannot write " + dir + "/" + name + ".truth";
    return false;
  }
  return true;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

}  // namespace

bool Generate(std::uint64_t seed, const std::string& dir, std::string* error) {
  using namespace queryer::datagen;
  const GeneratedDataset dsd = MakeDsdLike(kDsdRows, TableSeed(seed, 1));
  const GeneratedDataset orgs = MakeOrganisations(kOrgRows, TableSeed(seed, 2));
  const GeneratedDataset people = MakePeople(
      kPeopleRows, OrganisationNamePool(orgs), TableSeed(seed, 3));
  const std::vector<VenueUniverseEntry> universe =
      MakeVenueUniverse(kVenueUniverse, TableSeed(seed, 4));
  const GeneratedDataset oagp =
      MakeOagpLike(kOagpRows, universe, TableSeed(seed, 5));
  const GeneratedDataset oagv =
      MakeOagvLike(kOagvRows, universe, TableSeed(seed, 6));
  return WriteTable(dsd, dir, "dsd", error) &&
         WriteTable(people, dir, "people", error) &&
         WriteTable(orgs, dir, "orgs", error) &&
         WriteTable(oagp, dir, "oagp", error) &&
         WriteTable(oagv, dir, "oagv", error);
}

std::size_t TableData::Col(const std::string& column) const {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == column) return i;
  }
  std::fprintf(stderr, "perfbench: table %s has no column %s\n", name.c_str(),
               column.c_str());
  std::abort();
}

const TableData& Dataset::Get(const std::string& name) const {
  for (const TableData& table : tables) {
    if (table.name == name) return table;
  }
  std::fprintf(stderr, "perfbench: no table %s\n", name.c_str());
  std::abort();
}

bool ParseCsv(const std::string& text, std::vector<std::vector<std::string>>* rows,
              std::string* error) {
  rows->clear();
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    if (c == '"') {
      if (!field.empty()) {
        *error = "quote inside an unquoted field";
        return false;
      }
      in_quotes = true;
      field_started = true;
    } else if (c == ',') {
      row.push_back(std::move(field));
      field.clear();
      field_started = true;
    } else if (c == '\n' || c == '\r') {
      if (c == '\r' && i + 1 < text.size() && text[i + 1] == '\n') ++i;
      if (field_started || !field.empty() || !row.empty()) {
        row.push_back(std::move(field));
        rows->push_back(std::move(row));
      }
      row.clear();
      field.clear();
      field_started = false;
    } else {
      field.push_back(c);
      field_started = true;
    }
  }
  if (in_quotes) {
    *error = "unterminated quoted field";
    return false;
  }
  if (field_started || !field.empty() || !row.empty()) {
    row.push_back(std::move(field));
    rows->push_back(std::move(row));
  }
  return true;
}

bool LoadDataset(const std::string& dir, Dataset* out, std::string* error) {
  out->tables.clear();
  for (const std::string& name : TableNames()) {
    TableData table;
    table.name = name;
    table.csv_path = dir + "/" + name + ".csv";
    std::string text;
    if (!ReadFile(table.csv_path, &text)) {
      *error = "cannot read " + table.csv_path;
      return false;
    }
    std::vector<std::vector<std::string>> rows;
    if (!ParseCsv(text, &rows, error)) {
      *error = table.csv_path + ": " + *error;
      return false;
    }
    if (rows.empty()) {
      *error = table.csv_path + ": no header";
      return false;
    }
    table.header = std::move(rows.front());
    rows.erase(rows.begin());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].size() != table.header.size() ||
          rows[i][0] != std::to_string(i)) {
        *error = table.csv_path + ": row " + std::to_string(i) +
                 " is malformed or out of id order";
        return false;
      }
    }
    table.rows = std::move(rows);

    std::string truth_text;
    if (!ReadFile(dir + "/" + name + ".truth", &truth_text)) {
      *error = "cannot read " + dir + "/" + name + ".truth";
      return false;
    }
    std::vector<std::uint64_t> cluster_of;
    std::istringstream truth_in(truth_text);
    std::uint64_t label = 0;
    while (truth_in >> label) cluster_of.push_back(label);
    if (cluster_of.size() != table.rows.size()) {
      *error = name + ".truth does not match " + name + ".csv";
      return false;
    }
    table.truth = Truth(cluster_of);
    out->tables.push_back(std::move(table));
  }
  return true;
}

bool AsNumber(const std::string& value, double* out) {
  if (value.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(value.c_str(), &end);
  return end == value.c_str() + value.size();
}

namespace {

std::string Lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace

int CompareValues(const std::string& a, const std::string& b) {
  double x = 0;
  double y = 0;
  if (AsNumber(a, &x) && AsNumber(b, &y)) return x < y ? -1 : (x > y ? 1 : 0);
  const int cmp = Lower(a).compare(Lower(b));
  return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
}

std::string JoinKey(const std::string& value) {
  double number = 0;
  if (!AsNumber(value, &number)) return Lower(value);
  if (number == static_cast<double>(static_cast<long long>(number))) {
    return "#" + std::to_string(static_cast<long long>(number));
  }
  return "#" + std::to_string(number);
}

bool LikeMatch(const std::string& value, const std::string& pattern) {
  // Dynamic programming over (value prefix, pattern prefix).
  const std::size_t n = value.size();
  std::vector<char> match(n + 1, 0);
  match[0] = 1;
  for (char p : pattern) {
    std::vector<char> next(n + 1, 0);
    if (p == '%') {
      char any = 0;
      for (std::size_t i = 0; i <= n; ++i) {
        any = static_cast<char>(any | match[i]);
        next[i] = any;
      }
    } else {
      for (std::size_t i = 1; i <= n; ++i) {
        next[i] = static_cast<char>(
            match[i - 1] &&
            (p == '_' || std::tolower(static_cast<unsigned char>(p)) ==
                             std::tolower(static_cast<unsigned char>(value[i - 1]))));
      }
    }
    match = std::move(next);
  }
  return match[n] != 0;
}

}  // namespace perfbench
