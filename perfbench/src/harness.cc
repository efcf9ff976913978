#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "blocking/block_join.h"
#include "blocking/token_blocking.h"
#include "matching/profile_matcher.h"
#include "metablocking/meta_blocking.h"
#include "sql/parser.h"

namespace perfbench {

std::size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void Checks::Fail(const std::string& message) {
  failures_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (messages_.size() < 20) messages_.push_back(message);
}

std::vector<std::string> Checks::messages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_;
}

void Layers::Sample(const std::string& metric, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[metric].push_back(value);
}

void Layers::Add(const std::string& metric, double delta) {
  std::lock_guard<std::mutex> lock(mu_);
  sums_[metric] += delta;
}

double Layers::Median(const std::string& metric) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = samples_.find(metric);
  return it == samples_.end() ? 0 : perfbench::Median(it->second);
}

double Layers::Sum(const std::string& metric) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sums_.find(metric);
  return it == sums_.end() ? 0 : it->second;
}

const Expected& Oracle::Get(const QueryDef& def) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(def.sql);
    if (it != cache_.end()) return *it->second;
  }
  auto expected = std::make_unique<Expected>(Compute(def));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, fresh] = cache_.emplace(def.sql, std::move(expected));
  return *it->second;
}

Expected Oracle::Compute(const QueryDef& def) const {
  const TableData& left = data_->Get(def.left);
  Expected expected;
  if (def.shape == Shape::kFilter) {
    for (const Row& row : left.rows) {
      if (!def.where(left, row)) continue;
      RowHasher hasher;
      if (def.projection.empty()) {
        for (const std::string& value : row) hasher.Add(value.data(), value.size());
      } else {
        for (const auto& [side, column] : def.projection) {
          const std::string& value = row[left.Col(column)];
          hasher.Add(value.data(), value.size());
        }
      }
      hasher.EndRow(&expected.digest);
    }
    return expected;
  }

  if (def.shape == Shape::kDedupSp) {
    for (const Row& row : left.rows) {
      if (def.where(left, row)) {
        expected.selected.push_back(static_cast<std::uint32_t>(std::stoul(row[0])));
      }
    }
    return expected;
  }

  // Joins: equal JoinKeys join; empty keys join nothing.
  const TableData& right = data_->Get(def.right);
  const std::size_t left_key = left.Col(def.left_key);
  const std::size_t right_key = right.Col(def.right_key);
  std::unordered_map<std::string, std::vector<std::size_t>> right_rows;
  for (std::size_t r = 0; r < right.rows.size(); ++r) {
    const std::string& key = right.rows[r][right_key];
    if (!key.empty()) right_rows[JoinKey(key)].push_back(r);
  }
  for (const Row& row : left.rows) {
    if (!def.where(left, row)) continue;
    const auto id = static_cast<std::uint32_t>(std::stoul(row[0]));
    auto partners = row[left_key].empty()
                        ? right_rows.end()
                        : right_rows.find(JoinKey(row[left_key]));
    if (def.shape == Shape::kDedupJoin) {
      expected.selected.push_back(id);
      if (partners != right_rows.end()) expected.joinable.push_back(id);
      continue;
    }
    if (partners == right_rows.end()) continue;
    for (std::size_t r : partners->second) {
      RowHasher hasher;
      for (const auto& [side, column] : def.projection) {
        const std::string& value = side == 0 ? row[left.Col(column)]
                                             : right.rows[r][right.Col(column)];
        hasher.Add(value.data(), value.size());
      }
      hasher.EndRow(&expected.digest);
    }
  }
  return expected;
}

std::vector<std::string> BaselineKey(const std::string& table) {
  if (table == "people") return {"given_name", "surname"};
  if (table == "orgs") return {"name"};
  return {"title"};
}

PairCounts Oracle::Baseline(const QueryDef& def) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = baseline_.find(def.sql);
    if (it != baseline_.end()) return it->second;
  }
  const Expected& expected = Get(def);
  const std::vector<std::uint32_t>& focus =
      def.shape == Shape::kDedupJoin ? expected.joinable : expected.selected;
  const TableData& table = data_->Get(def.left);
  std::vector<std::size_t> key_cols;
  for (const std::string& column : BaselineKey(def.left)) {
    key_cols.push_back(table.Col(column));
  }
  auto key_of = [&](std::uint32_t e) {
    std::string key;
    for (std::size_t c : key_cols) {
      for (char ch : table.rows[e][c]) {
        key.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(ch))));
      }
      key.push_back('\x1f');
    }
    return key;
  };
  std::unordered_map<std::string, std::vector<std::uint32_t>> by_key;
  for (std::uint32_t e = 0; e < table.rows.size(); ++e) {
    by_key[key_of(e)].push_back(e);
  }
  std::vector<std::vector<std::uint32_t>> groups;
  std::unordered_set<std::string> seen;
  for (std::uint32_t e : focus) {
    std::string key = key_of(e);
    if (key.size() == key_cols.size()) {
      groups.push_back({e});  // Every key column empty: nothing to match on.
    } else if (seen.insert(key).second) {
      groups.push_back(by_key[key]);
    }
  }
  const PairCounts counts = ScoreGroups(groups, focus, table.truth);
  std::lock_guard<std::mutex> lock(mu_);
  baseline_.emplace(def.sql, counts);
  return counts;
}

void AbsorbRow(const QueryDef& def, const std::vector<std::string_view>& row,
               Answer* answer) {
  RowHasher hasher;
  for (std::string_view value : row) hasher.Add(value.data(), value.size());
  hasher.EndRow(&answer->digest);
  ++answer->rows;
  if (def.dedup()) {
    answer->left_ids.emplace_back(row[def.left_id_col]);
    if (def.shape == Shape::kDedupJoin) {
      answer->right_ids.emplace_back(row[def.right_id_col]);
    }
  }
}

namespace {

// Distinct groups of one id column; false (with a message) when a value is
// not an id list or one entity sits in two different groups.
bool DistinctGroups(const std::vector<std::string>& values,
                    const std::string& label, Checks* checks,
                    std::vector<std::vector<std::uint32_t>>* groups,
                    std::unordered_map<std::uint32_t, std::size_t>* count) {
  std::set<std::string> seen;
  std::vector<std::uint32_t> ids;
  for (const std::string& value : values) {
    if (!seen.insert(value).second) continue;
    if (!ParseIdGroup(value, &ids)) {
      checks->Fail(label + ": id column value '" + value +
                   "' is not a group of ids");
      return false;
    }
    for (std::uint32_t id : ids) {
      if (++(*count)[id] > 1) {
        checks->Fail(label + ": entity " + std::to_string(id) +
                     " is listed in more than one group");
        return false;
      }
    }
    groups->push_back(ids);
  }
  return true;
}

}  // namespace

void CheckAnswer(const QueryDef& def, const Answer& answer, Oracle* oracle,
                 const Dataset& data, const std::string& label,
                 Checks* checks, PairCounts* pairs, PairCounts* floor_pairs) {
  const Expected& expected = oracle->Get(def);
  if (!def.dedup()) {
    if (answer.digest != expected.digest) {
      checks->Fail(label + ": answer differs from the oracle's (" +
                   std::to_string(answer.digest.rows) + " rows, expected " +
                   std::to_string(expected.digest.rows) + ")");
    }
    return;
  }

  std::vector<std::vector<std::uint32_t>> groups;
  std::unordered_map<std::uint32_t, std::size_t> count;
  if (def.shape == Shape::kDedupSp &&
      answer.left_ids.size() != std::set<std::string>(answer.left_ids.begin(),
                                                      answer.left_ids.end())
                                    .size()) {
    checks->Fail(label + ": a DEDUP group is listed twice");
    return;
  }
  if (!DistinctGroups(answer.left_ids, label, checks, &groups, &count)) return;
  if (def.shape == Shape::kDedupSp) {
    for (std::uint32_t id : expected.selected) {
      if (count[id] != 1) {
        checks->Fail(label + ": selected entity " + std::to_string(id) +
                     " is in " + std::to_string(count[id]) + " groups");
        return;
      }
    }
    pairs->Add(ScoreGroups(groups, expected.selected,
                           data.Get(def.left).truth));
    floor_pairs->Add(oracle->Baseline(def));
    return;
  }

  // Join: every selected entity whose key joins must be answered, in one
  // group; the right side's groups must be disjoint too.
  for (std::uint32_t id : expected.joinable) {
    if (count[id] != 1) {
      checks->Fail(label + ": joinable entity " + std::to_string(id) +
                   " is in " + std::to_string(count[id]) + " groups");
      return;
    }
  }
  std::vector<std::vector<std::uint32_t>> right_groups;
  std::unordered_map<std::uint32_t, std::size_t> right_count;
  if (!DistinctGroups(answer.right_ids, label + " (right side)", checks,
                      &right_groups, &right_count)) {
    return;
  }
  pairs->Add(ScoreGroups(groups, expected.joinable, data.Get(def.left).truth));
  floor_pairs->Add(oracle->Baseline(def));
}

bool SetUpEngine(const Dataset& data, std::size_t workers,
                 std::size_t max_sessions, Tracer* tracer, EngineSetup* out,
                 Checks* checks) {
  queryer::EngineOptions options;
  options.num_threads = workers;
  options.max_concurrent_queries = max_sessions;
  out->engine = std::make_unique<queryer::QueryEngine>(options);
  out->csv_load_s = 0;
  out->index_build_s = 0;
  for (const TableData& table : data.tables) {
    ScopedSpan span(tracer, "storage.register_csv", 0);
    const double start = Now();
    queryer::Status status =
        out->engine->RegisterCsvFile(table.csv_path, table.name);
    out->csv_load_s += Now() - start;
    if (!status.ok()) {
      checks->Fail("RegisterCsvFile " + table.name + ": " + status.ToString());
      return false;
    }
  }
  for (const TableData& table : data.tables) {
    ScopedSpan span(tracer, "blocking.warm_indices", 0);
    const double start = Now();
    queryer::Status status = out->engine->WarmIndices(table.name);
    out->index_build_s += Now() - start;
    if (!status.ok()) {
      checks->Fail("WarmIndices " + table.name + ": " + status.ToString());
      return false;
    }
  }
  return true;
}

bool RunInProc(queryer::QueryEngine* engine, const QueryDef& def,
               Tracer* tracer, std::uint64_t query_id, Answer* answer,
               InProcTiming* timing, Checks* checks) {
  if (tracer != nullptr) {
    // Parsed on its own for the sql layer's number; Prepare parses again.
    const double parse_start = Now();
    ScopedSpan span(tracer, "sql.parse", query_id);
    const bool parsed = queryer::ParseSelect(def.sql).ok();
    span.End();
    timing->parse_s = Now() - parse_start;
    if (!parsed) {
      checks->Fail("ParseSelect failed: " + def.sql);
      return false;
    }
  }
  ScopedSpan op(tracer, "query.inproc", query_id);
  const double start = Now();
  ScopedSpan prepare_span(tracer, "engine.prepare", query_id);
  queryer::Result<queryer::PreparedQuery> prepared = engine->Prepare(def.sql);
  prepare_span.End();
  const double prepared_at = Now();
  if (!prepared.ok()) {
    checks->Fail(def.sql + ": " + prepared.status().ToString());
    return false;
  }
  ScopedSpan first_span(tracer, "engine.first_batch", query_id);
  queryer::Result<queryer::CursorPtr> cursor = prepared->Open();
  if (!cursor.ok()) {
    checks->Fail(def.sql + ": " + cursor.status().ToString());
    return false;
  }
  queryer::RowBatch batch((*cursor)->batch_size());
  std::vector<std::string_view> row;
  double first_at = 0;
  std::optional<ScopedSpan> drain_span;
  while (true) {
    queryer::Result<bool> has = (*cursor)->Next(&batch);
    if (first_at == 0) {
      first_at = Now();
      first_span.End();
      drain_span.emplace(tracer, "engine.drain", query_id);
    }
    if (!has.ok()) {
      checks->Fail(def.sql + ": " + has.status().ToString());
      return false;
    }
    if (!*has) break;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      row.clear();
      for (std::size_t c = 0; c < batch.width(i); ++c) {
        row.push_back(batch.value(i, c));
      }
      AbsorbRow(def, row, answer);
    }
    batch.Clear();
  }
  drain_span.reset();
  const double end = Now();
  const queryer::ExecStats& stats = (*cursor)->stats();
  answer->comparisons_executed = stats.comparisons_executed;
  answer->comparisons_after_metablocking = stats.comparisons_after_metablocking;
  answer->matches_found = stats.matches_found;
  (*cursor)->Close();
  timing->prepare_s = prepared_at - start;
  timing->ttfb_s = first_at - prepared_at;
  timing->drain_s = end - first_at;
  timing->total_s = end - start;
  return true;
}

queryer::LinkIndex& ErReplay::Scratch(const std::string& table) {
  auto it = scratch_.find(table);
  if (it == scratch_.end()) {
    it = scratch_
             .emplace(table, std::make_unique<queryer::LinkIndex>(
                                 data_->Get(table).rows.size()))
             .first;
  }
  return *it->second;
}

std::size_t ErReplay::ScratchLinks(const std::string& table) {
  return Scratch(table).num_links();
}

std::size_t ErReplay::Stage(const std::string& table,
                            const std::vector<queryer::EntityId>& selection,
                            std::uint64_t query_id) {
  auto runtime = engine_->GetRuntime(table);
  if (!runtime.ok()) return 0;
  queryer::TableRuntime& rt = **runtime;
  std::vector<queryer::EntityId> unresolved;
  for (queryer::EntityId e : selection) {
    if (!rt.link_index().IsResolved(e)) unresolved.push_back(e);
  }
  if (unresolved.empty()) return 0;

  double start = Now();
  queryer::BlockCollection blocks;
  {
    ScopedSpan span(tracer_, "blocking.query_block", query_id);
    queryer::QueryBlockIndex qbi = queryer::QueryBlockIndex::Build(
        rt.table(), unresolved, rt.blocking_options());
    blocks = queryer::BlockJoin(qbi, rt.tbi());
  }
  layers_->Add("replay.query_block_s", Now() - start);

  start = Now();
  queryer::MetaBlockingResult pruned;
  {
    ScopedSpan span(tracer_, "metablocking.prune", query_id);
    pruned = queryer::RunMetaBlocking(std::move(blocks),
                                      rt.meta_blocking_config(),
                                      rt.thread_pool());
  }
  layers_->Add("replay.prune_s", Now() - start);

  const queryer::MatchingConfig& matching = rt.matching_config();
  const queryer::AttributeWeights& weights = rt.attribute_weights();
  std::vector<queryer::LinkIndex::Link> matches;
  start = Now();
  {
    ScopedSpan span(tracer_, "matching.similarity", query_id);
    for (const queryer::Comparison& pair : pruned.comparisons) {
      if (queryer::ProfileSimilarity(rt.table(), pair.first, pair.second,
                                     matching, &weights) >=
          matching.threshold) {
        matches.push_back(pair);
      }
    }
  }
  layers_->Add("matching.similarity_s", Now() - start);
  layers_->Add("matching.similarity_calls",
               static_cast<double>(pruned.comparisons.size()));

  start = Now();
  {
    ScopedSpan span(tracer_, "matching.publish", query_id);
    Scratch(table).PublishLinks(matches);
  }
  layers_->Add("replay.publish_s", Now() - start);
  layers_->Add("metablocking.comparisons_kept",
               static_cast<double>(pruned.comparisons.size()));
  return pruned.comparisons.size();
}

std::size_t ErReplay::Replay(const QueryDef& def, Oracle* oracle,
                             std::uint64_t query_id) {
  ScopedSpan span(tracer_, "replay.query", query_id);
  const double block_before = layers_->Sum("replay.query_block_s");
  const double prune_before = layers_->Sum("replay.prune_s");
  const double publish_before = layers_->Sum("replay.publish_s");

  const Expected& expected = oracle->Get(def);
  std::vector<queryer::EntityId> selection(expected.selected.begin(),
                                           expected.selected.end());
  std::size_t kept = Stage(def.left, selection, query_id);
  if (def.shape == Shape::kDedupJoin) {
    // The right side resolves the right rows whose key equals the key of
    // any member of the left side's duplicate groups.
    const TableData& left = data_->Get(def.left);
    const TableData& right = data_->Get(def.right);
    const std::size_t left_key = left.Col(def.left_key);
    const std::size_t right_key = right.Col(def.right_key);
    queryer::LinkIndex& links = Scratch(def.left);
    std::unordered_set<std::string> keys;
    for (queryer::EntityId e : selection) {
      for (queryer::EntityId member : links.Cluster(e)) {
        const std::string& key = left.rows[member][left_key];
        if (!key.empty()) keys.insert(JoinKey(key));
      }
    }
    std::vector<queryer::EntityId> joined;
    for (std::size_t r = 0; r < right.rows.size(); ++r) {
      const std::string& key = right.rows[r][right_key];
      if (!key.empty() && keys.count(JoinKey(key)) > 0) {
        joined.push_back(static_cast<queryer::EntityId>(r));
      }
    }
    kept += Stage(def.right, joined, query_id);
  }
  layers_->Sample("blocking.query_block_ms",
                  (layers_->Sum("replay.query_block_s") - block_before) * 1e3);
  layers_->Sample("metablocking.prune_ms",
                  (layers_->Sum("replay.prune_s") - prune_before) * 1e3);
  layers_->Sample("matching.link_publish_us",
                  (layers_->Sum("replay.publish_s") - publish_before) * 1e6);
  return kept;
}

void MeasureClusterLookups(queryer::QueryEngine* engine,
                           const std::string& table,
                           const std::vector<std::uint32_t>& entities,
                           Layers* layers) {
  auto runtime = engine->GetRuntime(table);
  if (!runtime.ok() || entities.empty()) return;
  const queryer::LinkIndex& links = (*runtime)->link_index();
  std::size_t members = 0;
  const double start = Now();
  for (std::uint32_t e : entities) members += links.Cluster(e).size();
  const double elapsed = Now() - start;
  layers->Sample("matching.cluster_lookup_ns",
                 elapsed * 1e9 / static_cast<double>(entities.size()));
  layers->Add("matching.cluster_members", static_cast<double>(members));
}

}  // namespace perfbench
