#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "server/client.h"
#include "server/json.h"
#include "server/query_server.h"

namespace perfbench {

namespace {

using Where = std::function<bool(const TableData&, const Row&)>;

// Releases every waiting thread once `parties` have arrived.
class StartGate {
 public:
  explicit StartGate(std::size_t parties) : waiting_(parties) {}
  void ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mu_);
    if (--waiting_ == 0) {
      open_.notify_all();
      return;
    }
    open_.wait(lock, [this] { return waiting_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable open_;
  std::size_t waiting_;  // Guarded by mu_.
};

Where IdModEquals(std::uint64_t modulus, std::uint64_t residue) {
  return [=](const TableData&, const Row& row) {
    return IdMod(row, modulus) == residue;
  };
}

Where IdModRange(std::uint64_t modulus, std::uint64_t lo, std::uint64_t hi) {
  return [=](const TableData&, const Row& row) {
    const std::uint64_t r = IdMod(row, modulus);
    return r >= lo && r < hi;
  };
}

QueryDef DedupSp(std::string sql, std::string table, Where where) {
  QueryDef def;
  def.sql = std::move(sql);
  def.shape = Shape::kDedupSp;
  def.left = std::move(table);
  def.where = std::move(where);
  return def;
}

// A DSD slice as a cold or warm DEDUP selection.
QueryDef DsdDedup(const std::string& predicate, Where where) {
  return DedupSp("SELECT DEDUP id, title, authors, venue, year FROM dsd WHERE " +
                     predicate,
                 "dsd", std::move(where));
}

// people JOIN orgs resolved with DEDUP: the paper's SPJ shape (AES puts
// Deduplicate on the selected people and a Dirty-Right DedupJoin on orgs).
QueryDef PeopleOrgsDedup(std::uint64_t modulus, std::uint64_t residue) {
  QueryDef def;
  def.sql =
      "SELECT DEDUP p.id, p.given_name, p.surname, p.org, o.id, o.name, "
      "o.country FROM people p INNER JOIN orgs o ON p.org = o.name WHERE "
      "MOD(p.id, " + std::to_string(modulus) + ") = " + std::to_string(residue);
  def.shape = Shape::kDedupJoin;
  def.left = "people";
  def.right = "orgs";
  def.left_key = "org";
  def.right_key = "name";
  def.where = IdModEquals(modulus, residue);
  def.left_id_col = 0;
  def.right_id_col = 4;
  return def;
}

QueryDef OagpDedup(const std::string& predicate, Where where) {
  return DedupSp(
      "SELECT DEDUP id, title, authors, venue, year FROM oagp WHERE " +
          predicate,
      "oagp", std::move(where));
}

QueryDef Filter(std::string sql, std::string table, Where where,
                std::vector<std::string> columns) {
  QueryDef def;
  def.sql = std::move(sql);
  def.shape = Shape::kFilter;
  def.left = std::move(table);
  def.where = std::move(where);
  for (std::string& column : columns) {
    def.projection.emplace_back(0, std::move(column));
  }
  return def;
}

// oagp JOIN oagv on the venue name, restricted to one id residue.
QueryDef OagpOagvJoin(const std::vector<std::pair<int, std::string>>& projection,
                      std::uint64_t modulus, std::uint64_t residue) {
  QueryDef def;
  std::string items;
  for (const auto& [side, column] : projection) {
    if (!items.empty()) items += ", ";
    items += (side == 0 ? "p." : "v.") + column;
  }
  def.sql = "SELECT " + items +
            " FROM oagp p INNER JOIN oagv v ON p.venue = v.title WHERE "
            "MOD(p.id, " + std::to_string(modulus) + ") = " +
            std::to_string(residue);
  def.shape = Shape::kJoin;
  def.left = "oagp";
  def.right = "oagv";
  def.left_key = "venue";
  def.right_key = "title";
  def.where = IdModEquals(modulus, residue);
  def.projection = projection;
  return def;
}

// Rounds of about `round_seconds` each (set-up included, on the reference
// host) that fill a run of `seconds`; at least 3, for the set-up median.
std::size_t RoundsFor(std::size_t seconds, double round_seconds) {
  return std::max<std::size_t>(
      3, static_cast<std::size_t>(
             std::llround(static_cast<double>(seconds) / round_seconds)));
}

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kDedupSp: return "dedup";
    case Shape::kDedupJoin: return "dedup_join";
    case Shape::kFilter: return "filter";
    case Shape::kJoin: return "join";
  }
  return "";
}

// Exec-layer rates of one in-process read, by its shape.
void SampleShapeRate(const QueryDef& def, const Answer& answer, double seconds,
                     const Dataset& data, Layers* layers) {
  if (layers == nullptr || seconds <= 0) return;
  const double left_rows = static_cast<double>(data.Get(def.left).rows.size());
  switch (def.shape) {
    case Shape::kFilter:
      layers->Sample("exec.filter_rows_per_s", left_rows / seconds);
      break;
    case Shape::kJoin:
      layers->Sample(
          "exec.join_rows_per_s",
          (left_rows + static_cast<double>(data.Get(def.right).rows.size())) /
              seconds);
      break;
    case Shape::kDedupSp: {
      std::size_t grouped = 0;
      std::vector<std::uint32_t> ids;
      for (const std::string& value : answer.left_ids) {
        if (ParseIdGroup(value, &ids)) grouped += ids.size();
      }
      layers->Sample("exec.group_rows_per_s",
                     static_cast<double>(grouped) / seconds);
      break;
    }
    case Shape::kDedupJoin:
      break;
  }
}

void RecordSetup(const EngineSetup& setup, Layers* layers) {
  layers->Sample("storage.csv_load_ms", setup.csv_load_s * 1e3);
  layers->Sample("blocking.index_build_ms", setup.index_build_s * 1e3);
}

// Per-call layer samples of one in-process statement.
void SampleInProc(const InProcTiming& timing, const Answer& answer,
                  Layers* layers) {
  if (layers == nullptr) return;
  layers->Sample("sql.parse_us", timing.parse_s * 1e6);
  layers->Sample("engine.prepare_us", timing.prepare_s * 1e6);
  layers->Sample("engine.ttfb_ms", timing.ttfb_s * 1e3);
  layers->Sample("engine.drain_ms", timing.drain_s * 1e3);
  layers->Add("matching.comparisons_executed",
              static_cast<double>(answer.comparisons_executed));
  layers->Add("matching.matches_found",
              static_cast<double>(answer.matches_found));
}

// Runs a cold DEDUP statement in-process; in the traced round its ER
// stages are replayed first and the replayed comparison count must equal
// the engine's. Used by er_cold's list and every warm-up resolution.
bool RunColdDedup(queryer::QueryEngine* engine, const QueryDef& def,
                  Oracle* oracle,
                  const RoundOptions& options, std::uint64_t query_id,
                  ErReplay* replay, Answer* answer, InProcTiming* timing,
                  Checks* checks) {
  std::size_t replayed = 0;
  if (replay != nullptr) replayed = replay->Replay(def, oracle, query_id);
  if (!RunInProc(engine, def, options.tracer, query_id, answer, timing,
                 checks)) {
    return false;
  }
  SampleInProc(*timing, *answer, options.layers);
  if (replay != nullptr) {
    if (replayed != answer->comparisons_after_metablocking) {
      checks->Fail("replay of query " + std::to_string(query_id) + " kept " +
                   std::to_string(replayed) +
                   " comparisons, the engine reports " +
                   std::to_string(answer->comparisons_after_metablocking) +
                   ": " + def.sql);
    }
    for (const std::string& table : {def.left, def.right}) {
      if (table.empty()) continue;
      auto runtime = engine->GetRuntime(table);
      if (runtime.ok() &&
          (*runtime)->link_index().num_links() != replay->ScratchLinks(table)) {
        checks->Fail("replayed links of " + table + " (" +
                     std::to_string(replay->ScratchLinks(table)) +
                     ") differ from the engine's (" +
                     std::to_string((*runtime)->link_index().num_links()) +
                     ") after query " + std::to_string(query_id));
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// er_cold: one client, a fixed list of cold DEDUP statements whose
// selections never overlap.
// ---------------------------------------------------------------------------
class ErCold final : public Workload {
 public:
  ErCold(const Dataset* data, Oracle* oracle) : data_(data), oracle_(oracle) {}

  bool reads_only() const override { return false; }
  std::size_t Rounds(std::size_t seconds) const override {
    return RoundsFor(seconds, 6.0);
  }
  std::vector<QueryDef> Scored(std::size_t round) const override {
    return List(round);
  }

  // 10 DSD slices of 0.5% and 4 people slices of 2%, which take about as
  // long each; the people slices are spread through the list. Round r
  // takes the next slices after round r-1's (wrapping around), so a run
  // covers more of the data than one round does.
  static std::vector<QueryDef> List(std::size_t round) {
    std::vector<QueryDef> list;
    std::uint64_t people = 4 * round;
    for (std::uint64_t j = 0; j < 10; ++j) {
      const std::uint64_t k = (10 * round + j) % 200;
      list.push_back(DsdDedup("MOD(id, 200) = " + std::to_string(k),
                              IdModEquals(200, k)));
      if (j % 5 == 1 || j % 5 == 3) {
        list.push_back(PeopleOrgsDedup(50, people++ % 50));
      }
    }
    return list;
  }

  RoundResult Round(const RoundOptions& options, Checks* checks) override {
    const std::vector<QueryDef> list = List(options.round);
    RoundResult result;
    EngineSetup setup;
    double start = Now();
    if (!SetUpEngine(*data_, options.workers, 1, options.tracer, &setup,
                     checks)) {
      result.failed = list.size();
      return result;
    }
    result.setup_s = Now() - start;
    if (options.layers != nullptr) RecordSetup(setup, options.layers);

    std::unique_ptr<ErReplay> replay;
    if (options.tracer != nullptr) {
      replay = std::make_unique<ErReplay>(setup.engine.get(), data_,
                                          options.tracer, options.layers);
    }
    std::vector<Answer> answers(list.size());
    std::vector<bool> ok(list.size(), false);
    PassSample pass;
    const double cpu_start = ProcessCpuSeconds();
    for (std::size_t i = 0; i < list.size(); ++i) {
      InProcTiming timing;
      ok[i] = RunColdDedup(setup.engine.get(), list[i], oracle_,
                           options, i + 1, replay.get(), &answers[i], &timing,
                           checks);
      pass.seconds += timing.total_s;
      pass.ops.push_back({timing.total_s, /*write=*/true,
                          ShapeName(list[i].shape)});
      if (!ok[i]) ++result.failed;
    }
    result.cpu_s = ProcessCpuSeconds() - cpu_start;
    result.passes.push_back(std::move(pass));

    std::vector<std::uint32_t> resolved;
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (!ok[i]) continue;
      CheckAnswer(list[i], answers[i], oracle_, *data_,
                  "er_cold query " + std::to_string(i + 1), checks,
                  &result.pairs, &result.floor_pairs);
      if (list[i].left == "dsd") {
        const Expected& expected = oracle_->Get(list[i]);
        resolved.insert(resolved.end(), expected.selected.begin(),
                        expected.selected.end());
      }
    }
    if (options.layers != nullptr) {
      MeasureClusterLookups(setup.engine.get(), "dsd", resolved,
                            options.layers);
    }
    return result;
  }

 private:
  const Dataset* data_;
  Oracle* oracle_;
};

// ---------------------------------------------------------------------------
// analytics_warm: set-up resolves a DEDUP region of oagp; one client then
// runs a fixed mix of warm DEDUP reads, selective filters and joins.
// ---------------------------------------------------------------------------
class AnalyticsWarm final : public Workload {
 public:
  AnalyticsWarm(const Dataset* data, Oracle* oracle)
      : data_(data), oracle_(oracle) {}

  bool reads_only() const override { return true; }
  std::size_t Rounds(std::size_t seconds) const override {
    return RoundsFor(seconds, 4.5);
  }
  std::vector<QueryDef> Scored(std::size_t round) const override {
    std::vector<QueryDef> scored;
    for (std::size_t p = 0; p < kPasses; ++p) {
      for (const QueryDef& def : List(round)) {
        if (def.dedup()) scored.push_back(def);
      }
    }
    return scored;
  }

  // The region: 0.5% of oagp, resolved during set-up; each round takes
  // another one.
  static QueryDef Warmup(std::size_t round) {
    const std::uint64_t r = round % 200;
    return OagpDedup("MOD(id, 200) = " + std::to_string(r),
                     IdModEquals(200, r));
  }

  // Every statement scans all of oagp; the answers run from a few hundred
  // to a few thousand rows, so no statement is dominated by per-statement
  // fixed costs. The read of the whole region comes three times, so the
  // median latency falls inside one statement's spread rather than in the
  // gap between two. The list is this mix kRepeats times.
  static std::vector<QueryDef> List(std::size_t round) {
    const std::uint64_t r = round % 200;
    std::vector<QueryDef> mix(3, Warmup(round));
    for (std::uint64_t k : {r, r + 200}) {
      mix.push_back(OagpDedup("MOD(id, 400) = " + std::to_string(k),
                              IdModEquals(400, k)));
    }
    mix.push_back(OagpDedup(
        "MOD(id, 200) = " + std::to_string(r) + " AND year >= 2005",
        [r](const TableData& t, const Row& row) {
          return IdMod(row, 200) == r &&
                 CompareValues(row[t.Col("year")], "2005") >= 0;
        }));
    mix.push_back(Filter(
        "SELECT * FROM oagp WHERE year BETWEEN 2001 AND 2003", "oagp",
        [](const TableData& t, const Row& row) {
          const std::string& year = row[t.Col("year")];
          return CompareValues(year, "2001") >= 0 &&
                 CompareValues(year, "2003") <= 0;
        },
        {}));
    mix.push_back(Filter(
        "SELECT id, title, venue, year FROM oagp WHERE doc_type = 'journal' "
        "AND lang = 'en'",
        "oagp",
        [](const TableData& t, const Row& row) {
          return CompareValues(row[t.Col("doc_type")], "journal") == 0 &&
                 CompareValues(row[t.Col("lang")], "en") == 0;
        },
        {"id", "title", "venue", "year"}));
    mix.push_back(Filter(
        "SELECT id, title, doc_type FROM oagp WHERE title LIKE 'entity%'",
        "oagp",
        [](const TableData& t, const Row& row) {
          return LikeMatch(row[t.Col("title")], "entity%");
        },
        {"id", "title", "doc_type"}));
    mix.push_back(Filter(
        "SELECT id, title, authors FROM oagp WHERE abstract LIKE "
        "'%entity resolution%'",
        "oagp",
        [](const TableData& t, const Row& row) {
          return LikeMatch(row[t.Col("abstract")], "%entity resolution%");
        },
        {"id", "title", "authors"}));
    for (std::uint64_t j = 0; j < 2; ++j) {
      mix.push_back(OagpOagvJoin({{0, "id"},
                                  {0, "title"},
                                  {0, "year"},
                                  {1, "id"},
                                  {1, "title"},
                                  {1, "rank"}},
                                 5, (2 * round + j) % 5));
    }
    std::vector<QueryDef> list;
    for (std::size_t rep = 0; rep < kRepeats; ++rep) {
      list.insert(list.end(), mix.begin(), mix.end());
    }
    return list;
  }

  RoundResult Round(const RoundOptions& options, Checks* checks) override {
    const QueryDef warmup = Warmup(options.round);
    const std::vector<QueryDef> list = List(options.round);
    RoundResult result;
    EngineSetup setup;
    const double start = Now();
    if (!SetUpEngine(*data_, options.workers, 1, options.tracer, &setup,
                     checks)) {
      result.failed = list.size();
      return result;
    }
    if (options.layers != nullptr) RecordSetup(setup, options.layers);
    std::unique_ptr<ErReplay> replay;
    if (options.tracer != nullptr) {
      replay = std::make_unique<ErReplay>(setup.engine.get(), data_,
                                          options.tracer, options.layers);
    }
    Answer warm_answer;
    InProcTiming warm_timing;
    if (!RunColdDedup(setup.engine.get(), warmup, oracle_, options, 0,
                      replay.get(), &warm_answer, &warm_timing, checks)) {
      result.failed = list.size();
      return result;
    }
    // The traced round's set-up includes the replay; only untraced rounds
    // report set-up time.
    result.setup_s = Now() - start;
    result.setup_write_s.push_back(warm_timing.total_s);
    PairCounts ignored;
    PairCounts ignored_floor;
    CheckAnswer(warmup, warm_answer, oracle_, *data_, "analytics_warm warm-up",
                checks, &ignored, &ignored_floor);

    for (std::size_t p = 0; p < kPasses; ++p) {
      std::vector<Answer> answers(list.size());
      std::vector<bool> ok(list.size(), false);
      PassSample pass;
      const double cpu_start = ProcessCpuSeconds();
      for (std::size_t i = 0; i < list.size(); ++i) {
        InProcTiming timing;
        const std::uint64_t query_id = p * list.size() + i + 1;
        ok[i] = RunInProc(setup.engine.get(), list[i], options.tracer,
                          query_id, &answers[i], &timing, checks);
        pass.seconds += timing.total_s;
        pass.ops.push_back({timing.total_s, /*write=*/false,
                            ShapeName(list[i].shape)});
        if (!ok[i]) {
          ++result.failed;
          continue;
        }
        SampleInProc(timing, answers[i], options.layers);
        SampleShapeRate(list[i], answers[i], timing.total_s, *data_,
                        options.layers);
      }
      result.cpu_s += ProcessCpuSeconds() - cpu_start;
      result.passes.push_back(std::move(pass));

      for (std::size_t i = 0; i < list.size(); ++i) {
        if (!ok[i]) continue;
        const std::string label = "analytics_warm pass " +
                                  std::to_string(p + 1) + " op " +
                                  std::to_string(i + 1);
        CheckAnswer(list[i], answers[i], oracle_, *data_, label, checks,
                    &result.pairs, &result.floor_pairs);
        if (list[i].dedup() && answers[i].comparisons_executed != 0) {
          checks->Fail(label + ": a read inside the resolved region executed " +
                       std::to_string(answers[i].comparisons_executed) +
                       " comparisons");
        }
      }
    }
    if (options.layers != nullptr) {
      MeasureClusterLookups(setup.engine.get(), "oagp",
                            oracle_->Get(warmup).selected, options.layers);
    }
    return result;
  }

 private:
  // The list is the mix kRepeats times; a round makes kPasses passes over
  // it on one engine (the reads change nothing the next pass depends on).
  static constexpr std::size_t kRepeats = 6;
  static constexpr std::size_t kPasses = 2;

  const Dataset* data_;
  Oracle* oracle_;
};

// ---------------------------------------------------------------------------
// wire_mixed: nproc wire clients against an in-process QueryServer.
// ---------------------------------------------------------------------------
class WireMixed final : public Workload {
 public:
  WireMixed(const Dataset* data, Oracle* oracle)
      : data_(data), oracle_(oracle), clients_(Nproc()) {
    warmup_ = DsdDedup("MOD(id, 100) < 4", IdModRange(100, 0, 4));
    for (std::uint64_t k = 0; k < 4; ++k) {
      hot_.push_back(DsdDedup("MOD(id, 100) = " + std::to_string(k),
                              IdModEquals(100, k)));
    }
    for (std::uint64_t k = 0; k < 10; ++k) {
      scans_.push_back(Filter(
          "SELECT id, title, authors, venue, year FROM dsd WHERE MOD(id, 10) = " +
              std::to_string(k),
          "dsd", IdModEquals(10, k), {"id", "title", "authors", "venue", "year"}));
    }
    for (std::uint64_t k = 0; k < 8; ++k) {
      joins_.push_back(OagpOagvJoin({{0, "id"},
                                     {0, "title"},
                                     {0, "authors"},
                                     {0, "year"},
                                     {1, "id"},
                                     {1, "title"},
                                     {1, "description"},
                                     {1, "rank"}},
                                    8, k));
    }
  }

  bool reads_only() const override { return true; }
  std::size_t Rounds(std::size_t seconds) const override {
    return RoundsFor(seconds, 7.5);
  }
  std::vector<QueryDef> Scored(std::size_t round) const override {
    std::vector<QueryDef> scored;
    for (std::size_t c = 0; c < clients_; ++c) {
      for (const Op& op : ClientList(round, c)) {
        if (op.kind == Op::kHot || op.kind == Op::kWrite) {
          scored.push_back(*op.def);
        }
      }
    }
    return scored;
  }

  RoundResult Round(const RoundOptions& options, Checks* checks) override;

 private:
  // One client operation and what came back.
  struct Op {
    const QueryDef* def = nullptr;
    enum Kind { kScan, kHot, kJoin, kWrite } kind = kScan;
    QueryDef write;  // kWrite: its own fresh slice.
    Answer answer;
    double seconds = 0;
    bool ok = false;
  };

  static constexpr std::size_t kOpsPerClient = 100;
  static constexpr std::size_t kWriteEvery = 10;
  static constexpr std::size_t kPageRows = 100;

  std::vector<Op> ClientList(std::size_t round, std::size_t client) const;
  void RunClient(std::uint16_t port, std::size_t client, std::vector<Op>* ops,
                 StartGate* start, const RoundOptions& options,
                 std::vector<std::vector<std::vector<std::string>>>* pages,
                 Checks* checks) const;

  const Dataset* data_;
  Oracle* oracle_;
  std::size_t clients_;
  QueryDef warmup_;
  std::vector<QueryDef> hot_;
  std::vector<QueryDef> scans_;
  std::vector<QueryDef> joins_;
};

std::vector<WireMixed::Op> WireMixed::ClientList(std::size_t round,
                                                 std::size_t client) const {
  std::vector<Op> ops(kOpsPerClient);
  for (std::size_t i = 0; i < kOpsPerClient; ++i) {
    Op& op = ops[i];
    const std::size_t cycle = i / kWriteEvery;
    // Per cycle of ten: four paged scans, three hot DEDUP reads, two big
    // joins and one write, so the read median falls among the scans.
    switch (i % kWriteEvery) {
      case 0:
      case 3:
      case 5:
      case 7:
        op.kind = Op::kScan;
        op.def = &scans_[(cycle + client + i) % scans_.size()];
        break;
      case 2:
      case 6:
        op.kind = Op::kJoin;
        op.def = &joins_[(cycle + client + i) % joins_.size()];
        break;
      case kWriteEvery - 1: {
        // A fresh 0.2% slice of dsd outside the warm region; each round
        // takes the next slices (wrapping around after 480).
        const std::uint64_t writes = kOpsPerClient / kWriteEvery;
        const std::uint64_t slice =
            ((round * writes + cycle) * clients_ + client) % 480;
        const std::uint64_t lo = 40 + 2 * slice;
        op.kind = Op::kWrite;
        op.write = DsdDedup("MOD(id, 1000) >= " + std::to_string(lo) +
                                " AND MOD(id, 1000) < " + std::to_string(lo + 2),
                            IdModRange(1000, lo, lo + 2));
        op.def = &op.write;
        break;
      }
      default:
        op.kind = Op::kHot;
        op.def = &hot_[(client + i) % hot_.size()];
        break;
    }
  }
  return ops;
}

void WireMixed::RunClient(
    std::uint16_t port, std::size_t client, std::vector<Op>* ops,
    StartGate* start, const RoundOptions& options,
    std::vector<std::vector<std::vector<std::string>>>* pages,
    Checks* checks) const {
  auto connected = queryer::Client::Connect("127.0.0.1", port,
                                            "tenant-" + std::to_string(client));
  start->ArriveAndWait();
  if (!connected.ok()) {
    checks->Fail("client " + std::to_string(client) +
                 " cannot connect: " + connected.status().ToString());
    return;
  }
  queryer::Client& wire = *connected;
  Tracer* tracer = options.tracer;
  Layers* layers = options.layers;
  std::vector<std::string_view> row;
  auto absorb = [&](const QueryDef& def,
                    const std::vector<std::vector<std::string>>& rows,
                    Answer* answer) {
    for (const std::vector<std::string>& values : rows) {
      row.assign(values.begin(), values.end());
      AbsorbRow(def, row, answer);
    }
    if (layers != nullptr && pages->size() < 64 && !rows.empty()) {
      pages->push_back(rows);
    }
  };
  for (std::size_t i = 0; i < ops->size(); ++i) {
    Op& op = (*ops)[i];
    const std::uint64_t query_id = (client + 1) * 1000000 + i + 1;
    ScopedSpan op_span(tracer, "query.wire", query_id);
    const double begin = Now();
    if (op.kind == Op::kScan) {
      double t = Now();
      ScopedSpan open_span(tracer, "server.open", query_id);
      auto opened = wire.Open(op.def->sql);
      open_span.End();
      if (layers != nullptr) layers->Sample("server.open_us", (Now() - t) * 1e6);
      if (!opened.ok()) {
        checks->Fail("OPEN " + op.def->sql + ": " + opened.status().ToString());
        continue;
      }
      bool ok = true;
      while (true) {
        t = Now();
        ScopedSpan next_span(tracer, "server.next", query_id);
        auto page = wire.Next(opened->cursor, kPageRows);
        next_span.End();
        if (layers != nullptr) {
          layers->Sample("server.next_us", (Now() - t) * 1e6);
        }
        if (!page.ok()) {
          checks->Fail("NEXT " + op.def->sql + ": " + page.status().ToString());
          ok = false;
          break;
        }
        absorb(*op.def, page->rows, &op.answer);
        if (page->done) break;
      }
      op.ok = ok;
    } else {
      const double t = Now();
      ScopedSpan execute_span(tracer, "server.execute", query_id);
      auto executed = wire.Execute(op.def->sql);
      execute_span.End();
      if (layers != nullptr) {
        layers->Sample("server.execute_us", (Now() - t) * 1e6);
      }
      if (!executed.ok()) {
        checks->Fail("EXECUTE " + op.def->sql + ": " +
                     executed.status().ToString());
        continue;
      }
      absorb(*op.def, executed->rows, &op.answer);
      op.answer.cached = executed->cached;
      op.answer.comparisons_executed = executed->comparisons_executed;
      if (layers != nullptr) {
        layers->Add("server.result_cache_lookups", 1);
        if (executed->cached) layers->Add("server.result_cache_hits", 1);
      }
      op.ok = true;
    }
    op.seconds = Now() - begin;
  }
}

RoundResult WireMixed::Round(const RoundOptions& options, Checks* checks) {
  RoundResult result;
  std::vector<std::vector<Op>> lists(clients_);
  for (std::size_t c = 0; c < clients_; ++c) {
    lists[c] = ClientList(options.round, c);
  }
  const std::size_t total_ops = clients_ * kOpsPerClient;

  EngineSetup setup;
  const double start = Now();
  if (!SetUpEngine(*data_, options.workers, clients_, options.tracer, &setup,
                   checks)) {
    result.failed = total_ops;
    return result;
  }
  if (options.layers != nullptr) RecordSetup(setup, options.layers);
  std::unique_ptr<ErReplay> replay;
  if (options.tracer != nullptr) {
    replay = std::make_unique<ErReplay>(setup.engine.get(), data_,
                                        options.tracer, options.layers);
  }
  Answer warm_answer;
  InProcTiming warm_timing;
  if (!RunColdDedup(setup.engine.get(), warmup_, oracle_, options, 0,
                    replay.get(), &warm_answer, &warm_timing, checks)) {
    result.failed = total_ops;
    return result;
  }
  queryer::QueryServer server(setup.engine.get());
  const queryer::Status started = server.Start();
  if (!started.ok()) {
    checks->Fail("QueryServer::Start: " + started.ToString());
    result.failed = total_ops;
    return result;
  }
  result.setup_s = Now() - start;
  result.setup_write_s.push_back(warm_timing.total_s);
  PairCounts ignored;
  CheckAnswer(warmup_, warm_answer, oracle_, *data_, "wire_mixed warm-up",
              checks, &ignored, &ignored);

  // In-process answers of the plain statements, which the wire answers
  // must equal (and which must themselves equal the oracle's).
  std::map<std::string, RowDigest> inproc;
  for (const std::vector<QueryDef>* defs : {&scans_, &joins_}) {
    for (const QueryDef& def : *defs) {
      Answer answer;
      InProcTiming timing;
      if (RunInProc(setup.engine.get(), def, nullptr, 0, &answer, &timing,
                    checks)) {
        PairCounts unused;
        CheckAnswer(def, answer, oracle_, *data_, "in-process " + def.sql,
                    checks, &unused, &unused);
        inproc[def.sql] = answer.digest;
      }
    }
  }

  std::vector<std::vector<std::vector<std::vector<std::string>>>> pages(
      clients_);
  StartGate barrier(clients_ + 1);
  std::vector<std::thread> threads;
  threads.reserve(clients_);
  for (std::size_t c = 0; c < clients_; ++c) {
    threads.emplace_back([&, c] {
      RunClient(server.port(), c, &lists[c], &barrier, options, &pages[c],
                checks);
    });
  }
  barrier.ArriveAndWait();
  const double list_start = Now();
  const double cpu_start = ProcessCpuSeconds();
  for (std::thread& thread : threads) thread.join();
  PassSample pass;
  pass.seconds = Now() - list_start;
  result.cpu_s = ProcessCpuSeconds() - cpu_start;
  server.Stop();

  // Checks, after the clock stopped.
  std::map<std::string, std::vector<double>> wire_seconds;
  for (std::size_t c = 0; c < clients_; ++c) {
    for (std::size_t i = 0; i < lists[c].size(); ++i) {
      const Op& op = lists[c][i];
      static const char* const kKinds[] = {"scan", "hot_dedup", "join",
                                           "write"};
      pass.ops.push_back({op.seconds, op.kind == Op::kWrite,
                          kKinds[op.kind]});
      if (!op.ok) {
        ++result.failed;
        continue;
      }
      const std::string label = "wire client " + std::to_string(c) + " op " +
                                std::to_string(i + 1);
      CheckAnswer(*op.def, op.answer, oracle_, *data_, label, checks,
                  &result.pairs, &result.floor_pairs);
      if (op.kind == Op::kScan || op.kind == Op::kJoin) {
        if (op.answer.digest != inproc[op.def->sql]) {
          checks->Fail(label + ": wire answer differs from the in-process one");
        }
        wire_seconds[op.def->sql].push_back(op.seconds);
      }
      if (op.kind == Op::kJoin && op.answer.cached) {
        checks->Fail(label + ": a join over the per-entry limit was cached");
      }
      if (op.kind == Op::kHot) {
        if (op.answer.comparisons_executed != 0) {
          checks->Fail(label + ": a read inside the resolved region executed " +
                       std::to_string(op.answer.comparisons_executed) +
                       " comparisons");
        }
        wire_seconds[op.def->sql].push_back(op.seconds);
      }
    }
  }
  result.passes.push_back(std::move(pass));

  Layers* layers = options.layers;
  if (layers != nullptr) {
    // JSON cost of the pages received, re-encoded as NEXT responses.
    std::vector<queryer::JsonValue> frames;
    for (const auto& client_pages : pages) {
      for (const auto& page : client_pages) {
        queryer::JsonValue::Array rows;
        for (const auto& values : page) {
          queryer::JsonValue::Array cells;
          for (const std::string& v : values) {
            cells.push_back(queryer::JsonValue::Str(v));
          }
          rows.push_back(queryer::JsonValue::MakeArray(std::move(cells)));
        }
        queryer::JsonValue frame = queryer::JsonValue::MakeObject();
        frame.Set("ok", queryer::JsonValue::Bool(true));
        frame.Set("rows", queryer::JsonValue::MakeArray(std::move(rows)));
        frame.Set("done", queryer::JsonValue::Bool(false));
        frames.push_back(std::move(frame));
      }
    }
    std::vector<std::string> dumped(frames.size());
    double bytes = 0;
    double t = Now();
    {
      ScopedSpan span(options.tracer, "server.json_encode", 0);
      for (std::size_t f = 0; f < frames.size(); ++f) {
        dumped[f] = frames[f].Dump();
        bytes += static_cast<double>(dumped[f].size());
      }
    }
    const double encode_s = Now() - t;
    t = Now();
    {
      ScopedSpan span(options.tracer, "server.json_decode", 0);
      for (const std::string& text : dumped) {
        if (!queryer::JsonValue::Parse(text).ok()) {
          checks->Fail("JsonValue::Parse rejected a dumped page");
        }
      }
    }
    const double decode_s = Now() - t;
    if (encode_s > 0) layers->Sample("server.json_encode_mb_per_s", bytes / 1e6 / encode_s);
    if (decode_s > 0) layers->Sample("server.json_decode_mb_per_s", bytes / 1e6 / decode_s);

    // The same read statements in-process, for the wire's share of latency
    // and the exec layer's rates.
    std::vector<double> ratios;
    for (const std::vector<QueryDef>* defs : {&scans_, &joins_, &hot_}) {
      for (const QueryDef& def : *defs) {
        auto wire = wire_seconds.find(def.sql);
        if (wire == wire_seconds.end()) continue;
        std::vector<double> local;
        for (int rep = 0; rep < 3; ++rep) {
          Answer answer;
          InProcTiming timing;
          if (!RunInProc(setup.engine.get(), def, options.tracer, 0, &answer,
                         &timing, checks)) {
            break;
          }
          local.push_back(timing.total_s);
          SampleInProc(timing, answer, layers);
          SampleShapeRate(def, answer, timing.total_s, *data_, layers);
        }
        if (!local.empty() && Median(local) > 0) {
          ratios.push_back(Median(wire->second) / Median(local));
        }
      }
    }
    layers->Sample("server.wire_over_inproc", Median(ratios));
    MeasureClusterLookups(setup.engine.get(), "dsd",
                          oracle_->Get(warmup_).selected, layers);
  }
  return result;
}

}  // namespace

std::size_t RoundResult::operations() const {
  std::size_t ops = 0;
  for (const PassSample& pass : passes) ops += pass.ops.size();
  return ops;
}

double RoundResult::list_seconds() const {
  double seconds = 0;
  for (const PassSample& pass : passes) seconds += pass.seconds;
  return seconds;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Dataset* data, Oracle* oracle) {
  if (name == "er_cold") return std::make_unique<ErCold>(data, oracle);
  if (name == "analytics_warm") {
    return std::make_unique<AnalyticsWarm>(data, oracle);
  }
  if (name == "wire_mixed") return std::make_unique<WireMixed>(data, oracle);
  return nullptr;
}

}  // namespace perfbench
