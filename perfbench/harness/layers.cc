// Per-layer sweeps of the traced run. Each sweep times calls into one
// layer's public functions from outside and takes its counts from the
// stats structs those calls return.
#include <unistd.h>

#include <cstdio>
#include <optional>

#include "bench.h"
#include "datalog.h"
#include "eval/hypergraph.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/epoch.h"
#include "server/server.h"
#include "server/snapshot_query.h"

namespace perfbench {

using datalog::Database;
using datalog::EvalStats;
using datalog::Parser;
using datalog::Program;
using datalog::Result;

namespace {

double Since(Clock::time_point start) {
  return SecondsBetween(start, Clock::now());
}

/// Edits of an input as (predicate, tuple) pairs, parsed by the library's
/// own parser against the view's symbol table.
std::vector<std::pair<datalog::PredicateId, datalog::Tuple>> ParseEdits(
    const EvalInput& input, const std::shared_ptr<datalog::SymbolTable>& symbols,
    Results* results) {
  std::vector<std::pair<datalog::PredicateId, datalog::Tuple>> edits;
  Parser parser(symbols);
  for (const std::string& text : input.edit_facts) {
    Result<std::vector<datalog::Atom>> atoms = parser.ParseGroundAtoms(text);
    if (!atoms.ok() || atoms->size() != 1) {
      results->Fail(input.id + ": bad edit fact " + text);
      continue;
    }
    datalog::Tuple tuple;
    for (const datalog::Term& term : atoms->front().args()) {
      tuple.push_back(term.value());
    }
    edits.emplace_back(atoms->front().predicate(), std::move(tuple));
  }
  return edits;
}

}  // namespace

FactDigest EngineDigest(const Database& db,
                        const std::vector<std::string>& preds,
                        bool* all_ints) {
  FactDigest digest;
  *all_ints = true;
  std::vector<std::int64_t> args;
  for (const std::string& name : preds) {
    Result<datalog::PredicateId> pred = db.symbols()->LookupPredicate(name);
    if (!pred.ok()) continue;
    for (const datalog::Tuple& tuple : db.relation(*pred).rows()) {
      args.clear();
      for (const datalog::Value& v : tuple) {
        *all_ints = *all_ints && v.is_int();
        args.push_back(v.payload());
      }
      digest.Add(name, args.data(), args.size());
    }
  }
  return digest;
}

bool RunEvalJob(const EvalInput& input, std::uint64_t job, Tracer* tracer,
                EvalJobOutput* out, Results* results) {
  ScopedSpan job_span(tracer, "job.eval", job);
  auto symbols = std::make_shared<datalog::SymbolTable>();
  Parser parser(symbols);
  Clock::time_point t0 = Clock::now();
  std::optional<Result<Program>> program;
  {
    ScopedSpan span(tracer, "ast.parse_program", job);
    program.emplace(parser.ParseProgram(input.program_text));
  }
  std::optional<Result<std::vector<datalog::Atom>>> atoms;
  {
    ScopedSpan span(tracer, "ast.parse_facts", job);
    atoms.emplace(parser.ParseGroundAtoms(input.facts_text));
  }
  Clock::time_point t1 = Clock::now();
  if (!program->ok() || !atoms->ok()) {
    results->Fail(input.id + ": parse: " +
                  (program->ok() ? atoms->status() : program->status())
                      .ToString());
    return false;
  }
  // EDB copy-in: the facts into a Database, then the copy the CLI
  // evaluates into.
  std::optional<Result<Database>> db;
  {
    ScopedSpan span(tracer, "eval.load", job);
    db.emplace(datalog::DatabaseFromAtoms(symbols, **atoms));
    if (db->ok()) out->db.emplace(**db);
  }
  if (!db->ok()) {
    results->Fail(input.id + ": load: " + db->status().ToString());
    return false;
  }
  Clock::time_point t2 = Clock::now();
  Result<EvalStats> stats = EvalStats{};
  {
    ScopedSpan span(tracer, "eval.fixpoint", job);
    stats = datalog::EvaluateStratified(**program, &*out->db);
  }
  Clock::time_point t3 = Clock::now();
  if (!stats.ok()) {
    results->Fail(input.id + ": evaluate: " + stats.status().ToString());
    return false;
  }
  out->program.emplace(std::move(**program));
  out->stats = *stats;
  out->parse_s = SecondsBetween(t0, t1);
  out->load_s = SecondsBetween(t1, t2);
  out->fixpoint_s = SecondsBetween(t2, t3);
  out->total_s = SecondsBetween(t0, t3);
  return true;
}

bool CheckEvalJob(const EvalInput& input, const EvalJobOutput& out,
                  const FactDigest& expected, Context* ctx) {
  const EvalStats& s = out.stats;
  ctx->guard->Check("eval:" + input.id,
                    {static_cast<std::uint64_t>(s.iterations), s.facts_derived,
                     s.match.substitutions, s.match.index_lookups,
                     s.match.tuples_scanned, s.rule_applications},
                    ctx->results);
  bool all_ints = true;
  const FactDigest got = EngineDigest(*out.db, input.idb_preds, &all_ints);
  if (!all_ints || !(got == expected)) {
    ctx->results->Fail(input.id + ": fixpoint " + got.ToString() +
                       " != reference " + expected.ToString());
    return false;
  }
  return true;
}

void SweepEval(const EvalInput& input, const FactDigest& expected,
               LayerTotals* totals, Context* ctx) {
  Tracer* tracer = ctx->tracer;
  ctx->results->Attempt();
  EvalJobOutput out;
  if (!RunEvalJob(input, 0, tracer, &out, ctx->results)) return;
  if (!CheckEvalJob(input, out, expected, ctx)) return;
  totals->parse_s += out.parse_s;
  totals->parse_bytes += static_cast<double>(input.program_text.size() +
                                             input.facts_text.size());
  totals->load_s += out.load_s;
  totals->fixpoint_s += out.fixpoint_s;
  const EvalStats& s = out.stats;
  totals->iterations += static_cast<std::uint64_t>(s.iterations);
  totals->facts_derived += s.facts_derived;
  totals->substitutions += s.match.substitutions;
  totals->index_lookups += s.match.index_lookups;
  totals->tuples_scanned += s.match.tuples_scanned;
  totals->rule_applications += s.rule_applications;

  const Program& program = *out.program;
  Database& fixpoint = *out.db;
  // One ApplyRule pass of every rule over the finished fixpoint: all
  // enumeration and duplicate probing, no inserts. A closed fixpoint
  // yields no new fact.
  {
    ScopedSpan span(tracer, "eval.closure_round", 0);
    Clock::time_point start = Clock::now();
    datalog::MatchStats match;
    std::size_t fresh = 0;
    for (std::size_t i = 0; i < program.rules().size(); ++i) {
      fresh += datalog::ApplyRule(program.rules()[i], fixpoint, &fixpoint,
                                  &match);
    }
    totals->closure_round_s += Since(start);
    if (fresh != 0) {
      ctx->results->Fail(input.id + ": fixpoint not closed, " +
                         std::to_string(fresh) + " facts derivable");
    }
  }
  if (totals->programs_seen.insert(input.program_text).second) {
    for (const datalog::Rule& rule : program.rules()) {
      totals->multiway_bodies += datalog::MultiwayEligibleBody(
          datalog::BuildDeltaPassAtoms(rule, static_cast<std::size_t>(-1),
                                       false));
    }
  }
  // Storage replays: every fact of the fixpoint into an empty database
  // (all inserts), then the same facts again (all duplicates).
  Database replay(fixpoint.symbols());
  std::vector<std::uint32_t> ids;
  for (int pass = 0; pass < 2; ++pass) {
    ScopedSpan span(tracer, pass == 0 ? "eval.replay_insert"
                                      : "eval.replay_dedup", 0);
    std::size_t facts = 0;
    Clock::time_point start = Clock::now();
    for (datalog::PredicateId pred : fixpoint.NonEmptyPredicates()) {
      const datalog::Relation& rel = fixpoint.relation(pred);
      ids.resize(static_cast<std::size_t>(rel.arity()));
      for (std::size_t row = 0; row < rel.size(); ++row) {
        for (int c = 0; c < rel.arity(); ++c) {
          ids[static_cast<std::size_t>(c)] = rel.column(c)[row];
        }
        replay.AddFactIds(pred, ids);
        ++facts;
      }
    }
    const double ns = Since(start) * 1e9;
    (pass == 0 ? totals->insert_ns : totals->dedup_ns) += ns;
    (pass == 0 ? totals->insert_facts : totals->dedup_facts) +=
        static_cast<double>(facts);
    if (pass == 0 && replay.NumFacts() != fixpoint.NumFacts()) {
      ctx->results->Fail(input.id + ": replay lost facts");
    }
  }
  // Outside estimate of the fixpoint's write time: each derived fact costs
  // one insert, every other substitution one duplicate probe.
  const double insert_ns = totals->insert_ns / std::max(1.0, totals->insert_facts);
  const double dedup_ns = totals->dedup_ns / std::max(1.0, totals->dedup_facts);
  totals->write_s_estimate +=
      (static_cast<double>(s.facts_derived) * insert_ns +
       static_cast<double>(s.match.substitutions - s.facts_derived) *
           dedup_ns) /
      1e9;
}

void SweepCore(const std::string& id, const std::string& program_text,
               LayerTotals* totals, Context* ctx) {
  Tracer* tracer = ctx->tracer;
  ctx->results->Attempt();
  auto symbols = std::make_shared<datalog::SymbolTable>();
  Parser parser(symbols);
  Result<Program> program = parser.ParseProgram(program_text);
  if (!program.ok()) {
    ctx->results->Fail(id + ": parse: " + program.status().ToString());
    return;
  }
  datalog::MetricsRegistry& metrics = datalog::MetricsRegistry::Get();
  metrics.Clear();
  metrics.Enable();
  datalog::MinimizeReport report;
  Clock::time_point start = Clock::now();
  Result<Program> minimized = Program();
  {
    ScopedSpan span(tracer, "core.minimize", 0);
    minimized = datalog::MinimizeProgram(*program, &report);
  }
  Clock::time_point mid = Clock::now();
  Result<datalog::EquivalenceOptimizeResult> optimized =
      datalog::EquivalenceOptimizeResult{};
  if (minimized.ok()) {
    ScopedSpan span(tracer, "core.equivalence", 0);
    optimized = datalog::OptimizeUnderEquivalence(*minimized);
  }
  Clock::time_point end = Clock::now();
  const std::uint64_t chase_rounds = metrics.Value("chase.rounds", {});
  metrics.Disable();
  metrics.Clear();
  if (!minimized.ok() || !optimized.ok()) {
    ctx->results->Fail(id + ": optimize: " +
                       (minimized.ok() ? optimized.status()
                                       : minimized.status())
                           .ToString());
    return;
  }
  totals->minimize_s += SecondsBetween(start, mid);
  totals->equivalence_s += SecondsBetween(mid, end);
  totals->containment_tests += report.containment_tests;
  totals->atoms_removed += report.atoms_removed;
  totals->rules_removed += report.rules_removed;
  totals->chase_rounds += chase_rounds;
  totals->equivalence_candidates += optimized->candidates_tried;
  ctx->guard->Check("core:" + id,
                    {report.containment_tests, report.atoms_removed,
                     report.rules_removed, optimized->candidates_tried},
                    ctx->results);
  // Fig. 2's rule-removal test, one call per rule: r in P \ {r}?
  for (std::size_t i = 0; i < program->rules().size(); ++i) {
    const Program rest = program->WithoutRule(i);
    ScopedSpan span(tracer, "core.containment", 0);
    Clock::time_point t = Clock::now();
    Result<bool> contained =
        datalog::UniformlyContainsRule(rest, program->rules()[i]);
    totals->containment_s.push_back(Since(t));
    if (!contained.ok()) ctx->results->Fail(id + ": containment test");
  }
}

std::unique_ptr<datalog::MaterializedView> SweepIncr(const EvalInput& input,
                                                     LayerTotals* totals,
                                                     Context* ctx) {
  Tracer* tracer = ctx->tracer;
  ctx->results->Attempt();
  auto symbols = std::make_shared<datalog::SymbolTable>();
  Parser parser(symbols);
  Result<Program> program = parser.ParseProgram(input.program_text);
  Result<Database> edb = datalog::ParseDatabase(symbols, input.facts_text);
  if (!program.ok() || !edb.ok()) {
    ctx->results->Fail(input.id + ": incr parse");
    return nullptr;
  }
  Clock::time_point start = Clock::now();
  std::optional<Result<datalog::MaterializedView>> view;
  {
    ScopedSpan span(tracer, "incr.create", 0);
    view.emplace(datalog::MaterializedView::Create(std::move(*program),
                                                   std::move(*edb)));
  }
  totals->create_s += Since(start);
  if (!view->ok()) {
    ctx->results->Fail(input.id + ": materialize: " +
                       view->status().ToString());
    return nullptr;
  }
  auto live =
      std::make_unique<datalog::MaterializedView>(std::move(**view));
  const std::size_t baseline = live->db().NumFacts();
  const auto edits = ParseEdits(input, symbols, ctx->results);
  for (std::size_t e = 0; e < edits.size(); ++e) {
    for (int insert = 1; insert >= 0; --insert) {
      ctx->results->Attempt();
      std::vector<std::pair<datalog::PredicateId, datalog::Tuple>> batch{
          edits[e]};
      std::vector<std::pair<datalog::PredicateId, datalog::Tuple>> none;
      Clock::time_point t = Clock::now();
      Result<datalog::CommitStats> stats = datalog::CommitStats{};
      {
        ScopedSpan span(tracer, "incr.apply", e);
        stats = insert ? live->Apply(batch, none) : live->Apply(none, batch);
      }
      totals->apply_s.push_back(Since(t));
      if (!stats.ok()) {
        ctx->results->Fail(input.id + ": apply: " + stats.status().ToString());
        continue;
      }
      ++totals->commits;
      totals->incr_substitutions += stats->TotalSubstitutions();
      totals->derived_changed += stats->derived_added + stats->derived_removed;
      totals->overdeleted += stats->overdeleted;
      ctx->guard->Check(
          "incr:" + input.id + ":" + std::to_string(e) + (insert ? "+" : "-"),
          {stats->TotalSubstitutions(), stats->derived_added,
           stats->derived_removed, stats->overdeleted},
          ctx->results);
    }
  }
  if (live->db().NumFacts() != baseline) {
    ctx->results->Fail(input.id + ": edit pairs did not return the view to "
                       "its baseline");
  }
  // The commit handler's copy of the maintained state (server.cc copies
  // db() and base() into the epoch it publishes).
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span(tracer, "server.snapshot_copy", 0);
    Clock::time_point t = Clock::now();
    Database db_copy = live->db();
    Database base_copy = live->base();
    totals->snapshot_copy_s.push_back(Since(t));
    if (db_copy.NumFacts() != live->db().NumFacts()) {
      ctx->results->Fail(input.id + ": snapshot copy");
    }
  }
  return live;
}

void SweepSnapshotQueries(const Database& snapshot, const std::string& query,
                          int repetitions, LayerTotals* totals,
                          Context* ctx) {
  Parser parser(snapshot.symbols());
  Result<datalog::Atom> pattern = parser.ParseQuery("?- " + query + ".");
  if (!pattern.ok()) {
    ctx->results->Fail("snapshot query parse: " + query);
    return;
  }
  datalog::PrepareSnapshotIndexes(snapshot);
  for (int i = 0; i < repetitions; ++i) {
    ScopedSpan span(ctx->tracer, "server.snapshot_query", 0);
    Clock::time_point t = Clock::now();
    Result<std::vector<datalog::Tuple>> answers =
        datalog::QuerySnapshot(snapshot, *pattern);
    totals->snapshot_query_s.push_back(Since(t));
    if (!answers.ok()) ctx->results->Fail("snapshot query: " + query);
  }
}

void MeasurePings(datalog::DatalogClient* client, int n, LayerTotals* totals,
                  Context* ctx) {
  for (int i = 0; i < n; ++i) {
    ctx->results->Attempt();
    ScopedSpan span(ctx->tracer, "server.ping", 0);
    Clock::time_point t = Clock::now();
    Result<datalog::Reply> reply = client->Ping();
    totals->ping_s.push_back(Since(t));
    if (!reply.ok() || !reply->ok) ctx->results->Fail("ping");
  }
}

std::string SocketPath(const Options& options, const std::string& tag) {
  return options.out_dir + "/" + tag + "." + std::to_string(::getpid()) +
         ".sock";
}

void SweepServer(const EvalInput& input, LayerTotals* totals, Context* ctx) {
  ctx->results->Attempt();
  auto symbols = std::make_shared<datalog::SymbolTable>();
  Parser parser(symbols);
  Result<Program> program = parser.ParseProgram(input.program_text);
  Result<Database> edb = datalog::ParseDatabase(symbols, input.facts_text);
  if (!program.ok() || !edb.ok()) {
    ctx->results->Fail(input.id + ": server parse");
    return;
  }
  datalog::ServerOptions options;
  options.socket_path = SocketPath(ctx->options, "sweep");
  options.num_workers = 2;
  Result<std::unique_ptr<datalog::DatalogServer>> server =
      datalog::DatalogServer::Start(std::move(*program), std::move(*edb),
                                    options);
  if (!server.ok()) {
    ctx->results->Fail("server start: " + server.status().ToString());
    return;
  }
  {
    Result<datalog::DatalogClient> client =
        datalog::DatalogClient::Connect(options.socket_path);
    if (client.ok()) {
      MeasurePings(&*client, 200, totals, ctx);
    } else {
      ctx->results->Fail("connect: " + client.status().ToString());
    }
  }
  (*server)->Stop();
  RecordServerStats((*server)->Stats(), totals);
}

void RecordServerStats(const datalog::ServerStats& stats,
                       LayerTotals* totals) {
  totals->server_errors += stats.errors;
  totals->epochs_published += stats.epochs_published;
  totals->live_epochs_max = std::max<std::uint64_t>(totals->live_epochs_max,
                                                    stats.live_epochs);
}

void ReportLayers(const LayerTotals& t, Context* ctx) {
  Results* r = ctx->results;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto median = [](const std::vector<double>& v) { return Summarize(v).p50; };
  r->Set("ast.parse_s", t.parse_s, "s");
  r->Set("ast.parse_mb_per_s", ratio(t.parse_bytes / 1e6, t.parse_s), "MB/s");
  r->Set("eval.load_s", t.load_s, "s");
  r->Set("eval.insert_ns_per_fact", ratio(t.insert_ns, t.insert_facts), "ns");
  r->Set("eval.dedup_ns_per_fact", ratio(t.dedup_ns, t.dedup_facts), "ns");
  r->Set("eval.fixpoint_s", t.fixpoint_s, "s");
  r->Set("eval.iterations", static_cast<double>(t.iterations), "count");
  r->Set("eval.facts_derived", static_cast<double>(t.facts_derived), "count");
  r->Set("eval.substitutions", static_cast<double>(t.substitutions), "count");
  r->Set("eval.index_lookups", static_cast<double>(t.index_lookups), "count");
  r->Set("eval.tuples_scanned", static_cast<double>(t.tuples_scanned),
         "count");
  r->Set("eval.rule_applications", static_cast<double>(t.rule_applications),
         "count");
  r->Set("eval.new_fact_ratio",
         ratio(static_cast<double>(t.facts_derived),
               static_cast<double>(t.substitutions)),
         "ratio");
  r->Set("eval.write_share", ratio(t.write_s_estimate, t.fixpoint_s), "ratio");
  r->Set("eval.closure_round_s", t.closure_round_s, "s");
  r->Set("eval.probes_per_substitution",
         ratio(static_cast<double>(t.index_lookups),
               static_cast<double>(t.substitutions)),
         "ratio");
  r->Set("eval.multiway_bodies", static_cast<double>(t.multiway_bodies),
         "count");
  r->Set("core.minimize_s", t.minimize_s, "s");
  r->Set("core.equivalence_s", t.equivalence_s, "s");
  r->Set("core.containment_tests", static_cast<double>(t.containment_tests),
         "count");
  r->Set("core.containment_s", median(t.containment_s), "s");
  r->Set("core.atoms_removed", static_cast<double>(t.atoms_removed), "count");
  r->Set("core.rules_removed", static_cast<double>(t.rules_removed), "count");
  r->Set("core.chase_rounds", static_cast<double>(t.chase_rounds), "count");
  r->Set("core.equivalence_candidates",
         static_cast<double>(t.equivalence_candidates), "count");
  r->Set("incr.create_s", t.create_s, "s");
  r->SetSummary("incr.apply_s", Summarize(t.apply_s), "s");
  const double commits = static_cast<double>(t.commits);
  r->Set("incr.substitutions_per_commit",
         ratio(static_cast<double>(t.incr_substitutions), commits), "count");
  r->Set("incr.derived_changed_per_commit",
         ratio(static_cast<double>(t.derived_changed), commits), "count");
  r->Set("incr.overdeleted_per_commit",
         ratio(static_cast<double>(t.overdeleted), commits), "count");
  r->Set("server.ping_s.p50", median(t.ping_s), "s");
  r->Set("server.snapshot_query_s.p50", median(t.snapshot_query_s), "s");
  r->Set("server.snapshot_copy_s", median(t.snapshot_copy_s), "s");
  r->Set("server.errors", static_cast<double>(t.server_errors), "count");
  r->Set("server.epochs_published", static_cast<double>(t.epochs_published),
         "count");
  r->Set("server.live_epochs.max", static_cast<double>(t.live_epochs_max),
         "count");
  r->Set("generator.lag_s.tail", Summarize(t.generator_lag_s).tail, "s");
  const std::map<std::string, double> self = ctx->tracer->SelfTimeByLayer();
  for (const char* layer : {"job", "ast", "eval", "core", "incr", "server"}) {
    auto it = self.find(layer);
    r->Set(std::string("self_s.") + layer, it == self.end() ? 0 : it->second,
           "s");
  }
}

}  // namespace perfbench
