// The serve workload: an in-process DatalogServer (2 workers, the CLI
// default) hosting transitive closure over a random graph that a seeded
// Hamiltonian cycle makes strongly connected (n^2 ~ 1e5 path facts),
// driven open-loop from this process over four client connections at a
// fixed ladder of offered rates (kLadder).
//
// 9 of every 10 requests are bound queries path(c, x) with a skewed choice
// of c; the 10th is an INSERT+COMMIT / RETRACT+COMMIT of an edge between
// two nodes outside the graph, each connection toggling its own edge. No
// queried source reaches a written node, so every query has one correct
// answer at every epoch, and the view returns to its baseline when every
// edge is retracted.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <numeric>
#include <random>
#include <set>
#include <thread>

#include "bench.h"
#include "workload/graph_gen.h"

namespace perfbench {

namespace {

constexpr int kConnections = 4;
constexpr std::int64_t kWriteNodeBase = 1000000;
/// Offered request rates, per second. Arrivals are evenly spaced and every
/// tenth request is a write, so that which requests meet a commit in
/// progress is the same from run to run. The first rung is the reference
/// rung, where job_s.*, query_s.* and commit_s.* are taken: well below
/// saturation, so that host slowdowns do not turn into queueing. It gets
/// 70% of the run; the other rungs share the rest.
constexpr double kLadder[] = {100, 200, 400, 800};
constexpr double kReferenceShare = 0.7;
/// sustained_rps is taken against this limit on the query tail (up to
/// p99).
constexpr double kQueryLimitS = 0.1;

struct Op {
  double due = 0;       // seconds after the rung starts
  bool write = false;
  std::int64_t source = 0;  // queried node
};

struct RungResult {
  double rate = 0;
  // Request latencies from the scheduled send, in the classes "insert"
  // (INSERT+COMMIT) and "retract" (RETRACT+COMMIT), which cost
  // differently, "query", and "query-behind-commit": a query that overlaps
  // a write waits for its commit (both need the symbol table's lock), so
  // its latency is the rest of the commit, not the query's own.
  Phase phase;
  std::vector<double> query_s, write_s, lag_s;
  std::vector<double> first_half_lag, second_half_lag;
  std::size_t completed = 0, abandoned = 0, failed = 0;
  bool passed = false;
  double achieved_rate = 0;
  Summary query, write;
};

struct ServeSetup {
  std::string facts_text;
  std::size_t num_nodes = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;  // main graph
  std::unique_ptr<datalog::DatalogServer> server;
};

std::string WriteEdge(int connection) {
  const std::int64_t from = kWriteNodeBase + 10 * connection;
  return "edge(" + std::to_string(from) + ", " + std::to_string(from + 1) +
         ").";
}

/// Sources ranked by a seeded permutation, drawn with probability
/// proportional to 1 / (rank + 1).
class SkewedSources {
 public:
  SkewedSources(std::size_t n, std::uint64_t seed) : nodes_(n) {
    std::iota(nodes_.begin(), nodes_.end(), 0);
    std::mt19937_64 rng(seed);
    std::shuffle(nodes_.begin(), nodes_.end(), rng);
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / static_cast<double>(i + 1);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  std::int64_t Draw(std::mt19937_64* rng) const {
    const double u = std::uniform_real_distribution<double>(0, 1)(*rng);
    const std::size_t i = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return nodes_[std::min(i, nodes_.size() - 1)];
  }

 private:
  std::vector<std::int64_t> nodes_;
  std::vector<double> cdf_;
};

std::vector<Op> Schedule(double rate, double duration,
                         const SkewedSources& sources, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Op> ops;
  for (std::size_t i = 0; static_cast<double>(i) / rate < duration; ++i) {
    Op op;
    op.due = static_cast<double>(i) / rate;
    op.write = i % 10 == 9;
    op.source = sources.Draw(&rng);
    ops.push_back(op);
  }
  return ops;
}

/// The answer body the server renders for path(c, x): one line per
/// reachable node, in ascending order.
std::string ExpectedBody(std::int64_t source,
                         const std::vector<std::int64_t>& reachable) {
  std::string body;
  for (std::int64_t v : reachable) {
    body += "path(" + std::to_string(source) + ", " + std::to_string(v) +
            ").\n";
  }
  return body;
}

class ServeRunner {
 public:
  /// Builds the reference answers: every query's and the final view's.
  ServeRunner(Context* ctx, ServeSetup* setup)
      : ctx_(ctx), setup_(setup),
        sources_(setup->num_nodes, ctx->options.seed ^ 0x5eed),
        expected_view_(ReferenceClosureDigest(setup->edges)) {
    for (std::size_t c = 0; c < setup->num_nodes; ++c) {
      const std::int64_t source = static_cast<std::int64_t>(c);
      expected_hash_[source] = std::hash<std::string>{}(
          ExpectedBody(source, ReferenceReachable(setup->edges, source)));
    }
  }

  bool Connect() {
    for (int k = 0; k < kConnections; ++k) {
      datalog::Result<datalog::DatalogClient> client =
          datalog::DatalogClient::Connect(setup_->server->socket_path());
      if (!client.ok()) {
        ctx_->results->Fail("connect: " + client.status().ToString());
        return false;
      }
      clients_.push_back(std::move(*client));
    }
    edge_present_.assign(kConnections, false);
    return true;
  }

  /// One rung of the ladder: offered `rate` for `duration` seconds, with
  /// the host's speed sampled on a thread of its own.
  void RunRung(double rate, double duration, std::uint64_t seed,
               Tracer* tracer, RungResult* out) {
    RungResult& rung = *out;
    rung.rate = rate;
    const std::vector<Op> ops = Schedule(rate, duration, sources_, seed);
    std::atomic<std::size_t> next{0};
    // Writes in flight, and writes started so far: a query overlaps a
    // write when one was in flight at its send or one started before it
    // completed.
    std::atomic<int> writes_in_flight{0};
    std::atomic<std::uint64_t> writes_started{0};
    std::mutex mu;  // guards `rung`
    const double grace = std::max(0.5, duration / 4);
    const Clock::time_point start = Clock::now();
    auto worker = [&](int k) {
      datalog::DatalogClient& client = clients_[static_cast<std::size_t>(k)];
      for (std::size_t i = next++; i < ops.size(); i = next++) {
        const Op& op = ops[i];
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(op.due));
        std::this_thread::sleep_until(due);
        const Clock::time_point send = Clock::now();
        if (SecondsBetween(start, send) > duration + grace) {
          std::lock_guard<std::mutex> lock(mu);
          ++rung.abandoned;  // the backlog outgrew the rung
          continue;
        }
        ctx_->results->Attempt();
        bool ok = true;
        std::string failure;
        const bool inserting = !edge_present_[static_cast<std::size_t>(k)];
        bool overlapped = false;
        {
          ScopedSpan job(tracer, "job.request", i + 1);
          if (op.write) {
            ++writes_started;
            ++writes_in_flight;
            ok = Write(k, tracer, i + 1, &failure);
            --writes_in_flight;
          } else {
            const std::uint64_t started = writes_started;
            overlapped = writes_in_flight > 0;
            ok = Query(&client, op.source, tracer, i + 1, &failure);
            overlapped = overlapped || writes_started != started;
          }
        }
        const Clock::time_point done = Clock::now();
        const double latency = SecondsBetween(due, done);
        const double lag = SecondsBetween(due, send);
        const std::uint64_t live = setup_->server->live_epochs();
        std::lock_guard<std::mutex> lock(mu);
        live_epochs_max_ = std::max(live_epochs_max_, live);
        if (!ok) {
          ++rung.failed;
          ctx_->results->Fail(failure);
          continue;
        }
        ++rung.completed;
        (op.write ? rung.write_s : rung.query_s).push_back(latency);
        rung.phase.Add(op.write      ? (inserting ? "insert" : "retract")
                       : overlapped ? "query-behind-commit"
                                    : "query",
                       done, latency);
        rung.lag_s.push_back(lag);
        (op.due < duration / 2 ? rung.first_half_lag : rung.second_half_lag)
            .push_back(lag);
      }
    };
    rung.phase.host().StartBackground();
    std::vector<std::thread> threads;
    for (int k = 0; k < kConnections; ++k) threads.emplace_back(worker, k);
    for (std::thread& t : threads) t.join();
    rung.phase.host().StopBackground();
    const double elapsed = SecondsBetween(start, Clock::now());
    rung.query = Summarize(rung.query_s, 99);
    rung.write = Summarize(rung.write_s, 99);
    rung.achieved_rate =
        static_cast<double>(rung.completed) / std::max(duration, elapsed);
    const double lag_growth = Summarize(rung.second_half_lag).p50 -
                              Summarize(rung.first_half_lag).p50;
    rung.passed = rung.failed == 0 && rung.abandoned == 0 &&
                  rung.query.n > 0 && rung.query.tail <= kQueryLimitS &&
                  lag_growth <= kQueryLimitS;
  }

  /// Retracts every edge still present, so the view is at its baseline.
  void Restore() {
    for (int k = 0; k < kConnections; ++k) {
      std::string failure;
      if (edge_present_[static_cast<std::size_t>(k)] &&
          !Write(k, nullptr, 0, &failure)) {
        ctx_->results->Fail(failure);
      }
    }
  }

  std::uint64_t live_epochs_max() const { return live_epochs_max_; }
  const FactDigest& expected_view() const { return expected_view_; }
  datalog::DatalogClient& client(int k) {
    return clients_[static_cast<std::size_t>(k)];
  }

 private:
  bool Query(datalog::DatalogClient* client, std::int64_t source,
             Tracer* tracer, std::uint64_t job, std::string* failure) {
    datalog::Result<datalog::Reply> reply = datalog::Reply{};
    {
      ScopedSpan span(tracer, "server.query", job);
      reply = client->Query("path(" + std::to_string(source) + ", x)");
    }
    if (!reply.ok() || !reply->ok) {
      *failure = "query path(" + std::to_string(source) + ", x): " +
                 (reply.ok() ? reply->body : reply.status().ToString());
      return false;
    }
    if (std::hash<std::string>{}(reply->body) != expected_hash_[source]) {
      *failure = "query path(" + std::to_string(source) +
                 ", x): answers differ from the reference reachable set";
      return false;
    }
    return true;
  }

  /// INSERT (or RETRACT) of connection k's edge, then COMMIT.
  bool Write(int k, Tracer* tracer, std::uint64_t job, std::string* failure) {
    datalog::DatalogClient& client = clients_[static_cast<std::size_t>(k)];
    const bool insert = !edge_present_[static_cast<std::size_t>(k)];
    datalog::Result<datalog::Reply> update = datalog::Reply{};
    {
      ScopedSpan span(tracer, insert ? "server.insert" : "server.retract",
                      job);
      update = insert ? client.Insert(WriteEdge(k)) : client.Retract(WriteEdge(k));
    }
    datalog::Result<datalog::Reply> commit = datalog::Reply{};
    if (update.ok() && update->ok) {
      ScopedSpan span(tracer, "server.commit", job);
      commit = client.Commit();
    }
    if (!update.ok() || !update->ok || !commit.ok() || !commit->ok) {
      *failure = "write " + WriteEdge(k) + " failed";
      return false;
    }
    edge_present_[static_cast<std::size_t>(k)] = insert;
    // The commit's stats (base/view deltas, joins) must repeat exactly.
    ctx_->guard->Check(
        "serve:commit:" + std::to_string(k) + (insert ? "+" : "-"),
        {std::hash<std::string>{}(commit->body)}, ctx_->results);
    return true;
  }

  Context* ctx_;
  ServeSetup* setup_;
  SkewedSources sources_;
  FactDigest expected_view_;
  std::map<std::int64_t, std::size_t> expected_hash_;
  std::vector<datalog::DatalogClient> clients_;
  std::vector<char> edge_present_;  // element k is touched by thread k only
  std::uint64_t live_epochs_max_ = 0;  // updated under the rung lock
};

ServeSetup MakeServeSetup(const Options& options, Results* results) {
  ServeSetup setup;
  setup.num_nodes = options.smoke ? 48 : 320;
  auto symbols = std::make_shared<datalog::SymbolTable>();
  datalog::Database db(symbols);
  datalog::GraphOptions graph;
  graph.shape = datalog::GraphShape::kRandom;
  graph.num_nodes = setup.num_nodes;
  graph.num_edges = 4 * setup.num_nodes;
  graph.seed = options.seed * 1000 + 17;
  datalog::AddGraphFacts(graph, symbols->InternPredicate("edge", 2).value(),
                         &db);
  for (const datalog::Tuple& t :
       db.relation(symbols->LookupPredicate("edge").value()).rows()) {
    setup.edges.emplace_back(t[0].payload(), t[1].payload());
  }
  // A cycle through every node in a seeded order: every node reaches
  // every node, so the view holds exactly n^2 path facts on every seed and
  // a commit, which copies the view, costs the same.
  std::vector<std::int64_t> order(setup.num_nodes);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(options.seed * 1000 + 29);
  std::shuffle(order.begin(), order.end(), rng);
  std::set<std::pair<std::int64_t, std::int64_t>> present(setup.edges.begin(),
                                                          setup.edges.end());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::pair<std::int64_t, std::int64_t> edge(
        order[i], order[(i + 1) % order.size()]);
    if (present.insert(edge).second) setup.edges.push_back(edge);
  }
  for (const auto& [from, to] : setup.edges) {
    setup.facts_text += "edge(" + std::to_string(from) + ", " +
                        std::to_string(to) + ").\n";
  }
  // The server parses its inputs and materializes the view (epoch 0).
  auto server_symbols = std::make_shared<datalog::SymbolTable>();
  datalog::Parser parser(server_symbols);
  datalog::Result<datalog::Program> program = parser.ParseProgram(kTcProgram);
  datalog::Result<datalog::Database> edb =
      datalog::ParseDatabase(server_symbols, setup.facts_text);
  if (!program.ok() || !edb.ok()) {
    results->Fail("serve: parse inputs");
    return setup;
  }
  datalog::ServerOptions server_options;
  server_options.socket_path = SocketPath(options, "serve");
  server_options.num_workers = 2;
  datalog::Result<std::unique_ptr<datalog::DatalogServer>> server =
      datalog::DatalogServer::Start(std::move(*program), std::move(*edb),
                                    server_options);
  if (!server.ok()) {
    results->Fail("serve: start: " + server.status().ToString());
    return setup;
  }
  setup.server = std::move(*server);
  return setup;
}

/// The whole view over one connection, checked against the reference
/// closure of the baseline graph.
void CheckFinalView(ServeRunner* runner, Results* results) {
  results->Attempt();
  // An empty COMMIT re-pins the connection to the head epoch; its pinned
  // snapshot may predate the other connections' last commits.
  datalog::Result<datalog::Reply> reply = runner->client(0).Commit();
  if (reply.ok() && reply->ok) reply = runner->client(0).Query("path(x, y)");
  if (!reply.ok() || !reply->ok) {
    results->Fail("final view query failed");
    return;
  }
  FactDigest got;
  std::size_t pos = 0;
  while ((pos = reply->body.find("path(", pos)) != std::string::npos) {
    pos += 5;
    char* end = nullptr;
    std::int64_t args[2];
    args[0] = std::strtoll(reply->body.c_str() + pos, &end, 10);
    args[1] = std::strtoll(end + 1, &end, 10);
    got.Add("path", args, 2);
  }
  const FactDigest& expected = runner->expected_view();
  if (!(got == expected)) {
    results->Fail("final view " + got.ToString() + " != initial fixpoint " +
                  expected.ToString());
  }
}

void ReportRung(const RungResult& rung) {
  std::printf(
      "  rung %7.1f/s: achieved %7.1f/s, queries n=%zu p50=%.3gms p%g=%.3gms,"
      " writes n=%zu p50=%.3gms p%g=%.3gms, abandoned=%zu failed=%zu %s\n",
      rung.rate, rung.achieved_rate, rung.query.n, rung.query.p50 * 1e3,
      rung.query.tail_pct, rung.query.tail * 1e3, rung.write.n,
      rung.write.p50 * 1e3, rung.write.tail_pct, rung.write.tail * 1e3,
      rung.abandoned, rung.failed, rung.passed ? "pass" : "FAIL");
}

}  // namespace

void RunServe(Context* ctx) {
  const Options& options = ctx->options;
  Results* r = ctx->results;
  // Set-up: generate the graph, parse, start the server (materializing the
  // view). The previous set-up's server is stopped and destroyed before
  // the next one starts; the last one stays up.
  ServeSetup setup;
  TimeSetups(
      [&] {
        if (setup.server) setup.server->Stop();
        setup = ServeSetup{};
      },
      [&] { setup = MakeServeSetup(options, r); }, r);
  if (!setup.server) return;
  ServeRunner runner(ctx, &setup);  // builds the reference answers
  if (!runner.Connect()) {
    setup.server->Stop();
    return;
  }
  // From here on the peak RSS is the server's and the clients'.
  ResetPeakRss();
  LayerTotals totals;
  MeasurePings(&runner.client(0), 200, &totals, ctx);

  constexpr std::size_t kRungs = std::size(kLadder);
  if (!options.trace) {
    std::deque<RungResult> rungs;
    for (std::size_t i = 0; i < kRungs; ++i) {
      const double rung_s =
          options.seconds * (i == 0 ? kReferenceShare
                                    : (1 - kReferenceShare) / (kRungs - 1));
      runner.RunRung(kLadder[i], rung_s, options.seed * 100 + i, nullptr,
                     &rungs.emplace_back());
      ReportRung(rungs.back());
    }
    runner.Restore();
    CheckFinalView(&runner, r);
    // Sustained rate: the achieved rate at the highest rung of the ladder's
    // passing prefix (the lowest rung's when none passes), moved toward
    // the first failing rung by the share of latency headroom left
    // (rate interpolated log-linearly against the query tail). A rung whose
    // tail drifts across the limit then moves the figure smoothly instead
    // of by a whole rung.
    double sustained = rungs.front().achieved_rate;
    std::size_t highest = 0;
    bool any_passed = false;
    for (std::size_t i = 0; i < rungs.size() && rungs[i].passed; ++i) {
      highest = i;
      any_passed = true;
    }
    if (any_passed) {
      const RungResult& pass = rungs[highest];
      sustained = pass.achieved_rate;
      if (highest + 1 < rungs.size()) {
        const RungResult& fail = rungs[highest + 1];
        const bool tail_failed = fail.failed == 0 && fail.abandoned == 0 &&
                                 fail.query.tail > kQueryLimitS;
        const double share =
            tail_failed ? std::clamp((kQueryLimitS - pass.query.tail) /
                                         (fail.query.tail - pass.query.tail),
                                     0.0, 1.0)
                        : 0.0;
        sustained *= std::pow(fail.rate / pass.rate, share);
      }
      std::printf("  highest passing rung %.1f/s (limit %.3gms on the "
                  "query p99); sustained %.1f/s\n",
                  pass.rate, kQueryLimitS * 1e3, sustained);
    }
    const RungResult& reference = rungs.front();
    ReportJobTimes(reference.phase, r);
    r->SetSummary("query_s", reference.query, "s");
    r->SetSummary("commit_s", reference.write, "s");
    r->Set("sustained_rps", sustained, "1/s");
  } else {
    RungResult untraced, traced;
    runner.RunRung(kLadder[0], options.seconds / 2, options.seed * 100,
                   nullptr, &untraced);
    ReportRung(untraced);
    runner.RunRung(kLadder[0], options.seconds / 2, options.seed * 100,
                   ctx->tracer, &traced);
    ReportRung(traced);
    runner.Restore();
    CheckFinalView(&runner, r);
    ReportTraceOverhead(traced.phase, untraced.phase, r);
    totals.generator_lag_s = traced.lag_s;
    totals.live_epochs_max = runner.live_epochs_max();
    // The eval, core and incr layers on the served program and graph; the
    // incremental sweep replays the serve write batches on a twin view.
    EvalInput input;
    input.id = "serve-tc";
    input.program_text = kTcProgram;
    input.facts_text = setup.facts_text;
    input.idb_preds = {"path"};
    for (int k = 0; k < kConnections; ++k) {
      for (int rep = 0; rep < 6; ++rep) input.edit_facts.push_back(WriteEdge(k));
    }
    input.query_text = "path(1, x)";
    SweepEval(input, ReferenceClosureDigest(setup.edges), &totals, ctx);
    SweepCore(input.id, input.program_text, &totals, ctx);
    std::unique_ptr<datalog::MaterializedView> twin =
        SweepIncr(input, &totals, ctx);
    if (twin) {
      const datalog::Database snapshot = twin->db();
      SweepSnapshotQueries(snapshot, input.query_text, 200, &totals, ctx);
    }
  }
  setup.server->Stop();
  const datalog::ServerStats stats = setup.server->Stats();
  if (stats.errors != 0) {
    r->Fail("server reported " + std::to_string(stats.errors) + " errors");
  }
  if (options.trace) {
    RecordServerStats(stats, &totals);
    ReportLayers(totals, ctx);
  }
}

}  // namespace perfbench
