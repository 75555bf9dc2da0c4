// End-to-end tests of the datalog-opt command-line tool. The binary path
// is injected by CMake as DATALOG_CLI_PATH.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "gtest/gtest.h"

namespace datalog {
namespace {

#ifndef DATALOG_CLI_PATH
#define DATALOG_CLI_PATH "datalog-opt"
#endif

/// Runs the CLI with `args`, capturing stdout; returns the exit code.
int RunCli(const std::string& args, std::string* stdout_text) {
  std::string command = std::string(DATALOG_CLI_PATH) + " " + args +
                        " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buffer[4096];
  stdout_text->clear();
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    *stdout_text += buffer;
  }
  int status = pclose(pipe);
  return WEXITSTATUS(status);
}

/// Writes `content` to a fresh temp file and returns its path.
std::string WriteTemp(const std::string& name, const std::string& content) {
  std::string path = ::testing::TempDir() + "/datalog_cli_" + name;
  std::ofstream out(path);
  out << content;
  return path;
}

TEST(CliTest, MinimizeRemovesRedundantAtom) {
  std::string program = WriteTemp("min.dl",
                                  "g(x, z) :- a(x, z), a(x, q).\n"
                                  "g(x, z) :- a(x, y), g(y, z).\n");
  std::string out;
  int code = RunCli("minimize " + program, &out);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("g(x, z) :- a(x, z).\n"), std::string::npos) << out;
  EXPECT_EQ(out.find("a(x, q)"), std::string::npos) << out;
}

TEST(CliTest, OptimizeFindsExample18) {
  std::string program = WriteTemp("opt.dl",
                                  "g(x, z) :- a(x, z).\n"
                                  "g(x, z) :- g(x, y), g(y, z), a(y, w).\n");
  std::string out;
  int code = RunCli("optimize " + program, &out);
  EXPECT_EQ(code, 0);
  EXPECT_EQ(out,
            "g(x, z) :- a(x, z).\n"
            "g(x, z) :- g(x, y), g(y, z).\n");
}

TEST(CliTest, EvalComputesFixpoint) {
  std::string program = WriteTemp("eval.dl",
                                  "g(x, z) :- a(x, z).\n"
                                  "g(x, z) :- a(x, y), g(y, z).\n");
  std::string facts = WriteTemp("eval_facts.dl", "a(1, 2). a(2, 3).");
  std::string out;
  int code = RunCli("eval " + program + " " + facts, &out);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("g(1, 3)."), std::string::npos) << out;
}

TEST(CliTest, EvalThreadsFlagMatchesSequentialOutput) {
  std::string program = WriteTemp("evalp.dl",
                                  "g(x, z) :- a(x, z).\n"
                                  "g(x, z) :- a(x, y), g(y, z).\n");
  std::string facts = WriteTemp("evalp_facts.dl", "a(1, 2). a(2, 3). a(3, 4).");
  std::string sequential;
  ASSERT_EQ(RunCli("eval " + program + " " + facts, &sequential), 0);
  std::string parallel;
  int code =
      RunCli("eval " + program + " " + facts + " --threads 4", &parallel);
  EXPECT_EQ(code, 0);
  EXPECT_EQ(parallel, sequential);
  // The flag position is free, and garbage thread counts are rejected.
  ASSERT_EQ(RunCli("eval --threads 2 " + program + " " + facts, &parallel),
            0);
  EXPECT_EQ(parallel, sequential);
  std::string ignored;
  EXPECT_EQ(RunCli("eval " + program + " " + facts + " --threads bogus",
                   &ignored),
            2);
  EXPECT_EQ(RunCli("eval " + program + " " + facts + " --threads -1",
                   &ignored),
            2);
  EXPECT_EQ(RunCli("eval " + program + " " + facts + " --threads", &ignored),
            2);
}

TEST(CliTest, QueryAnswersBoundQuery) {
  std::string program = WriteTemp("q.dl",
                                  "g(x, z) :- a(x, z).\n"
                                  "g(x, z) :- a(x, y), g(y, z).\n");
  std::string facts = WriteTemp("q_facts.dl", "a(1, 2). a(2, 3). a(5, 6).");
  std::string out;
  int code = RunCli("query " + program + " " + facts + " 'g(1, x).'", &out);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("g(1, 2)."), std::string::npos) << out;
  EXPECT_NE(out.find("g(1, 3)."), std::string::npos) << out;
  EXPECT_EQ(out.find("g(5, 6)"), std::string::npos) << out;
}

TEST(CliTest, ContainsReportsWitness) {
  std::string p1 = WriteTemp("c1.dl",
                             "g(x, z) :- a(x, z).\n"
                             "g(x, z) :- a(x, y), g(y, z).\n");
  std::string p2 = WriteTemp("c2.dl",
                             "g(x, z) :- a(x, z).\n"
                             "g(x, z) :- g(x, y), g(y, z).\n");
  std::string out;
  // P2 (doubly recursive) is NOT uniformly contained in P1 (linear).
  int code = RunCli("contains " + p1 + " " + p2, &out);
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("NOT uniformly contained"), std::string::npos) << out;
  EXPECT_NE(out.find("counterexample"), std::string::npos) << out;
  // The other direction holds.
  code = RunCli("contains " + p2 + " " + p1, &out);
  EXPECT_EQ(code, 0);
}

TEST(CliTest, ProveRunsTheRecipe) {
  std::string p1 = WriteTemp("pr1.dl",
                             "g(x, z) :- a(x, z).\n"
                             "g(x, z) :- g(x, y), g(y, z), a(y, w).\n");
  std::string p2 = WriteTemp("pr2.dl",
                             "g(x, z) :- a(x, z).\n"
                             "g(x, z) :- g(x, y), g(y, z).\n");
  std::string tgds = WriteTemp("pr_t.dl", "g(x, z) -> a(x, w).\n");
  std::string out;
  int code = RunCli("prove " + p1 + " " + p2 + " " + tgds, &out);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("proved"), std::string::npos) << out;
}

TEST(CliTest, ProveVerboseNarratesChase) {
  std::string p1 = WriteTemp("pv1.dl",
                             "g(x, z) :- a(x, z).\n"
                             "g(x, z) :- g(x, y), g(y, z), a(y, w).\n");
  std::string p2 = WriteTemp("pv2.dl",
                             "g(x, z) :- a(x, z).\n"
                             "g(x, z) :- g(x, y), g(y, z).\n");
  std::string tgds = WriteTemp("pv_t.dl", "g(x, z) -> a(x, w).\n");
  std::string out;
  int code = RunCli("prove " + p1 + " " + p2 + " " + tgds + " -v", &out);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("chasing the frozen body"), std::string::npos) << out;
  EXPECT_NE(out.find("tgd 0"), std::string::npos) << out;
}

TEST(CliTest, MinimizeSatUsesConstraints) {
  std::string program = WriteTemp("ms.dl",
                                  "g(x, z) :- a(x, z).\n"
                                  "g(x, z) :- g(x, y), g(y, z), a(y, w).\n");
  std::string tgds = WriteTemp("ms_t.dl", "g(x, z) -> a(x, w).\n");
  std::string out;
  int code = RunCli("minimize-sat " + program + " " + tgds, &out);
  EXPECT_EQ(code, 0);
  EXPECT_EQ(out.find("a(y, w)"), std::string::npos) << out;
}

TEST(CliTest, ExplainPrintsDerivation) {
  std::string program = WriteTemp("ex.dl",
                                  "g(x, z) :- a(x, z).\n"
                                  "g(x, z) :- a(x, y), g(y, z).\n");
  std::string facts = WriteTemp("ex_facts.dl", "a(1, 2). a(2, 3).");
  std::string out;
  int code = RunCli("explain " + program + " " + facts + " 'g(1, 3)'", &out);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("[rule"), std::string::npos) << out;
  EXPECT_NE(out.find("[input]"), std::string::npos) << out;
}

TEST(CliTest, PlanShowsPipelineStages) {
  std::string program = WriteTemp("plan.dl",
                                  "g(x, z) :- a(x, z), a(x, q).\n"
                                  "g(x, z) :- a(x, y), g(y, z).\n"
                                  "noise(x) :- b(x).\n");
  std::string out;
  int code = RunCli("plan " + program + " 'g(1, x).'", &out);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("after relevance restriction (2 of 3 rules)"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("after minimization (1 atoms"), std::string::npos) << out;
  EXPECT_NE(out.find("magic-sets rewrite"), std::string::npos) << out;
}

TEST(CliTest, AnalyzeReportsStructure) {
  std::string program = WriteTemp("an.dl",
                                  "g(x, z) :- a(x, z).\n"
                                  "g(x, z) :- g(x, y), g(y, z).\n");
  std::string out;
  int code = RunCli("analyze " + program, &out);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("recursive:    yes"), std::string::npos) << out;
  EXPECT_NE(out.find("linear:       no"), std::string::npos) << out;
}

TEST(CliTest, IncrAppliesUpdateScriptAndAnswersQueries) {
  std::string program = WriteTemp("incr.dl",
                                  "path(x, y) :- edge(x, y).\n"
                                  "path(x, z) :- path(x, y), edge(y, z).\n");
  std::string facts = WriteTemp("incr_facts.dl", "edge(1, 2). edge(2, 3).");
  std::string script = WriteTemp("incr.script",
                                 "% extend the chain, then cut the middle\n"
                                 "+edge(3, 4)\n"
                                 "commit\n"
                                 "?path(1, x)\n"
                                 "-edge(2, 3)\n"
                                 "?path(1, x)\n");
  std::string out;
  int code = RunCli("incr " + program + " " + facts + " " + script, &out);
  EXPECT_EQ(code, 0);
  // First query sees 1->{2,3,4}; after -edge(2,3) only path(1,2) is left.
  EXPECT_NE(out.find("path(1, 4).\npath(1, 2).\n"), std::string::npos) << out;
  std::size_t last = out.rfind("path(1, 2).");
  EXPECT_NE(last, std::string::npos);
  EXPECT_EQ(out.find("path(1, 3).", last), std::string::npos) << out;
}

TEST(CliTest, IncrThreadsFlagMatchesSequentialOutput) {
  std::string program = WriteTemp("incr_t.dl",
                                  "path(x, y) :- edge(x, y).\n"
                                  "path(x, z) :- path(x, y), edge(y, z).\n");
  std::string facts = WriteTemp("incr_t_facts.dl",
                                "edge(1, 2). edge(2, 3). edge(3, 1).");
  std::string script = WriteTemp("incr_t.script",
                                 "-edge(2, 3)\n+edge(2, 4)\n?path(x, y)\n");
  std::string seq;
  std::string par;
  EXPECT_EQ(
      RunCli("incr " + program + " " + facts + " " + script, &seq), 0);
  EXPECT_EQ(RunCli("incr --threads 4 " + program + " " + facts + " " + script,
                   &par),
            0);
  EXPECT_EQ(seq, par);
  EXPECT_FALSE(seq.empty());
}

TEST(CliTest, IncrRejectsMalformedScript) {
  std::string program = WriteTemp("incr_bad.dl", "p(x) :- e(x).\n");
  std::string facts = WriteTemp("incr_bad_facts.dl", "e(1).");
  std::string script = WriteTemp("incr_bad.script", "e(2)\n");
  std::string out;
  EXPECT_NE(RunCli("incr " + program + " " + facts + " " + script, &out), 0);
}

TEST(CliTest, BadUsageExitsNonZero) {
  std::string out;
  EXPECT_NE(RunCli("", &out), 0);
  EXPECT_NE(RunCli("frobnicate /nonexistent", &out), 0);
  EXPECT_NE(RunCli("minimize /nonexistent-file.dl", &out), 0);
}

TEST(CliTest, UnknownFlagIsAUsageError) {
  std::string program = WriteTemp("flag.dl", "g(x) :- a(x).\n");
  std::string facts = WriteTemp("flag_facts.dl", "a(1).");
  std::string out;
  // A removed flag and a misspelled one, after or between positionals.
  EXPECT_EQ(RunCli("eval " + program + " " + facts + " --no-bytecode", &out),
            2);
  EXPECT_EQ(out, "");
  EXPECT_EQ(RunCli("eval --bogus-flag " + program + " " + facts, &out), 2);
  EXPECT_EQ(RunCli("minimize " + program + " --bogus-flag", &out), 2);
  // The flags every command takes still pass.
  EXPECT_EQ(RunCli("eval " + program + " " + facts + " --threads 2", &out), 0);
  EXPECT_EQ(out, "a(1).\ng(1).\n");
}

TEST(CliTest, ExtraTrailingArgumentIsAUsageError) {
  std::string program = WriteTemp("extra.dl", "g(x) :- a(x).\n");
  std::string facts = WriteTemp("extra_facts.dl", "a(1).");
  std::string tgds = WriteTemp("extra.tgd", "");
  std::string out;
  EXPECT_EQ(RunCli("eval " + program + " " + facts + " " + facts, &out), 2);
  EXPECT_EQ(out, "");
  EXPECT_EQ(RunCli("minimize " + program + " extra", &out), 2);
  EXPECT_EQ(RunCli("query " + program + " " + facts + " 'g(x).' extra", &out),
            2);
  // prove's one optional trailing argument is -v, and nothing else.
  EXPECT_EQ(
      RunCli("prove " + program + " " + program + " " + tgds + " -x", &out),
      2);
  EXPECT_EQ(RunCli("prove " + program + " " + program + " " + tgds + " -v x",
                   &out),
            2);
}

TEST(CliTest, ParseErrorsExitNonZero) {
  std::string program = WriteTemp("bad.dl", "g(x :- a(x).\n");
  std::string out;
  EXPECT_NE(RunCli("minimize " + program, &out), 0);
}

}  // namespace
}  // namespace datalog
