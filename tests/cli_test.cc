#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "src/cli/cli.h"
#include "src/table/csv.h"

namespace emx {
namespace {

// Temp-file helper: writes `content` under the gtest temp dir.
std::string WriteTemp(const std::string& name, const std::string& content) {
  std::string path = ::testing::TempDir() + "/emx_cli_" + name;
  std::ofstream f(path, std::ios::binary);
  f << content;
  return path;
}

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult RunEmx(std::vector<std::string> args) {
  CliResult r;
  r.code = RunCli(args, r.out, r.err);
  return r;
}

const char* kLeftCsv =
    "RecordId,Name,City\n"
    "0,Dave Smith,Madison\n"
    "1,Joe Wilson,San Jose\n"
    "2,Dan Smith,Middleton\n";
const char* kRightCsv =
    "RecordId,Name,City\n"
    "0,David D. Smith,Madison\n"
    "1,Daniel W. Smith,Middleton\n";

TEST(CliTest, NoArgsPrintsUsage) {
  CliResult r = RunEmx({});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("usage"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  CliResult r = RunEmx({"frobnicate"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, ProfilePrintsColumnStats) {
  std::string path = WriteTemp("profile.csv", kLeftCsv);
  CliResult r = RunEmx({"profile", path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("rows=3"), std::string::npos);
  EXPECT_NE(r.out.find("City"), std::string::npos);
}

TEST(CliTest, ProfileMissingFileFails) {
  CliResult r = RunEmx({"profile", "/nonexistent.csv"});
  EXPECT_EQ(r.code, 1);
  // A missing file is NotFound (deterministic), not a transient IoError —
  // and the diagnostic names the offending path.
  EXPECT_NE(r.err.find("NotFound"), std::string::npos);
  EXPECT_NE(r.err.find("/nonexistent.csv"), std::string::npos);
}

TEST(CliTest, BlockAeWritesPairs) {
  std::string left = WriteTemp("bl.csv", kLeftCsv);
  std::string right = WriteTemp("br.csv", kRightCsv);
  std::string out_path = ::testing::TempDir() + "/emx_cli_pairs.csv";
  CliResult r = RunEmx({"block", left, right, "--method=ae", "--left-attr=City",
                     "--out=" + out_path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("kept 2 of 6"), std::string::npos);
  auto pairs = ReadCsvFile(out_path);
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(pairs->num_rows(), 2u);
}

TEST(CliTest, BlockRequiresLeftAttr) {
  std::string left = WriteTemp("bl2.csv", kLeftCsv);
  std::string right = WriteTemp("br2.csv", kRightCsv);
  CliResult r = RunEmx({"block", left, right, "--method=ae"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--left-attr"), std::string::npos);
}

TEST(CliTest, BlockRejectsUnknownMethod) {
  std::string left = WriteTemp("bl3.csv", kLeftCsv);
  std::string right = WriteTemp("br3.csv", kRightCsv);
  CliResult r =
      RunEmx({"block", left, right, "--method=magic", "--left-attr=City"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown --method"), std::string::npos);
}

// A numeric flag must parse whole and in range: one malformed value per
// parse kind (unsigned, double, seed) fails with an error naming the flag,
// as do a non-numeric compaction threshold (0 would turn compaction off)
// and a thread count with trailing junk.
TEST(CliTest, MalformedNumericFlagsFailNamingTheFlag) {
  std::string left = WriteTemp("nl.csv", kLeftCsv);
  std::string right = WriteTemp("nr.csv", kRightCsv);
  std::string out_left = ::testing::TempDir() + "/emx_cli_nl_out.csv";
  std::string out_right = ::testing::TempDir() + "/emx_cli_nr_out.csv";
  struct Case {
    std::vector<std::string> args;
    std::string flag;
  };
  std::vector<Case> cases = {
      {{"block", left, right, "--left-attr=City", "--k=abc"}, "--k"},
      {{"block", left, right, "--left-attr=City", "--method=coeff",
        "--threshold=0.7x"},
       "--threshold"},
      {{"datagen", "--sf=0.01", "--seed=-1", "--out-left=" + out_left,
        "--out-right=" + out_right},
       "--seed"},
      {{"serve", left, right, "--compact-threshold=abc"},
       "--compact-threshold"},
      {{"block", left, right, "--method=ae", "--left-attr=City",
        "--threads=4x"},
       "--threads"},
  };
  for (const Case& c : cases) {
    CliResult r = RunEmx(c.args);
    EXPECT_EQ(r.code, 1) << c.flag;
    EXPECT_NE(r.err.find(c.flag), std::string::npos) << r.err;
  }
}

TEST(CliTest, MatchEndToEnd) {
  std::string left = WriteTemp("ml.csv", kLeftCsv);
  std::string right = WriteTemp("mr.csv", kRightCsv);
  std::string pairs = WriteTemp("mp.csv",
                                "left_id,right_id\n0,0\n0,1\n2,0\n2,1\n");
  // Labels: same-city pairs are matches.
  std::string labels = WriteTemp(
      "mlabels.csv",
      "left_id,right_id,label\n0,0,yes\n0,1,no\n2,0,no\n2,1,yes\n");
  std::string out_path = ::testing::TempDir() + "/emx_cli_matches.csv";
  CliResult r = RunEmx({"match", left, right, "--pairs=" + pairs,
                     "--labels=" + labels, "--matcher=tree",
                     "--exclude=RecordId", "--out=" + out_path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("decision_tree predicted"), std::string::npos);
  auto matches = ReadCsvFile(out_path);
  ASSERT_TRUE(matches.ok());
  // Training data is tiny but cleanly separable by the City exact feature;
  // the tree should reproduce the two labeled matches.
  EXPECT_EQ(matches->num_rows(), 2u);
}

TEST(CliTest, MatchRejectsBadLabel) {
  std::string left = WriteTemp("ml2.csv", kLeftCsv);
  std::string right = WriteTemp("mr2.csv", kRightCsv);
  std::string pairs = WriteTemp("mp2.csv", "left_id,right_id\n0,0\n");
  std::string labels =
      WriteTemp("mlabels2.csv", "left_id,right_id,label\n0,0,maybe\n");
  CliResult r = RunEmx({"match", left, right, "--pairs=" + pairs,
                     "--labels=" + labels});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("bad label"), std::string::npos);
}

// Pair and label ids are checked, never trusted: a cell that is not an
// integer in [0, 2^32) is a ParseError naming the file, row and column, and
// an id past its table is an InvalidArgument naming the side and row.
TEST(CliTest, MatchRejectsBadPairAndLabelIds) {
  std::string left = WriteTemp("ml3.csv", kLeftCsv);
  std::string right = WriteTemp("mr3.csv", kRightCsv);
  std::string good_pairs =
      WriteTemp("mp3.csv", "left_id,right_id\n0,0\n0,1\n2,0\n2,1\n");
  std::string good_labels = WriteTemp(
      "mlabels3.csv",
      "left_id,right_id,label\n0,0,yes\n0,1,no\n2,0,no\n2,1,yes\n");
  struct Case {
    std::string pairs;
    std::string labels;
    std::vector<std::string> needles;
  };
  const std::vector<Case> cases = {
      // Row 5000000 of a two-row right table.
      {WriteTemp("mp3_far.csv", "left_id,right_id\n0,0\n0,5000000\n"),
       good_labels,
       {"InvalidArgument", "right row 5000000"}},
      {good_pairs,
       WriteTemp("mlabels3_neg.csv",
                 "left_id,right_id,label\n0,0,yes\n-1,1,no\n"),
       {"ParseError", "mlabels3_neg.csv", "row 1", "left_id", "'-1'"}},
      // Used to read as row 0 and be scored.
      {WriteTemp("mp3_abc.csv", "left_id,right_id\n0,0\nabc,1\n"),
       good_labels,
       {"ParseError", "mp3_abc.csv", "row 1", "left_id", "'abc'"}},
  };
  for (const Case& c : cases) {
    CliResult r = RunEmx({"match", left, right, "--pairs=" + c.pairs,
                          "--labels=" + c.labels, "--exclude=RecordId"});
    EXPECT_EQ(r.code, 1) << r.out;
    for (const std::string& needle : c.needles) {
      EXPECT_NE(r.err.find(needle), std::string::npos)
          << "missing '" << needle << "' in: " << r.err;
    }
  }
}

TEST(CliTest, DedupeFindsDuplicateRows) {
  std::string table = WriteTemp(
      "dedupe.csv",
      "Name\nDave Smith\nJoe Wilson\nDave Smith\n");
  std::string out_path = ::testing::TempDir() + "/emx_cli_dupes.csv";
  CliResult r = RunEmx({"dedupe", table, "--left-attr=Name", "--method=ae",
                        "--out=" + out_path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("found 1 potential duplicate"), std::string::npos);
  auto pairs = ReadCsvFile(out_path);
  ASSERT_TRUE(pairs.ok());
  ASSERT_EQ(pairs->num_rows(), 1u);
  EXPECT_EQ(pairs->at(0, "left_id").AsInt(), 0);
  EXPECT_EQ(pairs->at(0, "right_id").AsInt(), 2);
}

// dedupe builds its blocker as block does, so every --method is there.
TEST(CliTest, DedupeTakesEveryBlockMethod) {
  std::string table = WriteTemp(
      "dedupe3.csv", "Name\nDave Smith\nJoe Wilson\nDave J Smith\n");
  CliResult r = RunEmx({"dedupe", table, "--left-attr=Name", "--method=coeff",
                        "--threshold=0.9"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("overlap_coeff(Name,"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("found 1 potential duplicate"), std::string::npos)
      << r.out;
}

// A Jaccard threshold outside (0, 1] fails instead of reading past a row.
TEST(CliTest, JaccardThresholdZeroFails) {
  std::string left = WriteTemp("jl.csv", kLeftCsv);
  std::string right = WriteTemp("jr.csv", kRightCsv);
  const std::vector<std::vector<std::string>> commands = {
      {"block", left, right}, {"dedupe", left}};
  for (std::vector<std::string> args : commands) {
    for (const char* flag :
         {"--left-attr=Name", "--method=jaccard", "--threshold=0"}) {
      args.push_back(flag);
    }
    CliResult r = RunEmx(args);
    EXPECT_EQ(r.code, 1) << args[0];
    EXPECT_NE(r.err.find("threshold"), std::string::npos) << r.err;
  }
}

TEST(CliTest, DedupeRequiresAttr) {
  std::string table = WriteTemp("dedupe2.csv", "Name\nx\n");
  CliResult r = RunEmx({"dedupe", table});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--left-attr"), std::string::npos);
}

TEST(CliTest, EstimateComputesIntervals) {
  std::string matches = WriteTemp("em.csv", "left_id,right_id\n0,0\n1,1\n");
  std::string sample = WriteTemp(
      "es.csv",
      "left_id,right_id,label\n0,0,yes\n1,1,no\n2,2,yes\n3,3,unsure\n");
  CliResult r = RunEmx({"estimate", "--matches=" + matches,
                     "--sample=" + sample});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("precision 0.500"), std::string::npos);
  EXPECT_NE(r.out.find("recall 0.500"), std::string::npos);
  EXPECT_NE(r.out.find("1 unsure ignored"), std::string::npos);
}

TEST(CliTest, EstimateRequiresBothFlags) {
  CliResult r = RunEmx({"estimate", "--matches=x.csv"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("usage"), std::string::npos);
}

// --- emx run: end-to-end pipeline with checkpoint/resume -------------------------

std::string FreshRunDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/emx_cli_run_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

// Shared fixtures for the run tests: same-city pairs are matches, and the
// labels are cleanly separable by the City exact-match feature.
struct RunFixture {
  std::string left, right, labels, out_path;
};

RunFixture MakeRunFixture(const std::string& tag) {
  RunFixture f;
  f.left = WriteTemp("run_l_" + tag + ".csv", kLeftCsv);
  f.right = WriteTemp("run_r_" + tag + ".csv", kRightCsv);
  f.labels = WriteTemp(
      "run_lab_" + tag + ".csv",
      "left_id,right_id,label\n0,0,yes\n0,1,no\n2,0,no\n2,1,yes\n");
  f.out_path = ::testing::TempDir() + "/emx_cli_run_out_" + tag + ".csv";
  return f;
}

std::vector<std::string> RunArgs(const RunFixture& f) {
  return {"run",          f.left,
          f.right,        "--method=ae",
          "--left-attr=City", "--labels=" + f.labels,
          "--matcher=tree",   "--exclude=RecordId",
          "--out=" + f.out_path};
}

TEST(CliTest, RunEndToEndWritesProvenancedMatches) {
  RunFixture f = MakeRunFixture("e2e");
  CliResult r = RunEmx(RunArgs(f));
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("final matches"), std::string::npos);
  auto matches = ReadCsvFile(f.out_path);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->num_rows(), 2u);
  ASSERT_TRUE(matches->schema().Contains("provenance"));
  EXPECT_EQ(matches->at(0, "provenance").AsString(), "ml");
}

TEST(CliTest, RunRequiresLabels) {
  RunFixture f = MakeRunFixture("nolabels");
  CliResult r = RunEmx({"run", f.left, f.right, "--left-attr=City"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--labels"), std::string::npos);
}

TEST(CliTest, RunFailPointAbortsThenResumeIsByteIdentical) {
  RunFixture f = MakeRunFixture("resume");
  std::string ckpt = FreshRunDir("resume");

  // Uninterrupted reference output.
  RunFixture ref = MakeRunFixture("resume_ref");
  ASSERT_EQ(RunEmx(RunArgs(ref)).code, 0);
  const std::string want = ReadFileBytes(ref.out_path);
  ASSERT_FALSE(want.empty());

  // Killed at the match stage: the CLI reports the injected failure...
  std::vector<std::string> killed_args = RunArgs(f);
  killed_args.push_back("--checkpoint-dir=" + ckpt);
  killed_args.push_back("--fail-point=workflow/match:error(IoError),count=1");
  CliResult killed = RunEmx(killed_args);
  EXPECT_EQ(killed.code, 1);
  EXPECT_NE(killed.err.find("IoError"), std::string::npos);

  // ...and the resumed run completes with byte-identical output.
  std::vector<std::string> resume_args = RunArgs(f);
  resume_args.push_back("--checkpoint-dir=" + ckpt);
  resume_args.push_back("--resume");
  CliResult resumed = RunEmx(resume_args);
  EXPECT_EQ(resumed.code, 0) << resumed.err;
  EXPECT_EQ(ReadFileBytes(f.out_path), want);
}

TEST(CliTest, RunResumeReusesTrainedModel) {
  RunFixture f = MakeRunFixture("model");
  std::string ckpt = FreshRunDir("model");
  std::vector<std::string> args = RunArgs(f);
  args.push_back("--checkpoint-dir=" + ckpt);
  ASSERT_EQ(RunEmx(args).code, 0);
  args.push_back("--resume");
  CliResult resumed = RunEmx(args);
  EXPECT_EQ(resumed.code, 0) << resumed.err;
  EXPECT_NE(resumed.out.find("resumed trained model"), std::string::npos);
}

TEST(CliTest, RunRejectsBadFailPointSpec) {
  RunFixture f = MakeRunFixture("badspec");
  std::vector<std::string> args = RunArgs(f);
  args.push_back("--fail-point=no-colon-here");
  CliResult r = RunEmx(args);
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("InvalidArgument"), std::string::npos);
}

// emx serve hosts the AE blocker: each lookup answers what `emx run` over
// the same flags matched for that left record.
TEST(CliTest, ServeAnswersAeBlockerLikeRun) {
  RunFixture f = MakeRunFixture("serve_ae");
  ASSERT_EQ(RunEmx(RunArgs(f)).code, 0);
  auto run = ReadCsvFile(f.out_path);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->num_rows(), 2u);

  const std::string requests = WriteTemp(
      "serve_ae_req.jsonl",
      "{\"id\": 0, \"op\": \"lookup\", \"record\": {\"RecordId\": 0, "
      "\"Name\": \"Dave Smith\", \"City\": \"Madison\"}}\n"
      "{\"id\": 1, \"op\": \"lookup\", \"record\": {\"RecordId\": 1, "
      "\"Name\": \"Joe Wilson\", \"City\": \"San Jose\"}}\n"
      "{\"id\": 2, \"op\": \"lookup\", \"record\": {\"RecordId\": 2, "
      "\"Name\": \"Dan Smith\", \"City\": \"Middleton\"}}\n");
  CliResult r = RunEmx({"serve", f.left, f.right, "--method=ae",
                        "--left-attr=City", "--labels=" + f.labels,
                        "--matcher=tree", "--exclude=RecordId",
                        "--requests=" + requests});
  ASSERT_EQ(r.code, 0) << r.err;
  std::vector<std::string> want(3, "\"matches\":[],\"candidates\":0");
  for (size_t i = 0; i < run->num_rows(); ++i) {
    want[run->at(i, 0).AsInt()] =
        "\"matches\":[{\"record\":" + run->at(i, 1).AsString() +
        ",\"score\":1,\"provenance\":\"ml\"}],\"candidates\":1";
  }
  std::istringstream lines(r.out);
  std::string line;
  for (size_t id = 0; id < want.size(); ++id) {
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"id\":" + std::to_string(id)), std::string::npos);
    EXPECT_NE(line.find(want[id]), std::string::npos) << line;
  }
}

// A request file is replayed, not streamed: one far longer than the
// default queue (128) has every request answered in file order, with
// nothing shed, and two runs write the same bytes. Every 50th request is
// an insert, so later lookups see the grown corpus.
TEST(CliTest, ServeRequestFileAnswersEveryRequest) {
  RunFixture f = MakeRunFixture("serve_file");
  const char* names[][2] = {{"Dave Smith", "Madison"},
                            {"Joe Wilson", "San Jose"},
                            {"Dan Smith", "Middleton"}};
  const size_t n = 600;
  std::string requests;
  for (size_t i = 0; i < n; ++i) {
    requests += "{\"id\": " + std::to_string(i) + ", \"op\": \"" +
                (i % 50 == 49 ? "insert" : "lookup") +
                "\", \"record\": {\"RecordId\": " + std::to_string(i % 3) +
                ", \"Name\": \"" + names[i % 3][0] + "\", \"City\": \"" +
                names[i % 3][1] + "\"}}\n";
  }
  const std::vector<std::string> args = {
      "serve",          f.left,
      f.right,          "--method=ae",
      "--left-attr=City", "--labels=" + f.labels,
      "--matcher=tree", "--exclude=RecordId",
      "--requests=" + WriteTemp("serve_file_req.jsonl", requests)};
  CliResult first = RunEmx(args);
  CliResult second = RunEmx(args);
  ASSERT_EQ(first.code, 0) << first.err;
  ASSERT_EQ(second.code, 0) << second.err;
  EXPECT_NE(first.err.find("600 requests answered, 0 shed"),
            std::string::npos)
      << first.err;
  EXPECT_EQ(first.out, second.out);
  std::istringstream lines(first.out);
  std::string line;
  size_t id = 0;
  for (; std::getline(lines, line); ++id) {
    EXPECT_EQ(line.rfind("{\"id\":" + std::to_string(id) + ",\"ok\":true", 0),
              0u)
        << line;
  }
  EXPECT_EQ(id, n);
}

}  // namespace
}  // namespace emx
