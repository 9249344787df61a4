#include "src/workflow/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/block/candidate_set.h"
#include "src/block/overlap_blocker.h"
#include "src/core/executor.h"
#include "src/core/failpoint.h"
#include "src/datagen/case_study.h"
#include "src/ml/decision_tree.h"
#include "src/rules/match_rules.h"
#include "src/rules/number_pattern.h"
#include "src/table/csv.h"
#include "src/workflow/em_workflow.h"
#include "src/workflow/pipeline_runner.h"

namespace emx {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/emx_ckpt_" + name;
  fs::remove_all(dir);
  return dir;
}

void WriteRaw(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << content;
}

std::string ReadRaw(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

// Locates the single artifact file for `stage` inside a store directory.
std::string ArtifactFileFor(const std::string& dir, const std::string& stage) {
  for (const auto& e : fs::directory_iterator(dir)) {
    std::string name = e.path().filename().string();
    if (name.rfind(stage + "-", 0) == 0 && name.size() > 4 &&
        name.substr(name.size() - 4) == ".art") {
      return e.path().string();
    }
  }
  return "";
}

// --- hashing ---------------------------------------------------------------------

TEST(HashTest, Fnv1a64KnownVectors) {
  // Standard FNV-1a 64 test vectors.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(HashHex(0), "0000000000000000");
  EXPECT_EQ(HashHex(0xdeadbeefull), "00000000deadbeef");
}

// --- CandidateSet serialization --------------------------------------------------

TEST(CandidateSerializationTest, RoundTrips) {
  CandidateSet original(std::vector<RecordPair>{{0, 0}, {3, 1}, {2, 7}});
  std::string text = SerializeCandidateSet(original);
  auto back = DeserializeCandidateSet(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(SerializeCandidateSet(*back), text);
  EXPECT_EQ(back->size(), 3u);
  EXPECT_TRUE(back->Contains({3, 1}));
}

TEST(CandidateSerializationTest, RoundTripsEmpty) {
  auto back = DeserializeCandidateSet(SerializeCandidateSet(CandidateSet()));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(CandidateSerializationTest, RejectsMalformedInput) {
  EXPECT_EQ(DeserializeCandidateSet("").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(DeserializeCandidateSet("not-the-header\n0\n").status().code(),
            StatusCode::kParseError);
  // Count promises two pairs, body has one: truncated artifact.
  std::string truncated = "emx-candidates v1\n2\n0 0\n";
  auto r = DeserializeCandidateSet(truncated);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("truncated"), std::string::npos);
  // Garbage pair line.
  EXPECT_FALSE(
      DeserializeCandidateSet("emx-candidates v1\n1\nx y\n").ok());
  EXPECT_FALSE(
      DeserializeCandidateSet("emx-candidates v1\n1\n1 -2\n").ok());
}

// --- CheckpointStore -------------------------------------------------------------

TEST(CheckpointStoreTest, PutGetRoundTrip) {
  std::string dir = FreshDir("roundtrip");
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(store->Put("candidates", "fp1", "payload bytes").ok());
  EXPECT_TRUE(store->Has("candidates"));
  auto got = store->Get("candidates", "fp1");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "payload bytes");
}

TEST(CheckpointStoreTest, GetMissesAreNotFound) {
  std::string dir = FreshDir("misses");
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->Get("nope", "fp").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(store->Put("stage", "fp1", "v1").ok());
  // Stale fingerprint — present but computed from different inputs.
  EXPECT_EQ(store->Get("stage", "other-fp").status().code(),
            StatusCode::kNotFound);
}

TEST(CheckpointStoreTest, PersistsAcrossReopen) {
  std::string dir = FreshDir("reopen");
  {
    auto store = CheckpointStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Put("stage", "fp1", "persisted").ok());
  }
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->size(), 1u);
  auto got = store->Get("stage", "fp1");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "persisted");
}

TEST(CheckpointStoreTest, PutOverwritesPreviousVersion) {
  std::string dir = FreshDir("overwrite");
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("stage", "fp1", "old").ok());
  ASSERT_TRUE(store->Put("stage", "fp2", "new").ok());
  EXPECT_EQ(store->Get("stage", "fp1").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(*store->Get("stage", "fp2"), "new");
}

TEST(CheckpointStoreTest, WritesLeaveNoTempFiles) {
  std::string dir = FreshDir("atomic");
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("a", "fp", "one").ok());
  ASSERT_TRUE(store->Put("b", "fp", "two").ok());
  for (const auto& e : fs::directory_iterator(dir)) {
    EXPECT_EQ(e.path().extension(), e.path().filename() == "MANIFEST"
                                        ? ""
                                        : ".art")
        << "unexpected file " << e.path();
  }
}

TEST(CheckpointStoreTest, TruncatedArtifactIsCorruption) {
  std::string dir = FreshDir("truncated");
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("stage", "fp", "a longer artifact payload").ok());
  std::string artifact = ArtifactFileFor(dir, "stage");
  ASSERT_FALSE(artifact.empty());
  WriteRaw(artifact, "a longer art");  // truncate
  auto got = store->Get("stage", "fp");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(got.status().message().find("bytes"), std::string::npos);
}

TEST(CheckpointStoreTest, FlippedByteFailsChecksum) {
  std::string dir = FreshDir("bitflip");
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("stage", "fp", "pristine artifact bytes").ok());
  std::string artifact = ArtifactFileFor(dir, "stage");
  ASSERT_FALSE(artifact.empty());
  std::string bytes = ReadRaw(artifact);
  bytes[3] ^= 0x40;  // same length, different content
  WriteRaw(artifact, bytes);
  auto got = store->Get("stage", "fp");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(got.status().message().find("checksum"), std::string::npos);
}

TEST(CheckpointStoreTest, DeletedArtifactIsAnIoErrorNotACrash) {
  std::string dir = FreshDir("deleted");
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("stage", "fp", "bytes").ok());
  fs::remove(ArtifactFileFor(dir, "stage"));
  auto got = store->Get("stage", "fp");
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().code() == StatusCode::kIoError ||
              got.status().code() == StatusCode::kNotFound)
      << got.status().ToString();
}

TEST(CheckpointStoreTest, CorruptManifestYieldsEmptyStore) {
  std::string dir = FreshDir("badmanifest");
  {
    auto store = CheckpointStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Put("stage", "fp", "bytes").ok());
  }
  WriteRaw(dir + "/MANIFEST", "this is not a manifest\ngarbage\n");
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->size(), 0u);
}

TEST(CheckpointStoreTest, WriteFailpointFailsThePut) {
  std::string dir = FreshDir("wfp");
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(FailPointRegistry::Global()
                  .ArmFromSpec("checkpoint/write:error(IoError),count=1")
                  .ok());
  Status s = store->Put("stage", "fp", "bytes");
  FailPointRegistry::Global().DisarmAll();
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_FALSE(store->Has("stage"));
}

// --- PipelineRunner: checkpoint/resume end to end --------------------------------

Table PipeLeft() {
  return *ReadCsvString(
      "AwardNumber,Title\n"
      "10.1 F-100,alpha beta gamma delta\n"
      "10.2 MSN000111,epsilon zeta eta theta\n"
      "10.3 WIS00002,iota kappa lambda mu\n"
      "10.4 MSN000009,loner title entirely\n");
}

Table PipeRight() {
  return *ReadCsvString(
      "AwardNumber,ProjectNumber,Title\n"
      "F-100,WIS99999,alpha beta gamma delta\n"
      ",WIS77777,epsilon zeta eta theta\n"
      ",WIS66666,unrelated words here now\n"
      ",WIS00005,iota kappa lambda mu\n");
}

// Full Figure-10 topology: positive rule, blocker, matcher, negative rule —
// so every checkpointed stage produces non-trivial output.
EmWorkflow BuildPipelineWorkflow() {
  EmWorkflow wf;
  wf.AddPositiveRule(MakeM1AwardNumberRule("AwardNumber", "AwardNumber"));
  OverlapBlockerOptions opts;
  opts.left_attr = "Title";
  opts.right_attr = "Title";
  wf.AddBlocker(std::make_shared<OverlapBlocker>(opts, 3));
  auto suffix = [](const std::string& s) { return AwardNumberSuffix(s); };
  wf.AddNegativeRule(MakeComparableMismatchRule(
      "neg", "AwardNumber", "ProjectNumber", suffix, nullptr));

  FeatureSet features;
  features.features.push_back(MakeJaccardFeature("Title", "Title"));
  Dataset d;
  d.feature_names = features.names();
  d.x = {{1.0}, {0.9}, {0.05}, {0.0}};
  d.y = {1, 1, 0, 0};
  FeatureMatrix m;
  m.feature_names = d.feature_names;
  m.rows = d.x;
  MeanImputer imputer;
  imputer.Fit(m);
  auto tree = std::make_shared<DecisionTreeMatcher>();
  EXPECT_TRUE(tree->Fit(d).ok());
  wf.SetMatcher(std::move(tree), std::move(features), std::move(imputer));
  return wf;
}

// Bit-exact comparison key for a whole run: every stage's serialized pairs
// plus the provenance tag of every final match.
std::string RunDigest(const WorkflowRunResult& r) {
  std::string out;
  out += SerializeCandidateSet(r.sure_matches);
  out += SerializeCandidateSet(r.candidates);
  out += SerializeCandidateSet(r.ml_input);
  out += SerializeCandidateSet(r.ml_predicted);
  out += SerializeCandidateSet(r.flipped);
  out += SerializeCandidateSet(r.after_rules);
  out += SerializeCandidateSet(r.final_matches);
  for (const RecordPair& p : r.final_matches) {
    out += r.provenance.ProvenanceOf(p) + "\n";
  }
  return out;
}

class PipelineResumeTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPointRegistry::Global().DisarmAll(); }
};

TEST_F(PipelineResumeTest, MatchesDirectRunWithAndWithoutCheckpoints) {
  Table l = PipeLeft(), r = PipeRight();
  EmWorkflow wf = BuildPipelineWorkflow();
  auto direct = wf.Run(l, r);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_FALSE(direct->final_matches.empty());

  // No checkpoint dir: pure pass-through.
  auto plain = PipelineRunner(&wf).Run(l, r);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(RunDigest(*plain), RunDigest(*direct));

  // Checkpointing cold, then resuming warm — all three identical.
  PipelineOptions opts;
  opts.checkpoint_dir = FreshDir("passthrough");
  auto cold = PipelineRunner(&wf, opts).Run(l, r);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(RunDigest(*cold), RunDigest(*direct));
  opts.resume = true;
  auto warm = PipelineRunner(&wf, opts).Run(l, r);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(RunDigest(*warm), RunDigest(*direct));
}

// Kills a run of `build()`'s workflow over (l, r) at EVERY stage
// boundary, at one and at eight threads, resumes it, and demands output
// bit-identical to an uninterrupted run. `tag` keeps checkpoint
// directories apart.
void ExpectKillAtAnyStageThenResumeIsBitIdentical(
    const std::function<EmWorkflow()>& build, const Table& l, const Table& r,
    const std::string& tag) {
  const char* kStagePoints[] = {
      "workflow/positive_rules",
      "workflow/block",
      "workflow/match",
      "workflow/negative_rules",
  };
  for (size_t threads : {size_t(1), size_t(8)}) {
    Executor pool(threads);
    ExecutorContext ctx;
    ctx.executor = &pool;
    EmWorkflow wf = build();
    wf.SetExecutor(ctx);
    auto baseline = wf.Run(l, r);
    ASSERT_TRUE(baseline.ok());
    const std::string want = RunDigest(*baseline);

    for (const char* point : kStagePoints) {
      SCOPED_TRACE(tag + " " + point + " @" + std::to_string(threads) +
                   " threads");
      PipelineOptions opts;
      opts.checkpoint_dir =
          FreshDir("kill_" + tag + "_" + std::to_string(threads) + "_" +
                   std::string(point).substr(9));
      // First run dies at the armed stage...
      ASSERT_TRUE(FailPointRegistry::Global()
                      .ArmFromSpec(std::string(point) +
                                   ":error(IoError),count=1")
                      .ok());
      auto killed = PipelineRunner(&wf, opts).Run(l, r);
      FailPointRegistry::Global().DisarmAll();
      ASSERT_FALSE(killed.ok());
      EXPECT_EQ(killed.status().code(), StatusCode::kIoError);
      // ...the rerun resumes the completed prefix and finishes identically.
      opts.resume = true;
      auto resumed = PipelineRunner(&wf, opts).Run(l, r);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      EXPECT_EQ(RunDigest(*resumed), want);
    }
  }
}

// Resume is bit-identical from every stage, on the small pipeline
// workflow and on the paper's own Figure-10 workflow (V2 positive rules,
// the AE and both title blockers, the §9 trained matcher, negative
// rules) over the case study.
TEST_F(PipelineResumeTest, KillAtAnyStageThenResumeIsBitIdentical) {
  ExpectKillAtAnyStageThenResumeIsBitIdentical(BuildPipelineWorkflow,
                                               PipeLeft(), PipeRight(),
                                               "pipe");

  auto data = GenerateCaseStudy();
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  auto tables = PreprocessCaseStudy(*data);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  auto blocks = RunStandardBlocking(tables->umetrics, tables->usda);
  ASSERT_TRUE(blocks.ok()) << blocks.status().ToString();
  LabeledSet labels = CollectCorrectedLabels(
      MakeOracle(data->gold, data->ambiguous), blocks->c, 3, 100, 100);
  auto trained = TrainBestMatcher(tables->umetrics, tables->usda, labels,
                                  PositiveRulesV1(), /*case_fix=*/true);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  ExpectKillAtAnyStageThenResumeIsBitIdentical(
      [&] {
        return BuildCaseStudyWorkflow(PositiveRulesV2(), *trained,
                                      /*with_negative_rules=*/true);
      },
      tables->umetrics, tables->usda, "fig10");
}

// An injected executor-dispatch fault surfaces as a contained Internal
// error, and the rerun recovers.
TEST_F(PipelineResumeTest, ExecutorDispatchFaultIsContainedAndResumable) {
  Table l = PipeLeft(), r = PipeRight();
  Executor pool(8);
  ExecutorContext ctx;
  ctx.executor = &pool;
  EmWorkflow wf = BuildPipelineWorkflow();
  wf.SetExecutor(ctx);
  auto baseline = wf.Run(l, r);
  ASSERT_TRUE(baseline.ok());

  PipelineOptions opts;
  opts.checkpoint_dir = FreshDir("dispatch");
  ASSERT_TRUE(FailPointRegistry::Global()
                  .ArmFromSpec("executor/dispatch:error(IoError),count=1")
                  .ok());
  auto killed = PipelineRunner(&wf, opts).Run(l, r);
  FailPointRegistry::Global().DisarmAll();
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kInternal);
  EXPECT_NE(killed.status().message().find("threw"), std::string::npos);

  opts.resume = true;
  auto resumed = PipelineRunner(&wf, opts).Run(l, r);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(RunDigest(*resumed), RunDigest(*baseline));
}

// Corrupting checkpoint artifacts must never break a resume — each defect
// degrades to recomputation with identical output.
TEST_F(PipelineResumeTest, CorruptArtifactsDegradeToRecomputation) {
  Table l = PipeLeft(), r = PipeRight();
  EmWorkflow wf = BuildPipelineWorkflow();
  auto baseline = wf.Run(l, r);
  ASSERT_TRUE(baseline.ok());
  const std::string want = RunDigest(*baseline);

  PipelineOptions opts;
  opts.checkpoint_dir = FreshDir("corrupt");
  ASSERT_TRUE(PipelineRunner(&wf, opts).Run(l, r).ok());
  opts.resume = true;

  // Truncate one artifact.
  std::string candidates = ArtifactFileFor(opts.checkpoint_dir, "candidates");
  ASSERT_FALSE(candidates.empty());
  std::string pristine = ReadRaw(candidates);
  WriteRaw(candidates, pristine.substr(0, pristine.size() / 2));
  auto after_truncation = PipelineRunner(&wf, opts).Run(l, r);
  ASSERT_TRUE(after_truncation.ok()) << after_truncation.status().ToString();
  EXPECT_EQ(RunDigest(*after_truncation), want);

  // Flip a byte in another (same length, wrong checksum). The resumed run
  // above rewrote the candidates artifact, so only corrupt ml_predicted.
  std::string predicted =
      ArtifactFileFor(opts.checkpoint_dir, "ml_predicted");
  ASSERT_FALSE(predicted.empty());
  std::string bytes = ReadRaw(predicted);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x01;
  WriteRaw(predicted, bytes);
  auto after_bitflip = PipelineRunner(&wf, opts).Run(l, r);
  ASSERT_TRUE(after_bitflip.ok()) << after_bitflip.status().ToString();
  EXPECT_EQ(RunDigest(*after_bitflip), want);
}

// Changing an input table changes every fingerprint: stale checkpoints are
// ignored wholesale and the run reflects the new data.
TEST_F(PipelineResumeTest, StaleFingerprintsForceRecomputation) {
  Table l = PipeLeft(), r = PipeRight();
  EmWorkflow wf = BuildPipelineWorkflow();
  PipelineOptions opts;
  opts.checkpoint_dir = FreshDir("stale");
  ASSERT_TRUE(PipelineRunner(&wf, opts).Run(l, r).ok());

  // New right-hand table: one extra row that ML should match to left row 3.
  Table r2 = *ReadCsvString(
      "AwardNumber,ProjectNumber,Title\n"
      "F-100,WIS99999,alpha beta gamma delta\n"
      ",WIS77777,epsilon zeta eta theta\n"
      ",WIS66666,unrelated words here now\n"
      ",WIS00005,iota kappa lambda mu\n"
      ",WIS00009,loner title entirely\n");
  auto fresh = wf.Run(l, r2);
  ASSERT_TRUE(fresh.ok());
  opts.resume = true;
  auto resumed = PipelineRunner(&wf, opts).Run(l, r2);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(RunDigest(*resumed), RunDigest(*fresh));
  EXPECT_TRUE(resumed->final_matches.Contains({3, 4}));
}

}  // namespace
}  // namespace emx
