// Resident-service latency harness: MatchService point lookups vs the
// batch pipeline on the scale-factor corpus.
//
// Full mode builds the servable scale workflow (overlap K=3 + overlap
// coefficient 0.7 on AwardTitle, title-Jaccard decision tree), times the
// batch run as the reference, then stands up a MatchService over the right
// table and sweeps a point lookup over every left record. Every lookup is
// checked against the batch run restricted to that record — matched ids,
// provenance, candidate and sure counts — and any divergence is a HARD
// FAIL: the bench measures a service that answers bit-identically or it
// measures nothing. It then exercises the delta path (insert + remove +
// compact) and reports:
//   - per-stage p50/p99 from the service's latency rings
//     (block / vectorize / score / rules / total)
//   - lookup throughput and the service_vs_batch ratio
//     (batch wall / total lookup wall; > 1 means the resident service
//     answered the same workload faster than one batch run)
//   - ingest op costs and post-compaction index state
// Emits BENCH_serve.json in the working directory.
//
// Usage:
//   bench_serve                   full bench at SF=1, writes BENCH_serve.json
//   bench_serve --sf=N            full bench at scale factor N
//   bench_serve --smoke BASELINE  tiny corpus; verifies service == batch for
//                                 every record and compares the measured
//                                 "service_vs_batch" ratio against BASELINE,
//                                 exiting 1 on a >2x relative regression

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/smoke_gate.h"
#include "src/block/overlap_blocker.h"
#include "src/core/executor.h"
#include "src/datagen/scale_corpus.h"
#include "src/feature/feature.h"
#include "src/ml/decision_tree.h"
#include "src/serve/match_service.h"
#include "src/workflow/em_workflow.h"

namespace {

using namespace emx;

double OnceMs(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// The same serve-compatible workflow the oracle tests use: both blockers
// share one delta token index inside the service; the matcher path runs
// block -> vectorize -> score for every lookup (no sure rules).
EmWorkflow BuildScaleWorkflow() {
  EmWorkflow wf;
  OverlapBlockerOptions opts;
  opts.left_attr = "AwardTitle";
  opts.right_attr = "AwardTitle";
  opts.lowercase = true;
  wf.AddBlocker(std::make_shared<OverlapBlocker>(opts, 3));
  wf.AddBlocker(std::make_shared<OverlapCoefficientBlocker>(opts, 0.7));
  FeatureSet features;
  features.features.push_back(
      MakeJaccardFeature("AwardTitle", "AwardTitle", /*qgram=*/0,
                         /*lowercase=*/true));
  Dataset d;
  d.feature_names = features.names();
  d.x = {{1.0}, {0.8}, {0.3}, {0.0}};
  d.y = {1, 1, 0, 0};
  FeatureMatrix m;
  m.feature_names = d.feature_names;
  m.rows = d.x;
  MeanImputer imputer;
  imputer.Fit(m);
  auto tree = std::make_shared<DecisionTreeMatcher>();
  if (!tree->Fit(d).ok()) std::abort();
  wf.SetMatcher(std::move(tree), std::move(features), std::move(imputer));
  return wf;
}

// Batch answer for one left record, for the divergence check.
struct Slice {
  std::map<uint32_t, std::string> matches;
  size_t candidates = 0;
  size_t sure = 0;
};

std::vector<Slice> SliceByLeft(const WorkflowRunResult& run,
                               size_t left_rows) {
  std::vector<Slice> out(left_rows);
  for (const RecordPair& p : run.final_matches) {
    out[p.left].matches[p.right] = run.provenance.ProvenanceOf(p);
  }
  for (const RecordPair& p : run.candidates) ++out[p.left].candidates;
  for (const RecordPair& p : run.sure_matches) ++out[p.left].sure;
  return out;
}

// Lookup vs batch slice; divergence is fatal (prints and returns false).
bool CheckLookup(const MatchService& svc, const Table& left, size_t q,
                 const Slice& want, LookupResult* out) {
  auto result = svc.Lookup(left, q);
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL: lookup %zu failed: %s\n", q,
                 result.status().ToString().c_str());
    return false;
  }
  std::map<uint32_t, std::string> got;
  for (const RankedMatch& m : result->matches) got[m.record] = m.provenance;
  if (got != want.matches || result->num_candidates != want.candidates ||
      result->num_sure != want.sure) {
    std::fprintf(stderr,
                 "FATAL: lookup %zu diverged from batch (matches %zu vs %zu, "
                 "candidates %zu vs %zu, sure %zu vs %zu)\n",
                 q, got.size(), want.matches.size(), result->num_candidates,
                 want.candidates, result->num_sure, want.sure);
    return false;
  }
  if (out) *out = std::move(result).value();
  return true;
}

struct BenchResult {
  double sf = 0;
  size_t rows_per_side = 0;
  double batch_ms = 0;         // one full batch pipeline run
  double create_ms = 0;        // MatchService::Create (prep + index build)
  double lookup_total_ms = 0;  // sweep over every left record
  size_t lookups = 0;
  size_t total_matches = 0;
  double insert_ms = 0;  // per-op mean over the ingest burst
  double remove_ms = 0;
  double compact_ms = 0;
  MatchServiceStats stats;  // latency rings + index state after the sweep
  double service_vs_batch() const {
    return lookup_total_ms > 0 ? batch_ms / lookup_total_ms : 0;
  }
};

// Runs the full sweep at one scale factor. `stride` > 1 checks a subset of
// records against the oracle (the sweep still times every lookup).
bool RunAt(double sf, size_t check_stride, BenchResult* out) {
  ScaleCorpusOptions options;
  options.scale_factor = sf;
  auto corpus = GenerateScaleCorpus(options);
  if (!corpus.ok()) {
    std::fprintf(stderr, "datagen failed: %s\n",
                 corpus.status().ToString().c_str());
    return false;
  }
  EmWorkflow wf = BuildScaleWorkflow();

  out->sf = sf;
  out->rows_per_side = corpus->right.num_rows();

  WorkflowRunResult run;
  out->batch_ms = OnceMs([&] {
    auto r = wf.Run(corpus->left, corpus->right);
    if (!r.ok()) std::abort();
    run = std::move(r).value();
  });
  std::vector<Slice> oracle = SliceByLeft(run, corpus->left.num_rows());

  std::unique_ptr<MatchService> svc;
  out->create_ms = OnceMs([&] {
    auto created = MatchService::Create(wf, corpus->right);
    if (!created.ok()) {
      std::fprintf(stderr, "Create failed: %s\n",
                   created.status().ToString().c_str());
      std::abort();
    }
    svc = std::move(created).value();
  });

  // Warm thread-local scratch so the timed sweep measures steady state.
  (void)svc->Lookup(corpus->left, 0);

  bool ok = true;
  out->lookup_total_ms = OnceMs([&] {
    for (size_t q = 0; q < corpus->left.num_rows(); ++q) {
      LookupResult r;
      if (q % check_stride == 0) {
        if (!CheckLookup(*svc, corpus->left, q, oracle[q], &r)) {
          ok = false;
          return;
        }
      } else {
        auto res = svc->Lookup(corpus->left, q);
        if (!res.ok()) {
          ok = false;
          return;
        }
        r = std::move(res).value();
      }
      out->total_matches += r.matches.size();
      ++out->lookups;
    }
  });
  if (!ok) return false;

  // Ingest burst: clone rows from the right table, then remove them — the
  // delta postings + tombstones force at least one compaction pass.
  const size_t burst = std::min<size_t>(200, corpus->right.num_rows());
  std::vector<uint32_t> ids;
  out->insert_ms = OnceMs([&] {
                    for (size_t i = 0; i < burst; ++i) {
                      auto id = svc->Insert(corpus->right.Row(i));
                      if (!id.ok()) std::abort();
                      ids.push_back(*id);
                    }
                  }) /
                  static_cast<double>(burst);
  out->remove_ms = OnceMs([&] {
                    for (uint32_t id : ids) {
                      if (!svc->Remove(id).ok()) std::abort();
                    }
                  }) /
                  static_cast<double>(burst);
  out->compact_ms = OnceMs([&] { svc->Compact(); });

  out->stats = svc->Stats();
  return true;
}

void PrintLatency(const char* stage, const LatencySummary& s) {
  std::printf("  %-10s p50=%8.1fus  p99=%8.1fus  (n=%llu)\n", stage, s.p50_us,
              s.p99_us, static_cast<unsigned long long>(s.count));
}

int WriteJson(const BenchResult& r) {
  std::FILE* f = std::fopen("BENCH_serve.json", "w");
  if (!f) return 1;
  const MatchServiceStats& s = r.stats;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"host_cpus\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"sf\": %g,\n", r.sf);
  std::fprintf(f, "  \"rows_per_side\": %zu,\n", r.rows_per_side);
  std::fprintf(f, "  \"batch_ms\": %.1f,\n", r.batch_ms);
  std::fprintf(f, "  \"create_ms\": %.1f,\n", r.create_ms);
  std::fprintf(f, "  \"lookup_total_ms\": %.1f,\n", r.lookup_total_ms);
  std::fprintf(f, "  \"lookups\": %zu,\n", r.lookups);
  std::fprintf(f, "  \"total_matches\": %zu,\n", r.total_matches);
  std::fprintf(f, "  \"service_vs_batch\": %.3f,\n", r.service_vs_batch());
  std::fprintf(f, "  \"insert_us\": %.1f,\n", r.insert_ms * 1000.0);
  std::fprintf(f, "  \"remove_us\": %.1f,\n", r.remove_ms * 1000.0);
  std::fprintf(f, "  \"compact_ms\": %.2f,\n", r.compact_ms);
  std::fprintf(f, "  \"compactions\": %llu,\n",
               static_cast<unsigned long long>(s.compactions));
  std::fprintf(f, "  \"latency_us\": {\n");
  const struct {
    const char* name;
    const LatencySummary* s;
  } stages[] = {{"block", &s.block},
                {"vectorize", &s.vectorize},
                {"score", &s.score},
                {"rules", &s.rules},
                {"total", &s.total}};
  for (size_t i = 0; i < 5; ++i) {
    std::fprintf(f, "    \"%s\": {\"p50\": %.1f, \"p99\": %.1f}%s\n",
                 stages[i].name, stages[i].s->p50_us, stages[i].s->p99_us,
                 i + 1 == 5 ? "" : ",");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_serve.json\n");
  return 0;
}

int RunFull(double sf) {
  BenchResult r;
  // Full mode verifies a 1-in-7 sample against the oracle; the tests cover
  // every record, the bench's check is a tripwire against bad builds.
  if (!RunAt(sf, /*check_stride=*/7, &r)) return 1;
  std::printf(
      "sf=%-4g rows/side=%-7zu batch=%.0fms create=%.0fms "
      "lookups=%zu in %.0fms (%.2fms/lookup)  matches=%zu\n",
      r.sf, r.rows_per_side, r.batch_ms, r.create_ms, r.lookups,
      r.lookup_total_ms,
      r.lookup_total_ms / static_cast<double>(std::max<size_t>(1, r.lookups)),
      r.total_matches);
  std::printf("  service_vs_batch: %.3fx   insert=%.0fus remove=%.0fus "
              "compact=%.1fms compactions=%llu\n",
              r.service_vs_batch(), r.insert_ms * 1000.0, r.remove_ms * 1000.0,
              r.compact_ms,
              static_cast<unsigned long long>(r.stats.compactions));
  PrintLatency("block", r.stats.block);
  PrintLatency("vectorize", r.stats.vectorize);
  PrintLatency("score", r.stats.score);
  PrintLatency("rules", r.stats.rules);
  PrintLatency("total", r.stats.total);
  return WriteJson(r);
}

// --- smoke mode ------------------------------------------------------------

int RunSmoke(const char* baseline_path) {
  double baseline = 0;
  if (!bench::ReadBaseline(baseline_path, "service_vs_batch", &baseline)) {
    return 1;
  }
  // Tiny corpus, EVERY record oracle-checked: the smoke gate is first a
  // correctness gate (any divergence exits 1 inside RunAt) and only then a
  // latency-ratio gate.
  BenchResult r;
  if (!RunAt(/*sf=*/0.2, /*check_stride=*/1, &r)) {
    std::fprintf(stderr, "smoke: FAIL — service diverged from batch\n");
    return 1;
  }
  double measured = r.service_vs_batch();
  std::printf(
      "smoke: rows/side=%zu lookups=%zu matches=%zu batch=%.1fms "
      "sweep=%.1fms\n",
      r.rows_per_side, r.lookups, r.total_matches, r.batch_ms,
      r.lookup_total_ms);
  std::printf("smoke: measured service_vs_batch %.3fx, baseline %.3fx\n",
              measured, baseline);
  if (r.total_matches == 0) {
    std::fprintf(stderr, "smoke: FAIL — sweep produced zero matches "
                         "(vacuous oracle)\n");
    return 1;
  }
  return bench::SmokeGate(measured, baseline, "service_vs_batch",
                          "lookup path regressed");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--smoke") == 0) {
    return RunSmoke(argv[2]);
  }
  double sf = 1.0;
  if (argc == 2 && std::strncmp(argv[1], "--sf=", 5) == 0) {
    sf = std::strtod(argv[1] + 5, nullptr);
    if (sf <= 0) {
      std::fprintf(stderr, "bad --sf\n");
      return 1;
    }
  } else if (argc != 1) {
    std::fprintf(stderr, "usage: %s [--sf=N | --smoke BASELINE.json]\n",
                 argv[0]);
    return 1;
  }
  return RunFull(sf);
}
