#ifndef EMX_WORKFLOW_EM_WORKFLOW_H_
#define EMX_WORKFLOW_EM_WORKFLOW_H_

#include <memory>
#include <string>
#include <vector>

#include "src/block/blocker.h"
#include "src/block/candidate_set.h"
#include "src/core/executor.h"
#include "src/core/result.h"
#include "src/feature/feature_gen.h"
#include "src/feature/vectorizer.h"
#include "src/ml/matcher.h"
#include "src/prep/prepared_column.h"
#include "src/rules/match_rules.h"
#include "src/workflow/match_set.h"

namespace emx {

// One run of the paper's workflow topology over a (left, right) table pair
// — Figure 10's shape, which degrades gracefully to Figures 8/9 when the
// positive-rule / negative-rule stages are empty:
//
//   positive rules --------------------> sure matches C1
//   blockers (unioned) + C1 -----------> candidate set C2
//   C = C2 - C1 --vectorize--matcher---> predicted R
//   R - negative rules ----------------> S
//   final = C1 ∪ S
struct WorkflowRunResult {
  CandidateSet sure_matches;     // C1
  CandidateSet candidates;       // C2 (blockers ∪ C1)
  CandidateSet ml_input;         // C2 − C1
  CandidateSet ml_predicted;     // R
  CandidateSet flipped;          // R ∩ negative-rule firings
  CandidateSet after_rules;      // S = R − flipped
  CandidateSet final_matches;    // C1 ∪ S
  MatchSet provenance;           // tags: "sure_rule" / "ml"
};

// A fully configured end-to-end EM workflow. Stages are optional:
// a workflow with only positive rules is the §10 "patch" workflow; one with
// only blockers+matcher is Figure 8.
class EmWorkflow {
 public:
  EmWorkflow() = default;

  void AddPositiveRule(MatchRule rule) {
    positive_rules_.push_back(std::move(rule));
  }
  // Registers a blocker and hands it the workflow's shared prep cache, so
  // blockers over the same (attribute, tokenizer, normalization) — e.g. the
  // paper's overlap + overlap-coefficient pair on Title — share a single
  // tokenized-column pass and one token-id universe.
  void AddBlocker(std::shared_ptr<Blocker> blocker) {
    blocker->set_prep_cache(prep_cache_);
    blockers_.push_back(std::move(blocker));
  }
  void AddNegativeRule(MatchRule rule) {
    negative_rules_.push_back(std::move(rule));
  }

  // Installs the trained ML stage. The imputer must already be fitted on
  // the training matrix so production pairs are imputed with TRAINING
  // means (the §9 procedure).
  void SetMatcher(std::shared_ptr<MlMatcher> matcher, FeatureSet features,
                  MeanImputer imputer);

  // Executor every stage of Run executes on: the blockers fan out across
  // it (unioned deterministically in registration order), vectorization
  // fills feature rows on it, and the installed matcher inherits it for
  // its own internal parallelism. Default: the shared pool. The workflow's
  // OUTPUT is identical at any thread count — parallelism here is pure
  // wall-clock.
  void SetExecutor(const ExecutorContext& ctx);
  const ExecutorContext& executor_context() const { return exec_ctx_; }

  const std::vector<MatchRule>& positive_rules() const {
    return positive_rules_;
  }
  const std::vector<MatchRule>& negative_rules() const {
    return negative_rules_;
  }
  // Read access to the configured stages, in registration order — the
  // handoff surface MatchService::Create consumes to package a trained
  // batch workflow into a resident serving instance.
  const std::vector<std::shared_ptr<Blocker>>& blockers() const {
    return blockers_;
  }
  const std::shared_ptr<MlMatcher>& matcher() const { return matcher_; }
  const FeatureSet& features() const { return features_; }
  const MeanImputer& imputer() const { return imputer_; }

  // Executes all configured stages on one table pair. Composed from the
  // per-stage entry points below; PipelineRunner (pipeline_runner.h) drives
  // the same stages with checkpoint/resume in between. Each stage carries a
  // fault-injection failpoint ("workflow/positive_rules", "workflow/block",
  // "workflow/match", "workflow/negative_rules") at its boundary.
  Result<WorkflowRunResult> Run(const Table& left, const Table& right) const;

  // Stage 1: sure matches (C1) from the positive rules; empty when none are
  // configured.
  Result<CandidateSet> RunPositiveRules(const Table& left,
                                        const Table& right) const;
  // Stage 2: the candidate set C2 = (union of blockers) ∪ `sure_matches`,
  // the token-overlap blockers merged by TokenOverlapBlocker::Group.
  Result<CandidateSet> RunBlocking(const Table& left, const Table& right,
                                   const CandidateSet& sure_matches) const;
  // Stage 3: ML predictions R over `ml_input` (C2 − C1); empty when no
  // matcher is installed or the input is empty.
  Result<CandidateSet> RunMatching(const Table& left, const Table& right,
                                   const CandidateSet& ml_input) const;
  // Stage 4: S = R − negative-rule firings; `flipped` (may be null)
  // receives R ∩ firings. Pass-through when no negative rules configured.
  Result<CandidateSet> RunNegativeRules(const Table& left, const Table& right,
                                        const CandidateSet& ml_predicted,
                                        CandidateSet* flipped) const;

  bool has_matcher() const { return matcher_ != nullptr; }

  // The workflow-scoped prep cache: one normalization + tokenization +
  // token-id pass per (column, prep config), shared by every blocker and
  // the vectorize stage, across Run calls over unchanged tables. Entries
  // key on the table's version, so a Run over an edited or rebuilt table
  // preps it afresh, and a Run (or PipelineRunner::Run) first drops the
  // entries of every table but its two (PrepCache::RetainTables);
  // checkpoint/resume never persists the cache (see DESIGN.md §8).
  const std::shared_ptr<PrepCache>& prep_cache() const { return prep_cache_; }

  // A human-readable description of the configured stages — the §12/§13
  // "how to represent the EM workflow effectively" concern: the packaged
  // workflow must be inspectable when it moves to production.
  std::string Describe() const;

 private:
  std::vector<MatchRule> positive_rules_;
  std::vector<std::shared_ptr<Blocker>> blockers_;
  std::vector<MatchRule> negative_rules_;
  std::shared_ptr<MlMatcher> matcher_;
  FeatureSet features_;
  MeanImputer imputer_;
  ExecutorContext exec_ctx_;
  std::shared_ptr<PrepCache> prep_cache_ = std::make_shared<PrepCache>();
};

// Merges branch results when a workflow is run over several input batches
// (Figure 9: original + extra records). Later results patch earlier ones.
MatchSet MergeBranches(const std::vector<const WorkflowRunResult*>& branches);

}  // namespace emx

#endif  // EMX_WORKFLOW_EM_WORKFLOW_H_
