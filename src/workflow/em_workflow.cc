#include "src/workflow/em_workflow.h"

#include <optional>

#include "src/block/overlap_blocker.h"
#include "src/core/failpoint.h"

namespace emx {

void EmWorkflow::SetMatcher(std::shared_ptr<MlMatcher> matcher,
                            FeatureSet features, MeanImputer imputer) {
  matcher_ = std::move(matcher);
  features_ = std::move(features);
  imputer_ = std::move(imputer);
  if (matcher_) matcher_->set_executor(exec_ctx_);
}

void EmWorkflow::SetExecutor(const ExecutorContext& ctx) {
  exec_ctx_ = ctx;
  if (matcher_) matcher_->set_executor(exec_ctx_);
}

Result<CandidateSet> EmWorkflow::RunPositiveRules(const Table& left,
                                                  const Table& right) const {
  EMX_FAILPOINT("workflow/positive_rules");
  if (positive_rules_.empty()) return CandidateSet();
  return ApplyRulesCartesian(positive_rules_, left, right);
}

Result<CandidateSet> EmWorkflow::RunBlocking(
    const Table& left, const Table& right,
    const CandidateSet& sure_matches) const {
  EMX_FAILPOINT("workflow/block");
  // The candidate set always includes the sure matches (the paper folds M1
  // into blocking so rule-satisfying pairs cannot be lost, §7 step 1). The
  // token-overlap blockers on one prepared column pair run as one merged
  // blocker (TokenOverlapBlocker::Group), so they share one join. The
  // blockers are independent of one another, so they fan out across the
  // executor; the union below walks their results in registration order, a
  // deterministic merge into C2. Each blocker also receives the executor
  // for its own internal chunking (nested calls serialize on the worker
  // they land on).
  const std::vector<std::shared_ptr<Blocker>> blockers =
      TokenOverlapBlocker::Group(blockers_);
  std::vector<std::optional<Result<CandidateSet>>> blocked(blockers.size());
  exec_ctx_.get().ParallelFor(
      0, blockers.size(), /*grain=*/1, [&](size_t lo, size_t hi) {
        for (size_t b = lo; b < hi; ++b) {
          blocked[b] = blockers[b]->Block(left, right, exec_ctx_);
        }
      });
  CandidateSet candidates = sure_matches;
  for (std::optional<Result<CandidateSet>>& c : blocked) {
    if (!c->ok()) return c->status();
    candidates = CandidateSet::Union(candidates, **c);
  }
  return candidates;
}

Result<CandidateSet> EmWorkflow::RunMatching(
    const Table& left, const Table& right,
    const CandidateSet& ml_input) const {
  EMX_FAILPOINT("workflow/match");
  if (matcher_ == nullptr || ml_input.empty()) return CandidateSet();
  // Columnar end to end: vectorize into a PairBatch (batch similarity
  // kernels fill feature columns), impute per column, score through the
  // matcher's batch path (flattened forest for random forests). Same
  // doubles as the row-major pipeline, bit for bit.
  EMX_ASSIGN_OR_RETURN(PairBatch batch,
                       VectorizePairsBatch(left, right, ml_input, features_,
                                           exec_ctx_, prep_cache_.get()));
  EMX_RETURN_IF_ERROR(imputer_.Transform(batch));
  std::vector<int> pred = matcher_->PredictBatch(batch);
  std::vector<RecordPair> positives;
  for (size_t i = 0; i < pred.size(); ++i) {
    if (pred[i] == 1) positives.push_back(ml_input[i]);
  }
  return CandidateSet(std::move(positives));
}

Result<CandidateSet> EmWorkflow::RunNegativeRules(
    const Table& left, const Table& right, const CandidateSet& ml_predicted,
    CandidateSet* flipped) const {
  EMX_FAILPOINT("workflow/negative_rules");
  // Negative rules flip ML matches only — sure matches are, by the UMETRICS
  // team's definition, matches (Figure 10 applies the rules to R1/R2, not
  // to C1/D1).
  if (negative_rules_.empty() || ml_predicted.empty()) {
    if (flipped != nullptr) *flipped = CandidateSet();
    return ml_predicted;
  }
  return FilterWithNegativeRules(negative_rules_, left, right, ml_predicted,
                                 flipped);
}

Result<WorkflowRunResult> EmWorkflow::Run(const Table& left,
                                          const Table& right) const {
  prep_cache_->RetainTables(left, right);
  WorkflowRunResult out;
  EMX_ASSIGN_OR_RETURN(out.sure_matches, RunPositiveRules(left, right));
  EMX_ASSIGN_OR_RETURN(out.candidates,
                       RunBlocking(left, right, out.sure_matches));
  out.ml_input = CandidateSet::Minus(out.candidates, out.sure_matches);
  EMX_ASSIGN_OR_RETURN(out.ml_predicted,
                       RunMatching(left, right, out.ml_input));
  EMX_ASSIGN_OR_RETURN(
      out.after_rules,
      RunNegativeRules(left, right, out.ml_predicted, &out.flipped));
  out.final_matches = CandidateSet::Union(out.sure_matches, out.after_rules);
  out.provenance.Add(out.sure_matches, "sure_rule");
  out.provenance.Add(out.after_rules, "ml");
  return out;
}

std::string EmWorkflow::Describe() const {
  std::string out = "EmWorkflow:\n";
  out += "  positive rules (" + std::to_string(positive_rules_.size()) + "):\n";
  for (const MatchRule& r : positive_rules_) {
    out += "    - " + r.name + "\n";
  }
  out += "  blockers (" + std::to_string(blockers_.size()) + "):\n";
  for (const auto& b : blockers_) {
    out += "    - " + b->name() + "\n";
  }
  if (matcher_ != nullptr) {
    out += "  matcher: " + matcher_->name() + " over " +
           std::to_string(features_.features.size()) + " features\n";
  } else {
    out += "  matcher: (none)\n";
  }
  out += "  negative rules (" + std::to_string(negative_rules_.size()) + "):\n";
  for (const MatchRule& r : negative_rules_) {
    out += "    - " + r.name + "\n";
  }
  return out;
}

MatchSet MergeBranches(const std::vector<const WorkflowRunResult*>& branches) {
  MatchSet merged;
  for (const WorkflowRunResult* b : branches) {
    merged.Add(b->sure_matches, "sure_rule", /*overwrite=*/true);
    merged.Add(b->after_rules, "ml", /*overwrite=*/false);
  }
  return merged;
}

}  // namespace emx
