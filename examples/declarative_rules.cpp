// Declarative feature rules (the "hand-crafted rules" half of §12's
// learning+rules lesson, in the form Magellan users write them).
//
// Instead of (or alongside) a trained model, a domain expert writes
// boolean expressions over the auto-generated feature table:
//
//   match_by_title: lc_AwardTitle_jac_ws > 0.85 AND lc_EmployeeName_jac_qgm3 > 0.3
//
// This example compares three matchers on the case-study candidate set:
// expert rules alone, the trained tree alone, and "rules guard the tree"
// (tree prediction AND no negative comparability firing).
//
// Run:  ./build/examples/declarative_rules

#include <cstdio>

#include "src/datagen/case_study.h"
#include "src/eval/corleone_estimator.h"
#include "src/rules/feature_rules.h"

using namespace emx;

int main() {
  auto data = GenerateCaseStudy();
  if (!data.ok()) return 1;
  auto tables = PreprocessCaseStudy(*data);
  if (!tables.ok()) return 1;
  const Table& u = tables->umetrics;
  const Table& s = tables->usda;
  auto blocks = RunStandardBlocking(u, s);
  if (!blocks.ok()) return 1;

  // Feature vectors over the whole candidate set.
  auto features = CaseStudyFeatures(u, s, /*case_fix=*/true);
  if (!features.ok()) return 1;
  auto batch = VectorizePairsBatch(u, s, blocks->c, *features);
  if (!batch.ok()) return 1;
  // NOTE: rules see raw features; NaN predicates never fire, so no
  // imputation is needed (or wanted) for the rule matcher.

  // Expert rules, written against generated feature names.
  FeatureRuleMatcher rules;
  if (!rules.AddRule("identical_title", "lc_AwardTitle_jac_ws >= 0.99").ok()) {
    return 1;
  }
  if (!rules
           .AddRule("title_and_pi",
                    "lc_AwardTitle_jac_ws > 0.75 AND lc_EmployeeName_jac_qgm3 "
                    "> 0.35")
           .ok()) {
    return 1;
  }
  auto rule_pred = rules.Predict(*batch);
  if (!rule_pred.ok()) {
    std::fprintf(stderr, "%s\n", rule_pred.status().ToString().c_str());
    return 1;
  }

  std::vector<RecordPair> rule_matches;
  for (size_t i = 0; i < rule_pred->size(); ++i) {
    if ((*rule_pred)[i] == 1) rule_matches.push_back(blocks->c[i]);
  }
  CandidateSet rule_set(std::move(rule_matches));

  // The trained tree, for comparison.
  OracleLabeler oracle = MakeOracle(data->gold, data->ambiguous);
  LabeledSet labels = CollectCorrectedLabels(oracle, blocks->c, 3, 100, 100);
  auto trained =
      TrainBestMatcher(u, s, labels, PositiveRulesV1(), /*case_fix=*/true);
  if (!trained.ok()) return 1;
  EmWorkflow wf = BuildCaseStudyWorkflow(PositiveRulesV2(), *trained,
                                         /*with_negative_rules=*/true);
  auto run = wf.Run(u, s);
  if (!run.ok()) return 1;

  GoldMetrics g_rules = ComputeGoldMetrics(rule_set, data->gold,
                                           data->ambiguous);
  GoldMetrics g_wf = ComputeGoldMetrics(run->final_matches, data->gold,
                                        data->ambiguous);
  std::printf("expert rules alone:      %5zu matches  P=%5.1f%% R=%5.1f%%\n",
              rule_set.size(), g_rules.Precision() * 100.0,
              g_rules.Recall() * 100.0);
  std::printf("learning + rules (full): %5zu matches  P=%5.1f%% R=%5.1f%%\n",
              run->final_matches.size(), g_wf.Precision() * 100.0,
              g_wf.Recall() * 100.0);
  std::printf("\nrule provenance on the first few rule matches:\n");
  auto firing = rules.FiringRule(*batch);
  size_t shown = 0;
  for (size_t i = 0; i < firing->size() && shown < 3; ++i) {
    if ((*firing)[i] < 0) continue;
    const RecordPair& p = blocks->c[i];
    std::printf("  rule #%d: \"%s\" ~ \"%s\"\n", (*firing)[i],
                u.at(p.left, "AwardTitle").AsString().c_str(),
                s.at(p.right, "AwardTitle").AsString().c_str());
    ++shown;
  }
  return 0;
}
