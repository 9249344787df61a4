// Quickstart: the Figure 1 toy example, end to end.
//
// Two small person tables are matched with the standard emx pipeline:
// block on city, auto-generate features, train a decision tree on a few
// labeled pairs, and predict. Expected output: (a1,b1) and (a3,b2) match.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart

#include <cstdio>

#include "src/block/attr_equivalence_blocker.h"
#include "src/feature/feature_gen.h"
#include "src/feature/vectorizer.h"
#include "src/ml/decision_tree.h"
#include "src/table/csv.h"

using namespace emx;

int main() {
  // Figure 1's tables, as CSV (any real application would ReadCsvFile).
  auto table_a = ReadCsvString(
      "Name,City,State\n"
      "Dave Smith,Madison,WI\n"
      "Joe Wilson,San Jose,CA\n"
      "Dan Smith,Middleton,WI\n");
  auto table_b = ReadCsvString(
      "Name,City,State\n"
      "David D. Smith,Madison,WI\n"
      "Daniel W. Smith,Middleton,WI\n");
  if (!table_a.ok() || !table_b.ok()) return 1;

  // Step 1 — blocking: only people in the same city can match.
  AttrEquivalenceBlocker blocker("City", "City");
  auto candidates = blocker.Block(*table_a, *table_b);
  if (!candidates.ok()) return 1;
  std::printf("blocking kept %zu of %zu pairs\n", candidates->size(),
              table_a->num_rows() * table_b->num_rows());

  // Step 2 — features: generated automatically from the shared schema.
  auto features = GenerateFeatures(*table_a, *table_b);
  if (!features.ok()) return 1;
  auto batch =
      VectorizePairsBatch(*table_a, *table_b, *candidates, *features);
  if (!batch.ok()) return 1;
  MeanImputer imputer;
  imputer.Fit(*batch);
  if (!imputer.Transform(*batch).ok()) return 1;

  // Step 3 — train a matcher on labeled examples. Real projects sample and
  // label candidate pairs (see examples/umetrics_case_study.cpp); here we
  // label the two candidates by hand and add synthetic non-match vectors so
  // the toy tree has both classes.
  FeatureMatrix matrix = batch->ToMatrix();
  Dataset train;
  train.feature_names = matrix.feature_names;
  train.x = matrix.rows;                  // (a1,b1), (a3,b2): true matches
  train.y = {1, 1};
  std::vector<double> negative(matrix.feature_names.size(), 0.0);
  train.x.push_back(negative);            // an all-dissimilar pair
  train.y.push_back(0);

  DecisionTreeMatcher matcher;
  if (!matcher.Fit(train).ok()) return 1;

  // Step 4 — predict on the candidates.
  std::vector<int> pred = matcher.PredictBatch(*batch);
  std::printf("matches:\n");
  for (size_t i = 0; i < pred.size(); ++i) {
    if (pred[i] != 1) continue;
    const RecordPair& p = (*candidates)[i];
    std::printf("  (a%u, b%u): \"%s\" == \"%s\"\n", p.left + 1, p.right + 1,
                table_a->at(p.left, "Name").AsString().c_str(),
                table_b->at(p.right, "Name").AsString().c_str());
  }
  return 0;
}
