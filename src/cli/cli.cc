#include "src/cli/cli.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <type_traits>

#include "src/block/attr_equivalence_blocker.h"
#include "src/core/executor.h"
#include "src/core/failpoint.h"
#include "src/core/logging.h"
#include "src/block/overlap_blocker.h"
#include "src/block/similarity_join.h"
#include "src/core/strings.h"
#include "src/datagen/scale_corpus.h"
#include "src/eval/corleone_estimator.h"
#include "src/feature/feature_gen.h"
#include "src/feature/vectorizer.h"
#include "src/ml/decision_tree.h"
#include "src/ml/linear_regression.h"
#include "src/ml/linear_svm.h"
#include "src/ml/logistic_regression.h"
#include "src/ml/naive_bayes.h"
#include "src/ml/random_forest.h"
#include "src/serve/match_service.h"
#include "src/serve/serve_loop.h"
#include "src/table/csv.h"
#include "src/table/profile.h"
#include "src/workflow/checkpoint.h"
#include "src/workflow/em_workflow.h"
#include "src/workflow/pipeline_runner.h"

namespace emx {

namespace {

// --- argument handling -------------------------------------------------------

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;  // --key=value

  std::string Flag(const std::string& key, const std::string& fallback = "") const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  bool Has(const std::string& key) const { return flags.count(key) > 0; }
};

Args ParseArgs(const std::vector<std::string>& argv, size_t start) {
  Args out;
  for (size_t i = start; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (a.rfind("--", 0) == 0) {
      size_t eq = a.find('=');
      if (eq == std::string::npos) {
        out.flags[a.substr(2)] = "true";
      } else {
        out.flags[a.substr(2, eq - 2)] = a.substr(eq + 1);
      }
    } else {
      out.positional.push_back(a);
    }
  }
  return out;
}

int Fail(std::string& err, const std::string& message) {
  err += message;
  err += '\n';
  return 1;
}

// Numeric flag `key`, or `fallback` when it is absent. The whole value
// must parse as a T in range (an unsigned integer, or a finite double);
// anything else is InvalidArgument naming the flag.
template <typename T>
Result<T> NumericFlag(const Args& args, const std::string& key, T fallback) {
  if (!args.Has(key)) return fallback;
  const std::string raw = args.Flag(key);
  const char* end = raw.data() + raw.size();
  T value{};
  std::from_chars_result parsed = std::from_chars(raw.data(), end, value);
  bool ok = parsed.ec == std::errc() && parsed.ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    return Status::InvalidArgument(
        "--" + key + "=" + raw + ": expected " +
        (std::is_floating_point_v<T> ? "a finite number"
                                     : "an unsigned integer in range"));
  }
  return value;
}

// --- pair CSV I/O ---------------------------------------------------------------

Status WritePairsCsv(const CandidateSet& pairs, const std::string& path) {
  Table t(Schema({{"left_id", DataType::kInt64},
                  {"right_id", DataType::kInt64}}));
  for (const RecordPair& p : pairs) {
    EMX_RETURN_IF_ERROR(t.AppendRow({Value(static_cast<int64_t>(p.left)),
                                     Value(static_cast<int64_t>(p.right))}));
  }
  return WriteCsvFile(t, path);
}

// Row `r`'s (left_id, right_id) of a pairs or labels CSV. Each must be an
// integer cell in [0, 2^32); anything else is a ParseError naming the file,
// the row and the column. Whether the id is a row of its table is
// VectorizePairs' check.
Result<RecordPair> ReadPairIds(const Table& t, size_t r,
                               const std::string& path) {
  uint32_t ids[2];
  const char* cols[2] = {"left_id", "right_id"};
  for (int side = 0; side < 2; ++side) {
    const Value& cell = t.at(r, cols[side]);
    if (!cell.is_int() || cell.AsInt() < 0 ||
        cell.AsInt() > int64_t{UINT32_MAX}) {
      return Status::ParseError(path + ": row " + std::to_string(r) + " " +
                                cols[side] + " '" + cell.AsString() +
                                "' is not an integer in [0, 2^32)");
    }
    ids[side] = static_cast<uint32_t>(cell.AsInt());
  }
  return RecordPair{ids[0], ids[1]};
}

Result<CandidateSet> ReadPairsCsv(const std::string& path) {
  EMX_ASSIGN_OR_RETURN(Table t, ReadCsvFile(path));
  if (!t.schema().Contains("left_id") || !t.schema().Contains("right_id")) {
    return Status::InvalidArgument(path +
                                   ": expected left_id,right_id columns");
  }
  std::vector<RecordPair> pairs;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EMX_ASSIGN_OR_RETURN(RecordPair pair, ReadPairIds(t, r, path));
    pairs.push_back(pair);
  }
  return CandidateSet(std::move(pairs));
}

Result<LabeledSet> ReadLabelsCsv(const std::string& path) {
  EMX_ASSIGN_OR_RETURN(Table t, ReadCsvFile(path));
  for (const char* col : {"left_id", "right_id", "label"}) {
    if (!t.schema().Contains(col)) {
      return Status::InvalidArgument(
          path + ": expected left_id,right_id,label columns");
    }
  }
  LabeledSet out;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::string raw = AsciiToLower(t.at(r, "label").AsString());
    Label label;
    if (raw == "yes" || raw == "1" || raw == "match") {
      label = Label::kYes;
    } else if (raw == "no" || raw == "0" || raw == "nonmatch") {
      label = Label::kNo;
    } else if (raw == "unsure" || raw == "?") {
      label = Label::kUnsure;
    } else {
      return Status::ParseError(path + ": bad label '" + raw + "' in row " +
                                std::to_string(r));
    }
    EMX_ASSIGN_OR_RETURN(RecordPair pair, ReadPairIds(t, r, path));
    out.SetLabel(pair, label);
  }
  return out;
}

// --- blocker construction --------------------------------------------------------

// Parses the global --block-mem-budget flag (human byte sizes: "64M",
// "2g", plain bytes). 0 / absent = unbounded (single partition).
Result<size_t> BlockMemBudgetFromArgs(const Args& args) {
  std::string raw = args.Flag("block-mem-budget");
  if (raw.empty()) return size_t{0};
  size_t bytes = 0;
  if (!ParseByteSize(raw, &bytes)) {
    return Status::InvalidArgument("--block-mem-budget: bad byte size '" +
                                   raw + "' (e.g. 64M, 2g, 1048576)");
  }
  return bytes;
}

// Builds a blocker from --method and its parameter flags; shared by the
// block and run subcommands. InvalidArgument on an unknown method.
Result<std::shared_ptr<Blocker>> MakeBlockerFromArgs(
    const Args& args, const std::string& left_attr,
    const std::string& right_attr) {
  std::string method = args.Flag("method", "overlap");
  OverlapBlockerOptions opts;
  opts.left_attr = left_attr;
  opts.right_attr = right_attr;
  EMX_ASSIGN_OR_RETURN(opts.mem_budget_bytes, BlockMemBudgetFromArgs(args));
  std::shared_ptr<Blocker> blocker;
  if (method == "ae") {
    blocker = std::make_shared<AttrEquivalenceBlocker>(left_attr, right_attr);
  } else if (method == "overlap") {
    EMX_ASSIGN_OR_RETURN(size_t k, NumericFlag<size_t>(args, "k", 3));
    blocker = std::make_shared<OverlapBlocker>(opts, k);
  } else if (method == "coeff") {
    EMX_ASSIGN_OR_RETURN(double t, NumericFlag(args, "threshold", 0.7));
    blocker = std::make_shared<OverlapCoefficientBlocker>(opts, t);
  } else if (method == "jaccard") {
    EMX_ASSIGN_OR_RETURN(double t, NumericFlag(args, "threshold", 0.7));
    blocker = std::make_shared<JaccardJoinBlocker>(opts, t);
  } else if (method == "snb") {
    EMX_ASSIGN_OR_RETURN(size_t w, NumericFlag<size_t>(args, "window", 5));
    blocker =
        std::make_shared<SortedNeighborhoodBlocker>(left_attr, right_attr, w);
  } else {
    return Status::InvalidArgument("unknown --method '" + method +
                                   "' (ae|overlap|coeff|jaccard|snb)");
  }
  return blocker;
}

// --- subcommands -----------------------------------------------------------------

int CmdProfile(const Args& args, std::string& out, std::string& err) {
  if (args.positional.size() != 1) {
    return Fail(err, "usage: emx profile <table.csv>");
  }
  auto table = ReadCsvFile(args.positional[0]);
  if (!table.ok()) return Fail(err, table.status().ToString());
  out += ProfileTable(*table).ToString();
  return 0;
}

int CmdBlock(const Args& args, const ExecutorContext& ctx, std::string& out,
             std::string& err) {
  if (args.positional.size() != 2) {
    return Fail(err, "usage: emx block <left.csv> <right.csv> --method=... "
                     "--left-attr=... --out=...");
  }
  auto left = ReadCsvFile(args.positional[0]);
  if (!left.ok()) return Fail(err, left.status().ToString());
  auto right = ReadCsvFile(args.positional[1]);
  if (!right.ok()) return Fail(err, right.status().ToString());

  std::string left_attr = args.Flag("left-attr");
  std::string right_attr = args.Flag("right-attr", left_attr);
  if (left_attr.empty()) return Fail(err, "--left-attr is required");
  auto blocker_or = MakeBlockerFromArgs(args, left_attr, right_attr);
  if (!blocker_or.ok()) return Fail(err, blocker_or.status().message());
  std::shared_ptr<Blocker> blocker = *blocker_or;

  auto pairs = blocker->Block(*left, *right, ctx);
  if (!pairs.ok()) return Fail(err, pairs.status().ToString());
  out += StrFormat("%s kept %zu of %zu pairs\n", blocker->name().c_str(),
                   pairs->size(), left->num_rows() * right->num_rows());
  std::string out_path = args.Flag("out");
  if (!out_path.empty()) {
    Status s = WritePairsCsv(*pairs, out_path);
    if (!s.ok()) return Fail(err, s.ToString());
    out += "wrote " + out_path + "\n";
  }
  return 0;
}

Result<std::unique_ptr<MlMatcher>> MakeMatcherByName(const std::string& name) {
  std::unique_ptr<MlMatcher> m;
  if (name == "tree") {
    m = std::make_unique<DecisionTreeMatcher>();
  } else if (name == "forest") {
    m = std::make_unique<RandomForestMatcher>();
  } else if (name == "logreg") {
    m = std::make_unique<LogisticRegressionMatcher>();
  } else if (name == "nb") {
    m = std::make_unique<NaiveBayesMatcher>();
  } else if (name == "svm") {
    m = std::make_unique<LinearSvmMatcher>();
  } else if (name == "linreg") {
    m = std::make_unique<LinearRegressionMatcher>();
  } else {
    return Status::InvalidArgument(
        "unknown --matcher '" + name + "' (tree|forest|logreg|nb|svm|linreg)");
  }
  return m;
}

// What `emx match`, `emx run` and `emx serve` train from: features
// generated over (left, right) under --exclude/--lowercase, and the decided
// labels vectorized in sorted-pair order and mean-imputed, with the imputer
// that scoring reuses.
struct TrainingSet {
  FeatureSet features;
  MeanImputer imputer;
  LabeledSet decided;  // the labels without Unsure
  Dataset data;
};

Result<TrainingSet> BuildTrainingSet(const Args& args, const Table& left,
                                     const Table& right,
                                     const LabeledSet& labels,
                                     const ExecutorContext& ctx) {
  FeatureGenOptions fopts;
  for (auto& col : Split(args.Flag("exclude"), ',')) {
    if (!col.empty()) fopts.exclude.push_back(col);
  }
  for (auto& col : Split(args.Flag("lowercase"), ',')) {
    if (!col.empty()) fopts.lowercase_variants.push_back(col);
  }
  TrainingSet out;
  EMX_ASSIGN_OR_RETURN(out.features, GenerateFeatures(left, right, fopts));
  out.decided = labels.WithoutUnsure();
  CandidateSet pairs = out.decided.Pairs();
  EMX_ASSIGN_OR_RETURN(FeatureMatrix matrix,
                       VectorizePairs(left, right, pairs, out.features, ctx));
  out.imputer.Fit(matrix);
  EMX_RETURN_IF_ERROR(out.imputer.Transform(matrix));
  out.data.feature_names = std::move(matrix.feature_names);
  out.data.x = std::move(matrix.rows);
  for (const RecordPair& p : pairs) {
    Label l = Label::kNo;
    out.decided.GetLabel(p, &l);
    out.data.y.push_back(l == Label::kYes ? 1 : 0);
  }
  return out;
}

// A `name` matcher (see MakeMatcherByName) fitted on `data` on `ctx`.
Result<std::shared_ptr<MlMatcher>> FitMatcher(const std::string& name,
                                              const Dataset& data,
                                              const ExecutorContext& ctx) {
  EMX_ASSIGN_OR_RETURN(std::unique_ptr<MlMatcher> made,
                       MakeMatcherByName(name));
  std::shared_ptr<MlMatcher> matcher(std::move(made));
  matcher->set_executor(ctx);
  EMX_RETURN_IF_ERROR(matcher->Fit(data));
  return matcher;
}

int CmdMatch(const Args& args, const ExecutorContext& ctx, std::string& out,
             std::string& err) {
  if (args.positional.size() != 2) {
    return Fail(err, "usage: emx match <left.csv> <right.csv> --pairs=... "
                     "--labels=... --out=...");
  }
  auto left = ReadCsvFile(args.positional[0]);
  if (!left.ok()) return Fail(err, left.status().ToString());
  auto right = ReadCsvFile(args.positional[1]);
  if (!right.ok()) return Fail(err, right.status().ToString());
  if (!args.Has("pairs") || !args.Has("labels")) {
    return Fail(err, "--pairs and --labels are required");
  }
  auto pairs = ReadPairsCsv(args.Flag("pairs"));
  if (!pairs.ok()) return Fail(err, pairs.status().ToString());
  auto labels = ReadLabelsCsv(args.Flag("labels"));
  if (!labels.ok()) return Fail(err, labels.status().ToString());

  auto training = BuildTrainingSet(args, *left, *right, *labels, ctx);
  if (!training.ok()) return Fail(err, training.status().ToString());
  auto matcher = FitMatcher(args.Flag("matcher", "tree"), training->data, ctx);
  if (!matcher.ok()) return Fail(err, matcher.status().ToString());

  // Score the candidate pairs.
  auto batch = VectorizePairsBatch(*left, *right, *pairs,
                                   training->features, ctx);
  if (!batch.ok()) return Fail(err, batch.status().ToString());
  if (Status s = training->imputer.Transform(*batch); !s.ok()) {
    return Fail(err, s.ToString());
  }
  std::vector<int> pred = (*matcher)->PredictBatch(*batch);
  std::vector<RecordPair> matched;
  for (size_t i = 0; i < pred.size(); ++i) {
    if (pred[i] == 1) matched.push_back((*pairs)[i]);
  }
  CandidateSet matches(std::move(matched));
  out += StrFormat("%s predicted %zu matches over %zu candidate pairs "
                   "(%zu features, %zu training labels)\n",
                   (*matcher)->name().c_str(), matches.size(), pairs->size(),
                   training->features.features.size(), training->data.size());
  std::string out_path = args.Flag("out");
  if (!out_path.empty()) {
    Status s = WritePairsCsv(matches, out_path);
    if (!s.ok()) return Fail(err, s.ToString());
    out += "wrote " + out_path + "\n";
  }
  return 0;
}

int CmdDedupe(const Args& args, const ExecutorContext& ctx, std::string& out,
              std::string& err) {
  if (args.positional.size() != 1) {
    return Fail(err, "usage: emx dedupe <table.csv> --left-attr=... "
                     "[--method=...] [--out=...]");
  }
  auto table = ReadCsvFile(args.positional[0]);
  if (!table.ok()) return Fail(err, table.status().ToString());
  std::string attr = args.Flag("left-attr");
  if (attr.empty()) return Fail(err, "--left-attr is required");
  std::string method = args.Flag("method", "overlap");

  std::unique_ptr<Blocker> blocker;
  OverlapBlockerOptions opts;
  opts.left_attr = attr;
  opts.right_attr = attr;
  auto budget = BlockMemBudgetFromArgs(args);
  if (!budget.ok()) return Fail(err, budget.status().message());
  opts.mem_budget_bytes = *budget;
  if (method == "ae") {
    blocker = std::make_unique<AttrEquivalenceBlocker>(attr, attr);
  } else if (method == "overlap") {
    Result<size_t> k = NumericFlag<size_t>(args, "k", 3);
    if (!k.ok()) return Fail(err, k.status().ToString());
    blocker = std::make_unique<OverlapBlocker>(opts, *k);
  } else if (method == "jaccard") {
    Result<double> t = NumericFlag(args, "threshold", 0.7);
    if (!t.ok()) return Fail(err, t.status().ToString());
    blocker = std::make_unique<JaccardJoinBlocker>(opts, *t);
  } else {
    return Fail(err, "unknown --method '" + method + "' (ae|overlap|jaccard)");
  }
  auto dup = BlockSelf(*blocker, *table, ctx);
  if (!dup.ok()) return Fail(err, dup.status().ToString());
  out += StrFormat("%s found %zu potential duplicate pairs in %zu rows\n",
                   blocker->name().c_str(), dup->size(), table->num_rows());
  std::string out_path = args.Flag("out");
  if (!out_path.empty()) {
    Status s = WritePairsCsv(*dup, out_path);
    if (!s.ok()) return Fail(err, s.ToString());
    out += "wrote " + out_path + "\n";
  }
  return 0;
}

int CmdDatagen(const Args& args, const ExecutorContext& ctx, std::string& out,
               std::string& err) {
  if (!args.positional.empty() || !args.Has("out-left") ||
      !args.Has("out-right")) {
    return Fail(err,
                "usage: emx datagen --sf=N [--seed=N] [--shard-rows=N] "
                "[--match-rate=P] --out-left=left.csv --out-right=right.csv "
                "[--out-gold=gold.csv]");
  }
  ScaleCorpusOptions opts;
  Result<size_t> shard_rows = NumericFlag(args, "shard-rows", opts.shard_rows);
  if (!shard_rows.ok() || *shard_rows == 0) {
    return Fail(err, "--shard-rows must be a positive integer");
  }
  opts.shard_rows = *shard_rows;
  Status flags = [&]() -> Status {
    EMX_ASSIGN_OR_RETURN(opts.scale_factor,
                         NumericFlag(args, "sf", opts.scale_factor));
    EMX_ASSIGN_OR_RETURN(opts.seed, NumericFlag(args, "seed", opts.seed));
    EMX_ASSIGN_OR_RETURN(opts.match_rate,
                         NumericFlag(args, "match-rate", opts.match_rate));
    return Status::OK();
  }();
  if (!flags.ok()) return Fail(err, flags.ToString());
  auto corpus = GenerateScaleCorpus(opts, ctx);
  if (!corpus.ok()) return Fail(err, corpus.status().ToString());
  if (Status s = WriteCsvFile(corpus->left, args.Flag("out-left")); !s.ok()) {
    return Fail(err, s.ToString());
  }
  if (Status s = WriteCsvFile(corpus->right, args.Flag("out-right"));
      !s.ok()) {
    return Fail(err, s.ToString());
  }
  out += StrFormat("sf=%g: wrote %zu left rows to %s, %zu right rows to %s\n",
                   opts.scale_factor, corpus->left.num_rows(),
                   args.Flag("out-left").c_str(), corpus->right.num_rows(),
                   args.Flag("out-right").c_str());
  std::string gold_path = args.Flag("out-gold");
  if (!gold_path.empty()) {
    Status s = WritePairsCsv(corpus->gold, gold_path);
    if (!s.ok()) return Fail(err, s.ToString());
    out += StrFormat("wrote %zu gold pairs to %s\n", corpus->gold.size(),
                     gold_path.c_str());
  }
  return 0;
}

int CmdEstimate(const Args& args, std::string& out, std::string& err) {
  if (!args.Has("matches") || !args.Has("sample")) {
    return Fail(err, "usage: emx estimate --matches=... --sample=...");
  }
  auto matches = ReadPairsCsv(args.Flag("matches"));
  if (!matches.ok()) return Fail(err, matches.status().ToString());
  auto sample = ReadLabelsCsv(args.Flag("sample"));
  if (!sample.ok()) return Fail(err, sample.status().ToString());
  auto est = EstimateAccuracy(*matches, *sample);
  if (!est.ok()) return Fail(err, est.status().ToString());
  out += StrFormat("precision %.3f %s   recall %.3f %s   (%zu labels, %zu "
                   "unsure ignored)\n",
                   est->precision.point, est->precision.ToString().c_str(),
                   est->recall.point, est->recall.ToString().c_str(),
                   est->sample_size, est->unsure_ignored);
  return 0;
}

// --- the end-to-end pipeline (emx run) -------------------------------------------

// Deterministic text form of a labeled set, used only for fingerprinting
// the trained-model checkpoint (sorted pair order, not insertion order).
std::string SerializeLabelsForFingerprint(const LabeledSet& labels) {
  std::string out;
  for (const RecordPair& p : labels.Pairs()) {
    Label l = Label::kUnsure;
    labels.GetLabel(p, &l);
    out += std::to_string(p.left) + " " + std::to_string(p.right) + " " +
           std::string(LabelToString(l)) + "\n";
  }
  return out;
}

// Serialized form of a trained matcher, or "" for types without a text
// round-trip (only the tree and forest serialize today).
std::string SerializeModel(const MlMatcher& matcher,
                           const std::string& matcher_name) {
  if (matcher_name == "tree") {
    return static_cast<const DecisionTreeMatcher&>(matcher).Serialize();
  }
  if (matcher_name == "forest") {
    return static_cast<const RandomForestMatcher&>(matcher).Serialize();
  }
  return "";
}

// Restores a matcher from its checkpoint artifact; nullptr when the type
// does not round-trip or the artifact does not parse.
std::shared_ptr<MlMatcher> DeserializeModel(const std::string& text,
                                            const std::string& matcher_name) {
  if (matcher_name == "tree") {
    auto restored = DecisionTreeMatcher::Deserialize(text);
    if (restored.ok()) {
      return std::make_shared<DecisionTreeMatcher>(std::move(*restored));
    }
    EMX_LOG(Warning) << "model checkpoint does not parse ("
                     << restored.status().ToString() << "); retraining";
  } else if (matcher_name == "forest") {
    auto restored = RandomForestMatcher::Deserialize(text);
    if (restored.ok()) {
      return std::make_shared<RandomForestMatcher>(std::move(*restored));
    }
    EMX_LOG(Warning) << "model checkpoint does not parse ("
                     << restored.status().ToString() << "); retraining";
  }
  return nullptr;
}

int CmdRun(const Args& args, const ExecutorContext& ctx, std::string& out,
           std::string& err) {
  if (args.positional.size() != 2) {
    return Fail(err,
                "usage: emx run <left.csv> <right.csv> --left-attr=... "
                "--labels=... [--method=...] [--matcher=tree] "
                "[--checkpoint-dir=DIR] [--resume] [--out=matches.csv]");
  }
  auto left = ReadCsvFile(args.positional[0]);
  if (!left.ok()) return Fail(err, left.status().ToString());
  auto right = ReadCsvFile(args.positional[1]);
  if (!right.ok()) return Fail(err, right.status().ToString());

  std::string left_attr = args.Flag("left-attr");
  std::string right_attr = args.Flag("right-attr", left_attr);
  if (left_attr.empty()) return Fail(err, "--left-attr is required");
  auto blocker_or = MakeBlockerFromArgs(args, left_attr, right_attr);
  if (!blocker_or.ok()) return Fail(err, blocker_or.status().message());

  if (!args.Has("labels")) return Fail(err, "--labels is required");
  auto labels = ReadLabelsCsv(args.Flag("labels"));
  if (!labels.ok()) return Fail(err, labels.status().ToString());

  // Train stage. Vectorize the decided labels and fit the configured
  // matcher, unless a resumable model checkpoint matches the training
  // inputs exactly.
  auto training = BuildTrainingSet(args, *left, *right, *labels, ctx);
  if (!training.ok()) return Fail(err, training.status().ToString());

  const std::string checkpoint_dir = args.Flag("checkpoint-dir");
  const bool resume = args.Has("resume");
  std::optional<CheckpointStore> store;
  if (!checkpoint_dir.empty()) {
    auto opened = CheckpointStore::Open(checkpoint_dir);
    if (!opened.ok()) return Fail(err, opened.status().ToString());
    store.emplace(std::move(*opened));
  }

  const std::string matcher_name = args.Flag("matcher", "tree");
  const std::string model_fp = HashHex(Fnv1a64(
      WriteCsvString(*left) + "\x1f" + WriteCsvString(*right) + "\x1f" +
      SerializeLabelsForFingerprint(training->decided) + "\x1f" +
      matcher_name + "\x1f" + Join(training->features.names(), ",")));

  std::shared_ptr<MlMatcher> matcher;
  if (store && resume) {
    if (auto cached = store->Get("model", model_fp); cached.ok()) {
      matcher = DeserializeModel(*cached, matcher_name);
      if (matcher) out += "resumed trained model from checkpoint\n";
    }
  }
  if (matcher == nullptr) {
    auto fitted = FitMatcher(matcher_name, training->data, ctx);
    if (!fitted.ok()) return Fail(err, fitted.status().ToString());
    matcher = std::move(*fitted);
    if (store) {
      std::string serialized = SerializeModel(*matcher, matcher_name);
      if (!serialized.empty()) {
        if (Status s = store->Put("model", model_fp, serialized); !s.ok()) {
          return Fail(err, s.ToString());
        }
      } else {
        out += "note: matcher '" + matcher_name +
               "' has no serialization; it will retrain on resume\n";
      }
    }
  }

  // Predict stage, driven through the checkpointing runner.
  EmWorkflow wf;
  wf.SetExecutor(ctx);
  wf.AddBlocker(*blocker_or);
  wf.SetMatcher(matcher, std::move(training->features),
                std::move(training->imputer));
  PipelineOptions popts;
  popts.checkpoint_dir = checkpoint_dir;
  popts.resume = resume;
  PipelineRunner runner(&wf, popts);
  auto run = runner.Run(*left, *right);
  if (!run.ok()) return Fail(err, run.status().ToString());

  out += StrFormat(
      "pipeline: %zu candidate pairs, %zu ml matches, %zu final matches\n",
      run->candidates.size(), run->after_rules.size(),
      run->final_matches.size());

  std::string out_path = args.Flag("out");
  if (!out_path.empty()) {
    Table t(Schema({{"left_id", DataType::kInt64},
                    {"right_id", DataType::kInt64},
                    {"provenance", DataType::kString}}));
    for (const RecordPair& p : run->final_matches) {
      Status s = t.AppendRow({Value(static_cast<int64_t>(p.left)),
                              Value(static_cast<int64_t>(p.right)),
                              Value(run->provenance.ProvenanceOf(p))});
      if (!s.ok()) return Fail(err, s.ToString());
    }
    Status s = WriteCsvFile(t, out_path);
    if (!s.ok()) return Fail(err, s.ToString());
    out += "wrote " + out_path + "\n";
  }
  return 0;
}

// --- the resident matcher (emx serve) --------------------------------------------

// Trains exactly like `emx run` (decided labels → vectorize → imputer →
// matcher Fit), packages the workflow into a resident MatchService over the
// right-hand corpus, and answers line-delimited JSON requests — from
// --requests=FILE (responses land in `out`, in-process testable) or from
// stdin (responses stream to stdout as they are produced).
int CmdServe(const Args& args, const ExecutorContext& ctx, std::string& out,
             std::string& err) {
  if (args.positional.size() != 2) {
    return Fail(err,
                "usage: emx serve <left.csv> <corpus.csv> --left-attr=... "
                "--labels=... [--method=overlap|coeff|ae] [--matcher=forest] "
                "[--exclude=...] [--lowercase=...] [--requests=FILE] "
                "[--queue-capacity=N] [--batch-max=N] "
                "[--compact-threshold=N]");
  }
  MatchServiceOptions sopts;
  ServeOptions lopts;
  Status flags = [&]() -> Status {
    EMX_ASSIGN_OR_RETURN(sopts.compact_threshold,
                         NumericFlag(args, "compact-threshold",
                                     sopts.compact_threshold));
    EMX_ASSIGN_OR_RETURN(
        lopts.queue_capacity,
        NumericFlag(args, "queue-capacity", lopts.queue_capacity));
    EMX_ASSIGN_OR_RETURN(lopts.batch_max,
                         NumericFlag(args, "batch-max", lopts.batch_max));
    return Status::OK();
  }();
  if (!flags.ok()) return Fail(err, flags.ToString());
  auto left = ReadCsvFile(args.positional[0]);
  if (!left.ok()) return Fail(err, left.status().ToString());
  auto corpus = ReadCsvFile(args.positional[1]);
  if (!corpus.ok()) return Fail(err, corpus.status().ToString());

  std::string left_attr = args.Flag("left-attr");
  std::string right_attr = args.Flag("right-attr", left_attr);
  if (left_attr.empty()) return Fail(err, "--left-attr is required");
  auto blocker_or = MakeBlockerFromArgs(args, left_attr, right_attr);
  if (!blocker_or.ok()) return Fail(err, blocker_or.status().message());

  if (!args.Has("labels")) return Fail(err, "--labels is required");
  auto labels = ReadLabelsCsv(args.Flag("labels"));
  if (!labels.ok()) return Fail(err, labels.status().ToString());

  auto training = BuildTrainingSet(args, *left, *corpus, *labels, ctx);
  if (!training.ok()) return Fail(err, training.status().ToString());
  auto matcher =
      FitMatcher(args.Flag("matcher", "forest"), training->data, ctx);
  if (!matcher.ok()) return Fail(err, matcher.status().ToString());

  EmWorkflow wf;
  wf.SetExecutor(ctx);
  wf.AddBlocker(*blocker_or);
  wf.SetMatcher(*matcher, std::move(training->features),
                std::move(training->imputer));

  auto service = MatchService::Create(wf, *corpus, sopts, ctx);
  if (!service.ok()) return Fail(err, service.status().ToString());

  const std::string requests_path = args.Flag("requests");
  ServeCounters totals;
  if (!requests_path.empty()) {
    std::ifstream in(requests_path);
    if (!in) return Fail(err, "serve: cannot open " + requests_path);
    std::ostringstream responses;
    ServeLoop loop(service->get(), lopts, &responses, ctx);
    if (Status s = loop.Run(in); !s.ok()) return Fail(err, s.ToString());
    out += responses.str();
    totals.admitted = loop.counters().admitted.load();
    totals.shed = loop.counters().shed.load();
    totals.parse_errors = loop.counters().parse_errors.load();
  } else {
    ServeLoop loop(service->get(), lopts, &std::cout, ctx);
    if (Status s = loop.Run(std::cin); !s.ok()) return Fail(err, s.ToString());
    totals.admitted = loop.counters().admitted.load();
    totals.shed = loop.counters().shed.load();
    totals.parse_errors = loop.counters().parse_errors.load();
  }
  err += StrFormat("serve: %llu requests answered, %llu shed, %llu malformed\n",
                   static_cast<unsigned long long>(totals.admitted.load()),
                   static_cast<unsigned long long>(totals.shed.load()),
                   static_cast<unsigned long long>(totals.parse_errors.load()));
  return 0;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::string& out,
           std::string& err) {
  if (args.empty()) {
    return Fail(err,
                "usage: emx "
                "<profile|datagen|block|dedupe|match|estimate|run|serve>"
                " ...\n"
                "see src/cli/cli.h for full flag documentation");
  }
  Args parsed = ParseArgs(args, 1);

  // Fault injection: arm failpoints named by the EMX_FAILPOINTS env var and
  // the --fail-point flag (';'-separated specs; the flag is applied second
  // so it wins on the same name). Everything armed here is disarmed when
  // this invocation returns, so in-process callers (tests, batch drivers)
  // don't leak injection state into the next run.
  struct ScopedFailPoints {
    bool active = false;
    ~ScopedFailPoints() {
      if (active) FailPointRegistry::Global().DisarmAll();
    }
  } scoped_fail_points;
  if (std::getenv("EMX_FAILPOINTS") != nullptr || parsed.Has("fail-point")) {
    scoped_fail_points.active = true;
    if (Status s = FailPointRegistry::Global().ArmFromEnv(); !s.ok()) {
      return Fail(err, s.ToString());
    }
    if (parsed.Has("fail-point")) {
      Status s = FailPointRegistry::Global().ArmFromSpecList(
          parsed.Flag("fail-point"));
      if (!s.ok()) return Fail(err, s.ToString());
    }
  }

  // Global --threads=N pins this invocation to a private N-thread pool;
  // without it, stages run on the shared default executor (EMX_THREADS or
  // hardware concurrency). Output is identical either way.
  std::unique_ptr<Executor> pool;
  ExecutorContext ctx;
  if (parsed.Has("threads")) {
    Result<size_t> n = NumericFlag<size_t>(parsed, "threads", 0);
    if (!n.ok() || *n == 0) {
      return Fail(err, "--threads must be a positive integer");
    }
    pool = std::make_unique<Executor>(*n);
    ctx.executor = pool.get();
  }

  const std::string& cmd = args[0];
  if (cmd == "profile") return CmdProfile(parsed, out, err);
  if (cmd == "datagen") return CmdDatagen(parsed, ctx, out, err);
  if (cmd == "block") return CmdBlock(parsed, ctx, out, err);
  if (cmd == "dedupe") return CmdDedupe(parsed, ctx, out, err);
  if (cmd == "match") return CmdMatch(parsed, ctx, out, err);
  if (cmd == "estimate") return CmdEstimate(parsed, out, err);
  if (cmd == "run") return CmdRun(parsed, ctx, out, err);
  if (cmd == "serve") return CmdServe(parsed, ctx, out, err);
  return Fail(err, "unknown command '" + cmd + "'");
}

}  // namespace emx
