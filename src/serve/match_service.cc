#include "src/serve/match_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>

#include "src/block/attr_equivalence_blocker.h"
#include "src/block/overlap_blocker.h"
#include "src/core/failpoint.h"
#include "src/core/logging.h"
#include "src/feature/pair_batch.h"

namespace emx {

namespace {

using Clock = std::chrono::steady_clock;

// Lookups per latency ring: p50/p99 cover the most recent this many.
constexpr size_t kLatencyWindow = 4096;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

// Per-thread lookup scratch, reused across lookups and across services:
// one query column per query spec (slot i serves spec i of whichever
// service the thread is looking up in) and the index probe's counters.
// Between lookups it holds no pointer into any service: a query column's
// views and signatures point into the column itself, and a slot is read
// only after the current lookup has prepped it.
struct LookupScratch {
  std::vector<PreparedColumn> queries;
  DeltaTokenIndex::ProbeScratch probe;
};

thread_local LookupScratch t_lookup;

}  // namespace

// One (attribute, normalization, tokenizer) family of resident corpus
// prep: one prepared column whose row r is record r, built at Create and
// grown by one row per Insert.
struct MatchService::CorpusPrep {
  int col = -1;  // column index in the corpus schema
  PrepOptions opts;
  std::shared_ptr<Tokenizer> tokenizer;  // null → text-only prep
  std::string prep_key;                  // PrepKey(opts, tokenizer)
  PreparedColumn column;
};

// Query-side prep descriptor: a lookup that reads the spec preps the
// query's cell into the calling thread's scratch column for it
// (PreparedColumn::PrepQuery, read-only against the service's interner).
struct MatchService::QuerySpec {
  std::string attr;
  PrepOptions opts;
  std::shared_ptr<Tokenizer> tokenizer;
  std::string prep_key;  // PrepKey(opts, tokenizer)
};

// One blocker's survival predicate over a shared index probe:
// keep(query_tokens, record_tokens, overlap).
struct MatchService::BlockPredicate {
  size_t min_left_tokens = 1;  // probe skipped below this query size
  internal_block::OverlapKeepFn keep;
};

// One mutable blocking index plus every predicate that probes it — the
// paper's overlap + overlap-coefficient pair on the same attribute share
// one index, exactly as they share one prepped column in the batch path.
struct MatchService::IndexGroup {
  int query_spec = -1;
  int corpus_prep = -1;
  DeltaTokenIndex index{0};
  std::vector<BlockPredicate> preds;
};

struct MatchService::FeatureBinding {
  int query_spec = -1;  // -1 → the feature's Value fn
  int corpus_prep = -1;
  int corpus_col = -1;  // the Value fn's corpus column
};

// One AE blocker's or keyed positive rule's query-side key, and the
// resident index of its corpus side (into key_indexes_).
struct MatchService::KeyProbe {
  KeyColumn query;
  int index = -1;
};

// Bounded ring of stage latencies; p50/p99 over the most recent window.
struct MatchService::LatencyRing {
  std::vector<double> samples = std::vector<double>(kLatencyWindow, 0.0);
  size_t next = 0;
  uint64_t count = 0;

  void Push(double us) {
    samples[next] = us;
    next = (next + 1) % samples.size();
    ++count;
  }

  LatencySummary Summary() const {
    LatencySummary out;
    out.count = count;
    size_t n = static_cast<size_t>(
        std::min<uint64_t>(count, samples.size()));
    if (n == 0) return out;
    std::vector<double> sorted(samples.begin(), samples.begin() + n);
    std::sort(sorted.begin(), sorted.end());
    auto quantile = [&](double q) {
      size_t idx = static_cast<size_t>(q * static_cast<double>(n - 1) + 0.5);
      return sorted[std::min(idx, n - 1)];
    };
    out.p50_us = quantile(0.50);
    out.p99_us = quantile(0.99);
    return out;
  }
};

MatchService::~MatchService() = default;

Result<std::unique_ptr<MatchService>> MatchService::Create(
    const EmWorkflow& workflow, const Table& corpus,
    MatchServiceOptions options, const ExecutorContext& /*ctx*/) {
  std::unique_ptr<MatchService> svc(new MatchService());
  svc->corpus_ = corpus;
  svc->live_.assign(corpus.num_rows(), 1);
  svc->negative_rules_ = workflow.negative_rules();
  svc->matcher_ = workflow.matcher();
  svc->features_ = workflow.features();
  svc->imputer_ = workflow.imputer();
  svc->lat_block_ = std::make_unique<LatencyRing>();
  svc->lat_vectorize_ = std::make_unique<LatencyRing>();
  svc->lat_score_ = std::make_unique<LatencyRing>();
  svc->lat_rules_ = std::make_unique<LatencyRing>();
  svc->lat_total_ = std::make_unique<LatencyRing>();

  // Interned spec registries: one resident corpus prep / query descriptor
  // per distinct (attr, normalization, tokenizer) across features AND
  // blockers.
  auto add_query_spec = [&](const std::string& attr, const PrepOptions& opts,
                            std::shared_ptr<Tokenizer> tok) -> int {
    std::string prep_key = PrepKey(opts, tok.get());
    for (size_t i = 0; i < svc->query_specs_.size(); ++i) {
      const QuerySpec& spec = *svc->query_specs_[i];
      if (spec.attr == attr && spec.prep_key == prep_key) {
        return static_cast<int>(i);
      }
    }
    svc->query_specs_.push_back(std::make_unique<QuerySpec>(
        QuerySpec{attr, opts, std::move(tok), std::move(prep_key)}));
    return static_cast<int>(svc->query_specs_.size() - 1);
  };
  auto add_corpus_prep = [&](const std::string& attr, const PrepOptions& opts,
                             std::shared_ptr<Tokenizer> tok) -> Result<int> {
    int col = svc->corpus_.schema().IndexOf(attr);
    if (col < 0) {
      return Status::InvalidArgument("MatchService: corpus has no column '" +
                                     attr + "'");
    }
    std::string prep_key = PrepKey(opts, tok.get());
    for (size_t i = 0; i < svc->corpus_preps_.size(); ++i) {
      const CorpusPrep& cp = *svc->corpus_preps_[i];
      if (cp.col == col && cp.prep_key == prep_key) {
        return static_cast<int>(i);
      }
    }
    PreparedColumn column(svc->corpus_.column(static_cast<size_t>(col)), opts,
                          tok.get(), svc->interner_);
    svc->corpus_prep_builds_.fetch_add(1, std::memory_order_relaxed);
    svc->corpus_preps_.push_back(std::make_unique<CorpusPrep>(CorpusPrep{
        col, opts, std::move(tok), std::move(prep_key), std::move(column)}));
    return static_cast<int>(svc->corpus_preps_.size() - 1);
  };

  // Corpus key indexes. Two keys share one index when both read the same
  // corpus attribute untransformed (a transform is an opaque function, so
  // transformed keys never share): in the paper's workflow, the AE
  // blocker and M1 both key USDA AwardNumber.
  auto add_key_index = [&](const KeyColumn& key, int col) -> int {
    if (!key.transform) {
      for (size_t i = 0; i < svc->key_indexes_.size(); ++i) {
        const KeyColumn& have = svc->key_indexes_[i].column();
        if (!have.transform && have.attr == key.attr) {
          return static_cast<int>(i);
        }
      }
    }
    KeyIndex& index = svc->key_indexes_.emplace_back(key);
    const std::vector<Value>& cells =
        svc->corpus_.column(static_cast<size_t>(col));
    for (size_t r = 0; r < cells.size(); ++r) {
      index.Add(static_cast<uint32_t>(r), cells[r]);
    }
    return static_cast<int>(svc->key_indexes_.size() - 1);
  };

  // Positive rules: a keyed rule probes a key index of its corpus side; a
  // rule without a key form is called on every live record per lookup.
  for (const MatchRule& rule : workflow.positive_rules()) {
    if (!rule.key) {
      EMX_LOG(Info) << "MatchService: every lookup scans the corpus for "
                       "positive rule '"
                    << rule.name << "', which has no key form";
      svc->scanned_rules_.push_back(rule);
      continue;
    }
    // As in ApplyRulesCartesian, a corpus without the rule's attribute
    // reads null on every row, so the rule never fires.
    int col = svc->corpus_.schema().IndexOf(rule.key->right.attr);
    if (col < 0) continue;
    svc->rule_probes_.push_back(
        {rule.key->left, add_key_index(rule.key->right, col)});
  }

  // Blockers → index groups: the token-overlap family probes a delta
  // index, the AE blocker a key index.
  for (const std::shared_ptr<Blocker>& b : workflow.blockers()) {
    if (const auto* ae =
            dynamic_cast<const AttrEquivalenceBlocker*>(b.get())) {
      const EqualityKey& key = ae->key();
      int col = svc->corpus_.schema().IndexOf(key.right.attr);
      if (col < 0) {
        return Status::InvalidArgument("MatchService: corpus has no column '" +
                                       key.right.attr + "' (blocker " +
                                       b->name() + ")");
      }
      svc->ae_probes_.push_back({key.left, add_key_index(key.right, col)});
      continue;
    }
    const auto* tb = dynamic_cast<const TokenOverlapBlocker*>(b.get());
    if (tb == nullptr) {
      return Status::InvalidArgument(
          "MatchService: blocker '" + b->name() +
          "' is neither a token-overlap nor an attribute-equivalence "
          "blocker, so no index can answer it");
    }
    const OverlapBlockerOptions& bopts = tb->options();
    PrepOptions po = internal_block::ToPrepOptions(bopts);
    int qs = add_query_spec(bopts.left_attr, po, tb->tokenizer());
    EMX_ASSIGN_OR_RETURN(
        int cp, add_corpus_prep(bopts.right_attr, po, tb->tokenizer()));
    IndexGroup* group = nullptr;
    for (auto& g : svc->index_groups_) {
      if (g->query_spec == qs && g->corpus_prep == cp) {
        group = g.get();
        break;
      }
    }
    if (group == nullptr) {
      auto owned = std::make_unique<IndexGroup>();
      owned->query_spec = qs;
      owned->corpus_prep = cp;
      group = owned.get();
      svc->index_groups_.push_back(std::move(owned));
    }
    group->preds.push_back({tb->min_left_tokens(), tb->keep()});
  }

  // Features → bindings, prepped as the batch vectorizer preps them.
  for (const Feature& f : svc->features_.features) {
    FeatureBinding binding;
    if (f.has_prep()) {
      FeaturePrep prep = PrepForFeature(f.prep);
      binding.query_spec =
          add_query_spec(f.left_attr, prep.options, prep.tokenizer);
      EMX_ASSIGN_OR_RETURN(
          binding.corpus_prep,
          add_corpus_prep(f.right_attr, prep.options, prep.tokenizer));
    } else {
      binding.corpus_col = svc->corpus_.schema().IndexOf(f.right_attr);
      if (binding.corpus_col < 0) {
        return Status::InvalidArgument("MatchService: corpus has no column '" +
                                       f.right_attr + "' (feature " + f.name +
                                       ")");
      }
    }
    svc->bindings_.push_back(binding);
  }

  // Query specs by when a lookup preps them: the index groups' before the
  // probe, the rest only once some record reaches the matcher.
  std::vector<uint8_t> blocking(svc->query_specs_.size(), 0);
  for (const auto& g : svc->index_groups_) blocking[g->query_spec] = 1;
  for (size_t i = 0; i < blocking.size(); ++i) {
    (blocking[i] ? svc->block_specs_ : svc->feature_specs_)
        .push_back(static_cast<int>(i));
  }

  // Bulk-load each blocking index from its prepared column, snapshot once,
  // then arm the serving compaction threshold.
  for (auto& g : svc->index_groups_) {
    const PreparedColumn& base = svc->corpus_preps_[g->corpus_prep]->column;
    for (size_t r = 0; r < base.rows(); ++r) g->index.Add(base.ids(r));
    g->index.Compact();
    g->index.set_compact_threshold(options.compact_threshold);
  }
  return svc;
}

std::vector<uint32_t> MatchService::KeyHits(
    const std::vector<KeyProbe>& probes, const Table& query,
    size_t query_row) const {
  std::vector<uint32_t> out;
  std::string key;
  for (const KeyProbe& p : probes) {
    // A query without the key's column reads null (Table::at): no key.
    if (!p.query.KeyOf(query.at(query_row, p.query.attr), &key)) continue;
    if (const std::vector<uint32_t>* ids = key_indexes_[p.index].Find(key)) {
      out.insert(out.end(), ids->begin(), ids->end());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<uint32_t> MatchService::SureMatches(const Table& query,
                                                size_t query_row) const {
  std::vector<uint32_t> out = KeyHits(rule_probes_, query, query_row);
  if (scanned_rules_.empty()) return out;
  for (size_t r = 0; r < corpus_.num_rows(); ++r) {
    if (!live_[r]) continue;
    for (const MatchRule& rule : scanned_rules_) {
      if (rule.fires(query, query_row, corpus_, r)) {
        out.push_back(static_cast<uint32_t>(r));
        break;
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Result<LookupResult> MatchService::Lookup(const Table& query,
                                          size_t query_row) const {
  EMX_FAILPOINT("serve/lookup");
  if (query_row >= query.num_rows()) {
    return Status::InvalidArgument(
        "MatchService::Lookup: row " + std::to_string(query_row) +
        " out of range (" + std::to_string(query.num_rows()) + " rows)");
  }
  Clock::time_point t_total = Clock::now();
  std::shared_lock<std::shared_mutex> lock(mu_);

  // Query prep: spec i's query cell into scratch slot i, read-only
  // against the interner (Insert, the one interning path, waits for the
  // shared lock). As in batch, a query without the spec's column is
  // NotFound.
  LookupScratch& scratch = t_lookup;
  if (scratch.queries.size() < query_specs_.size()) {
    scratch.queries.resize(query_specs_.size());
  }
  const TokenInterner& interner = *interner_;
  auto prep = [&](int s) -> Status {
    const QuerySpec& spec = *query_specs_[s];
    EMX_ASSIGN_OR_RETURN(const std::vector<Value>* col,
                         query.ColumnByName(spec.attr));
    scratch.queries[s].PrepQuery((*col)[query_row], spec.opts,
                                 spec.tokenizer.get(), interner);
    query_prep_builds_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  };

  // Stage: sure matches (C1 restricted to this query row).
  Clock::time_point t0 = Clock::now();
  std::vector<uint32_t> sure = SureMatches(query, query_row);
  double rules_us = MicrosSince(t0);

  // Stage: block — AE blockers read their key indexes; then prep the
  // query's blocking specs, probe each token index and replay every token
  // blocker's keep predicate.
  t0 = Clock::now();
  for (const KeyProbe& ae : ae_probes_) {
    // The batch AE blocker's NotFound for a missing key column.
    EMX_RETURN_IF_ERROR(query.ColumnByName(ae.query.attr).status());
  }
  std::vector<uint32_t> blocked = KeyHits(ae_probes_, query, query_row);
  for (int s : block_specs_) EMX_RETURN_IF_ERROR(prep(s));
  for (const auto& g : index_groups_) {
    IdSpan qids = scratch.queries[g->query_spec].ids(0);
    std::vector<const BlockPredicate*> eligible;
    eligible.reserve(g->preds.size());
    for (const BlockPredicate& p : g->preds) {
      if (qids.size >= p.min_left_tokens) eligible.push_back(&p);
    }
    if (eligible.empty()) continue;
    g->index.Probe(qids, &scratch.probe, [&](uint32_t r, uint32_t overlap) {
      size_t rsize = g->index.record_ids(r).size;
      for (const BlockPredicate* p : eligible) {
        if (p->keep(qids.size, rsize, overlap)) {
          blocked.push_back(r);
          break;
        }
      }
    });
  }
  std::sort(blocked.begin(), blocked.end());
  blocked.erase(std::unique(blocked.begin(), blocked.end()), blocked.end());

  // candidates = blocked ∪ sure; ml input = candidates − sure (the batch
  // topology's C2 and C2 − C1).
  std::vector<uint32_t> candidates;
  candidates.reserve(blocked.size() + sure.size());
  std::set_union(blocked.begin(), blocked.end(), sure.begin(), sure.end(),
                 std::back_inserter(candidates));
  std::vector<uint32_t> ml_records;
  ml_records.reserve(blocked.size());
  std::set_difference(candidates.begin(), candidates.end(), sure.begin(),
                      sure.end(), std::back_inserter(ml_records));
  double block_us = MicrosSince(t0);

  // Stage: vectorize — only when some record reaches the matcher, as
  // batch binds features only for a non-empty ML input: prep the
  // feature-only specs (a query without a feature's column is NotFound
  // exactly then), then run the batch vectorizer's EvaluateFeatures over
  // (query, record) pairs; the query's prepared columns and cells are
  // row 0.
  t0 = Clock::now();
  const size_t n = matcher_ != nullptr ? ml_records.size() : 0;
  PairBatch batch;
  if (n > 0) {
    for (int s : feature_specs_) EMX_RETURN_IF_ERROR(prep(s));
    const size_t width = features_.features.size();
    batch.Reset(n, width);
    batch.feature_names = features_.names();
    std::vector<std::vector<Value>> query_cells(width);
    std::vector<FeatureInputs> inputs(width);
    for (size_t fi = 0; fi < width; ++fi) {
      const FeatureBinding& b = bindings_[fi];
      if (b.query_spec >= 0) {
        inputs[fi].left_prep = &scratch.queries[b.query_spec];
        inputs[fi].right_prep = &corpus_preps_[b.corpus_prep]->column;
        continue;
      }
      EMX_ASSIGN_OR_RETURN(
          const std::vector<Value>* col,
          query.ColumnByName(features_.features[fi].left_attr));
      query_cells[fi].push_back((*col)[query_row]);
      inputs[fi].left = &query_cells[fi];
      inputs[fi].right = &corpus_.column(static_cast<size_t>(b.corpus_col));
    }
    std::vector<RecordPair> pairs;
    pairs.reserve(n);
    for (uint32_t r : ml_records) pairs.push_back({0, r});
    EvaluateFeatures(features_, inputs, pairs, 0, n, &batch);
    EMX_RETURN_IF_ERROR(imputer_.Transform(batch));
  }
  double vectorize_us = MicrosSince(t0);

  // Stage: score.
  t0 = Clock::now();
  std::vector<std::pair<uint32_t, double>> predicted;
  if (n > 0) {
    std::vector<double> proba = matcher_->PredictProbaBatch(batch);
    predicted.reserve(proba.size());
    for (size_t i = 0; i < proba.size(); ++i) {
      if (proba[i] >= 0.5) predicted.emplace_back(ml_records[i], proba[i]);
    }
  }
  double score_us = MicrosSince(t0);

  // Stage: negative rules flip predicted matches only (sure matches
  // bypass, as in the batch topology: final = C1 ∪ (R − flips)).
  t0 = Clock::now();
  std::vector<std::pair<uint32_t, double>> kept;
  kept.reserve(predicted.size());
  for (const auto& [r, p] : predicted) {
    bool flipped = false;
    for (const MatchRule& rule : negative_rules_) {
      if (rule.fires(query, query_row, corpus_, r)) {
        flipped = true;
        break;
      }
    }
    if (!flipped) kept.emplace_back(r, p);
  }
  rules_us += MicrosSince(t0);

  LookupResult result;
  result.num_candidates = candidates.size();
  result.num_sure = sure.size();
  result.matches.reserve(sure.size() + kept.size());
  for (uint32_t r : sure) {
    result.matches.push_back({r, 1.0, "sure_rule"});
  }
  std::sort(kept.begin(), kept.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  for (const auto& [r, p] : kept) {
    result.matches.push_back({r, p, "ml"});
  }

  lookups_.fetch_add(1, std::memory_order_relaxed);
  double total_us = MicrosSince(t_total);
  {
    std::lock_guard<std::mutex> lat_lock(lat_mu_);
    lat_block_->Push(block_us);
    lat_vectorize_->Push(vectorize_us);
    lat_score_->Push(score_us);
    lat_rules_->Push(rules_us);
    lat_total_->Push(total_us);
  }
  return result;
}

Result<uint32_t> MatchService::Insert(std::vector<Value> row) {
  EMX_FAILPOINT("serve/insert");
  std::unique_lock<std::shared_mutex> lock(mu_);
  EMX_RETURN_IF_ERROR(corpus_.AppendRow(std::move(row)));
  uint32_t record = static_cast<uint32_t>(corpus_.num_rows() - 1);
  live_.push_back(1);
  // One appended row per prep family — the inserted record is
  // normalized/tokenized exactly once per spec, never the whole column.
  for (auto& cp : corpus_preps_) {
    cp->column.Append(corpus_.at(record, static_cast<size_t>(cp->col)),
                      cp->opts, cp->tokenizer.get(), interner_.get());
    corpus_prep_builds_.fetch_add(1, std::memory_order_relaxed);
  }
  for (auto& g : index_groups_) {
    g->index.Add(corpus_preps_[g->corpus_prep]->column.ids(record));
  }
  for (KeyIndex& index : key_indexes_) {
    index.Add(record, corpus_.at(record, index.column().attr));
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  return record;
}

Status MatchService::Remove(uint32_t record) {
  EMX_FAILPOINT("serve/remove");
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (record >= corpus_.num_rows() || !live_[record]) {
    return Status::NotFound("MatchService::Remove: no live record " +
                            std::to_string(record));
  }
  live_[record] = 0;
  for (auto& g : index_groups_) g->index.Remove(record);
  for (KeyIndex& index : key_indexes_) {
    index.Remove(record, corpus_.at(record, index.column().attr));
  }
  removes_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void MatchService::Compact() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto& g : index_groups_) g->index.Compact();
}

bool MatchService::record_live(uint32_t record) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return record < live_.size() && live_[record] != 0;
}

MatchServiceStats MatchService::Stats() const {
  MatchServiceStats out;
  out.lookups = lookups_.load(std::memory_order_relaxed);
  out.inserts = inserts_.load(std::memory_order_relaxed);
  out.removes = removes_.load(std::memory_order_relaxed);
  out.corpus_preps = corpus_prep_builds_.load(std::memory_order_relaxed);
  out.query_preps = query_prep_builds_.load(std::memory_order_relaxed);
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    out.total_records = corpus_.num_rows();
    out.interned_tokens = interner_->size();
    size_t live = 0;
    for (uint8_t l : live_) live += l;
    out.live_records = live;
    for (const auto& g : index_groups_) {
      out.compactions += g->index.compactions();
      out.delta_postings += g->index.delta_postings();
      out.dead_postings += g->index.dead_postings();
    }
  }
  {
    std::lock_guard<std::mutex> lat_lock(lat_mu_);
    out.block = lat_block_->Summary();
    out.vectorize = lat_vectorize_->Summary();
    out.score = lat_score_->Summary();
    out.rules = lat_rules_->Summary();
    out.total = lat_total_->Summary();
  }
  return out;
}

}  // namespace emx
