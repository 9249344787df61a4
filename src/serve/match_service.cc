#include "src/serve/match_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <mutex>

#include "src/block/attr_equivalence_blocker.h"
#include "src/block/overlap_blocker.h"
#include "src/core/failpoint.h"
#include "src/core/logging.h"
#include "src/feature/pair_batch.h"

namespace emx {

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

// One cache-key string per (attr, prep, tokenizer family), mirroring
// PrepCache's tokenizer identity so two specs collapse iff the cache would
// have collapsed them.
std::string SpecKey(const std::string& attr, const PrepOptions& opts,
                    const Tokenizer* tokenizer) {
  std::string key = attr;
  key += opts.lowercase ? "|lc" : "|-";
  key += opts.strip_punctuation ? "|sp" : "|-";
  key += '|';
  if (tokenizer != nullptr) {
    key += tokenizer->name() + (tokenizer->unique() ? "/u" : "/b");
  }
  return key;
}

}  // namespace

// One (attribute, normalization, tokenizer) family of resident corpus
// segments: segments[0] covers rows [0, base_rows) (built at Create), then
// one single-row segment per Insert, in insertion order — record id maps
// to a segment without any lookaside table.
struct MatchService::CorpusPrep {
  std::string attr;
  int col = -1;  // column index in the corpus schema
  PrepOptions opts;
  std::shared_ptr<Tokenizer> tokenizer;  // null → text-only prep
  std::string key;
  std::vector<std::shared_ptr<const PreparedColumn>> segments;

  const PreparedColumn& Segment(uint32_t record, size_t base_rows,
                                size_t* row) const {
    if (record < base_rows) {
      *row = record;
      return *segments[0];
    }
    *row = 0;
    return *segments[1 + (record - base_rows)];
  }
};

// Query-side prep descriptor: at each Lookup, one single-cell
// PreparedColumn is built per spec (through the service cache's interner,
// uncached — query storage addresses are ephemeral).
struct MatchService::QuerySpec {
  std::string attr;
  PrepOptions opts;
  std::shared_ptr<Tokenizer> tokenizer;
  std::string key;
};

// One blocker's survival predicate over a shared index probe:
// keep(query_tokens, record_tokens, overlap).
struct MatchService::BlockPredicate {
  size_t min_left_tokens = 1;  // probe skipped below this query size
  std::function<bool(size_t, size_t, size_t)> keep;
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
  int query_spec = -1;  // -1 → legacy per-pair Value fn
  int corpus_prep = -1;
};

// One AE blocker: its query-side key and the resident index of its
// corpus side.
struct MatchService::AeIndex {
  KeyColumn query;
  KeyIndex corpus;
};

// Bounded ring of stage latencies; p50/p99 over the most recent window.
struct MatchService::LatencyRing {
  explicit LatencyRing(size_t capacity)
      : samples(capacity > 0 ? capacity : 1, 0.0) {}

  std::vector<double> samples;
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
  svc->base_rows_ = corpus.num_rows();
  svc->options_ = options;
  svc->positive_rules_ = workflow.positive_rules();
  svc->negative_rules_ = workflow.negative_rules();
  svc->matcher_ = workflow.matcher();
  svc->features_ = workflow.features();
  svc->imputer_ = workflow.imputer();
  svc->prep_cache_ = std::make_shared<PrepCache>();
  svc->lat_block_ = std::make_unique<LatencyRing>(options.latency_window);
  svc->lat_vectorize_ = std::make_unique<LatencyRing>(options.latency_window);
  svc->lat_score_ = std::make_unique<LatencyRing>(options.latency_window);
  svc->lat_rules_ = std::make_unique<LatencyRing>(options.latency_window);
  svc->lat_total_ = std::make_unique<LatencyRing>(options.latency_window);

  // Interned spec registries: one resident corpus prep / query descriptor
  // per distinct (attr, normalization, tokenizer) across features AND
  // blockers.
  auto add_query_spec = [&](const std::string& attr, const PrepOptions& opts,
                            std::shared_ptr<Tokenizer> tok) -> int {
    std::string key = SpecKey(attr, opts, tok.get());
    for (size_t i = 0; i < svc->query_specs_.size(); ++i) {
      if (svc->query_specs_[i]->key == key) return static_cast<int>(i);
    }
    auto spec = std::make_unique<QuerySpec>();
    spec->attr = attr;
    spec->opts = opts;
    spec->tokenizer = std::move(tok);
    spec->key = std::move(key);
    svc->query_specs_.push_back(std::move(spec));
    return static_cast<int>(svc->query_specs_.size() - 1);
  };
  auto add_corpus_prep = [&](const std::string& attr, const PrepOptions& opts,
                             std::shared_ptr<Tokenizer> tok) -> Result<int> {
    std::string key = SpecKey(attr, opts, tok.get());
    for (size_t i = 0; i < svc->corpus_preps_.size(); ++i) {
      if (svc->corpus_preps_[i]->key == key) return static_cast<int>(i);
    }
    int col = svc->corpus_.schema().IndexOf(attr);
    if (col < 0) {
      return Status::InvalidArgument("MatchService: corpus has no column '" +
                                     attr + "'");
    }
    auto prep = std::make_unique<CorpusPrep>();
    prep->attr = attr;
    prep->col = col;
    prep->opts = opts;
    prep->tokenizer = std::move(tok);
    prep->key = std::move(key);
    prep->segments.push_back(svc->prep_cache_->PrepUncached(
        svc->corpus_.column(static_cast<size_t>(col)), opts,
        prep->tokenizer.get()));
    svc->corpus_prep_builds_.fetch_add(1, std::memory_order_relaxed);
    svc->corpus_preps_.push_back(std::move(prep));
    return static_cast<int>(svc->corpus_preps_.size() - 1);
  };

  for (const MatchRule& rule : svc->positive_rules_) {
    EMX_LOG(Info) << "MatchService: every lookup scans the corpus for "
                     "positive rule '"
                  << rule.name << "'";
  }

  // Blockers → index groups: the token-overlap family probes a delta
  // index, the AE blocker a key index.
  for (const std::shared_ptr<Blocker>& b : workflow.blockers()) {
    if (const auto* ae =
            dynamic_cast<const AttrEquivalenceBlocker*>(b.get())) {
      const EqualityKey& key = ae->key();
      if (svc->corpus_.schema().IndexOf(key.right.attr) < 0) {
        return Status::InvalidArgument("MatchService: corpus has no column '" +
                                       key.right.attr + "' (blocker " +
                                       b->name() + ")");
      }
      AeIndex& index =
          svc->ae_indexes_.emplace_back(AeIndex{key.left, KeyIndex(key.right)});
      for (size_t r = 0; r < svc->corpus_.num_rows(); ++r) {
        index.corpus.Add(static_cast<uint32_t>(r),
                         svc->corpus_.at(r, key.right.attr));
      }
      continue;
    }
    const OverlapBlockerOptions* bopts = nullptr;
    std::shared_ptr<Tokenizer> tok;
    BlockPredicate pred;
    if (const auto* ob = dynamic_cast<const OverlapBlocker*>(b.get())) {
      bopts = &ob->options();
      tok = ob->tokenizer();
      size_t k = ob->min_overlap();
      pred.min_left_tokens = k;
      pred.keep = [k](size_t, size_t, size_t overlap) { return overlap >= k; };
    } else if (const auto* cb =
                   dynamic_cast<const OverlapCoefficientBlocker*>(b.get())) {
      bopts = &cb->options();
      tok = cb->tokenizer();
      double t = cb->threshold();
      pred.min_left_tokens = 1;
      pred.keep = [t](size_t la, size_t lb, size_t overlap) {
        size_t mn = std::min(la, lb);
        if (mn == 0) return false;
        return static_cast<double>(overlap) >= t * static_cast<double>(mn);
      };
    } else {
      return Status::InvalidArgument(
          "MatchService: blocker '" + b->name() +
          "' is neither a token-overlap nor an attribute-equivalence "
          "blocker, so no index can answer it");
    }
    PrepOptions po = internal_block::ToPrepOptions(*bopts);
    int qs = add_query_spec(bopts->left_attr, po, tok);
    EMX_ASSIGN_OR_RETURN(int cp, add_corpus_prep(bopts->right_attr, po, tok));
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
    group->preds.push_back(std::move(pred));
  }

  // Features → bindings (prep specs identical to BindFeatures in the batch
  // vectorizer: lowercase from the spec, never punctuation stripping).
  for (const Feature& f : svc->features_.features) {
    FeatureBinding binding;
    if (f.has_prep()) {
      std::shared_ptr<Tokenizer> tok = TokenizerForSpec(f.prep);
      PrepOptions po{f.prep.lowercase, /*strip_punctuation=*/false};
      binding.query_spec = add_query_spec(f.left_attr, po, tok);
      EMX_ASSIGN_OR_RETURN(binding.corpus_prep,
                           add_corpus_prep(f.right_attr, po, tok));
    } else if (svc->corpus_.schema().IndexOf(f.right_attr) < 0) {
      return Status::InvalidArgument("MatchService: corpus has no column '" +
                                     f.right_attr + "' (feature " + f.name +
                                     ")");
    }
    svc->bindings_.push_back(binding);
  }

  // Bulk-load each blocking index from its base segment, snapshot once,
  // then arm the serving compaction threshold.
  for (auto& g : svc->index_groups_) {
    const PreparedColumn& base = *svc->corpus_preps_[g->corpus_prep]->segments[0];
    for (size_t r = 0; r < base.rows(); ++r) g->index.Add(base.ids(r));
    g->index.Compact();
    g->index.set_compact_threshold(options.compact_threshold);
  }
  return svc;
}

std::vector<uint32_t> MatchService::AeHits(const Table& query,
                                           size_t query_row) const {
  std::vector<uint32_t> out;
  std::string key;
  for (const AeIndex& ae : ae_indexes_) {
    if (!ae.query.KeyOf(query.at(query_row, ae.query.attr), &key)) continue;
    if (const std::vector<uint32_t>* ids = ae.corpus.Find(key)) {
      out.insert(out.end(), ids->begin(), ids->end());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<uint32_t> MatchService::SureMatches(const Table& query,
                                                size_t query_row) const {
  std::vector<uint32_t> out;
  if (positive_rules_.empty()) return out;
  for (size_t r = 0; r < corpus_.num_rows(); ++r) {
    if (!live_[r]) continue;
    for (const MatchRule& rule : positive_rules_) {
      if (rule.fires(query, query_row, corpus_, r)) {
        out.push_back(static_cast<uint32_t>(r));
        break;
      }
    }
  }
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

  // Stage: positive rules (C1 restricted to this query row).
  Clock::time_point t0 = Clock::now();
  std::vector<uint32_t> sure = SureMatches(query, query_row);
  double rules_us = MicrosSince(t0);

  // Stage: block — AE blockers read their key indexes; then prep the query
  // record once per spec, probe each token index and replay every token
  // blocker's keep predicate.
  t0 = Clock::now();
  for (const AeIndex& ae : ae_indexes_) {
    // The batch AE blocker's NotFound for a missing key column.
    EMX_RETURN_IF_ERROR(query.ColumnByName(ae.query.attr).status());
  }
  std::vector<uint32_t> blocked = AeHits(query, query_row);
  std::vector<std::shared_ptr<const PreparedColumn>> qpreps(
      query_specs_.size());
  for (size_t i = 0; i < query_specs_.size(); ++i) {
    const QuerySpec& spec = *query_specs_[i];
    EMX_ASSIGN_OR_RETURN(const std::vector<Value>* col,
                         query.ColumnByName(spec.attr));
    std::vector<Value> cell{(*col)[query_row]};
    qpreps[i] =
        prep_cache_->PrepUncached(cell, spec.opts, spec.tokenizer.get());
    query_prep_builds_.fetch_add(1, std::memory_order_relaxed);
  }

  {
    thread_local DeltaTokenIndex::ProbeScratch scratch;
    for (const auto& g : index_groups_) {
      const PreparedColumn& q = *qpreps[g->query_spec];
      IdSpan qids = q.ids(0);
      std::vector<const BlockPredicate*> eligible;
      eligible.reserve(g->preds.size());
      for (const BlockPredicate& p : g->preds) {
        if (qids.size >= p.min_left_tokens) eligible.push_back(&p);
      }
      if (eligible.empty()) continue;
      g->index.Probe(qids, &scratch, [&](uint32_t r, uint32_t overlap) {
        size_t rsize = g->index.record_ids(r).size;
        for (const BlockPredicate* p : eligible) {
          if (p->keep(qids.size, rsize, overlap)) {
            blocked.push_back(r);
            break;
          }
        }
      });
    }
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

  // Stage: vectorize — fill the PairBatch feature-major, exactly the batch
  // vectorizer's evaluation order per feature (batch kernel over gathered
  // non-null lanes, else prepared per-pair fn, else legacy Value fn).
  t0 = Clock::now();
  size_t n = ml_records.size();
  size_t width = features_.features.size();
  PairBatch batch(matcher_ != nullptr ? n : 0, width);
  batch.feature_names = features_.names();
  if (matcher_ != nullptr && n > 0) {
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    thread_local std::vector<std::string_view> ga, gb;
    thread_local std::vector<double> gscores;
    thread_local std::vector<uint32_t> lanes;
    for (size_t fi = 0; fi < width; ++fi) {
      const Feature& f = features_.features[fi];
      const FeatureBinding& b = bindings_[fi];
      double* col = batch.Column(fi);
      if (b.query_spec >= 0 && f.has_batch()) {
        const PreparedColumn& q = *qpreps[b.query_spec];
        const CorpusPrep& cp = *corpus_preps_[b.corpus_prep];
        ga.clear();
        gb.clear();
        lanes.clear();
        for (size_t i = 0; i < n; ++i) {
          size_t row = 0;
          const PreparedColumn& seg = cp.Segment(ml_records[i], base_rows_,
                                                 &row);
          if (q.is_null(0) || seg.is_null(row)) {
            col[i] = kNaN;
          } else {
            lanes.push_back(static_cast<uint32_t>(i));
            ga.push_back(q.text(0));
            gb.push_back(seg.text(row));
          }
        }
        gscores.resize(ga.size());
        f.batch_fn(ga.data(), gb.data(), ga.size(), gscores.data());
        for (size_t k = 0; k < lanes.size(); ++k) col[lanes[k]] = gscores[k];
      } else if (b.query_spec >= 0) {
        const PreparedColumn& q = *qpreps[b.query_spec];
        const CorpusPrep& cp = *corpus_preps_[b.corpus_prep];
        for (size_t i = 0; i < n; ++i) {
          size_t row = 0;
          const PreparedColumn& seg = cp.Segment(ml_records[i], base_rows_,
                                                 &row);
          col[i] = f.prep_fn(q, 0, seg, row);
        }
      } else {
        const Value& lv = query.at(query_row, f.left_attr);
        for (size_t i = 0; i < n; ++i) {
          col[i] = f.fn(lv, corpus_.at(ml_records[i], f.right_attr));
        }
      }
    }
    EMX_RETURN_IF_ERROR(imputer_.Transform(batch));
  }
  double vectorize_us = MicrosSince(t0);

  // Stage: score.
  t0 = Clock::now();
  std::vector<std::pair<uint32_t, double>> predicted;
  if (matcher_ != nullptr && n > 0) {
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
  // One single-row segment per prep family — the inserted record is
  // normalized/tokenized exactly once per spec, never the whole column.
  for (auto& cp : corpus_preps_) {
    std::vector<Value> cell{corpus_.at(record, static_cast<size_t>(cp->col))};
    cp->segments.push_back(
        prep_cache_->PrepUncached(cell, cp->opts, cp->tokenizer.get()));
    corpus_prep_builds_.fetch_add(1, std::memory_order_relaxed);
  }
  for (auto& g : index_groups_) {
    size_t seg_row = 0;
    const PreparedColumn& seg =
        corpus_preps_[g->corpus_prep]->Segment(record, base_rows_, &seg_row);
    g->index.Add(seg.ids(seg_row));
  }
  for (AeIndex& ae : ae_indexes_) {
    ae.corpus.Add(record, corpus_.at(record, ae.corpus.column().attr));
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
  for (AeIndex& ae : ae_indexes_) {
    ae.corpus.Remove(record, corpus_.at(record, ae.corpus.column().attr));
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
