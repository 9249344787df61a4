#ifndef EMX_SERVE_MATCH_SERVICE_H_
#define EMX_SERVE_MATCH_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/block/delta_index.h"
#include "src/block/key_join.h"
#include "src/core/executor.h"
#include "src/core/result.h"
#include "src/feature/feature_gen.h"
#include "src/feature/vectorizer.h"
#include "src/ml/matcher.h"
#include "src/prep/prepared_column.h"
#include "src/rules/match_rules.h"
#include "src/table/table.h"
#include "src/text/tokenizer.h"
#include "src/workflow/em_workflow.h"

namespace emx {

struct MatchServiceOptions {
  // Delta + tombstoned postings tolerated per blocking index before it
  // folds them back into its CSR snapshot.
  size_t compact_threshold = 4096;
};

// One ranked answer of a point lookup.
struct RankedMatch {
  uint32_t record = 0;      // corpus record id (row of the resident table)
  double score = 0.0;       // 1.0 for rule matches, else the RF probability
  std::string provenance;   // "sure_rule" | "ml" — same tags as MatchSet
};

struct LookupResult {
  // Sure-rule matches first (ascending record id), then ML matches by
  // (probability descending, record id ascending).
  std::vector<RankedMatch> matches;
  size_t num_candidates = 0;  // blocked ∪ sure (the batch pipeline's C2)
  size_t num_sure = 0;        // C1 restricted to this query
};

struct LatencySummary {
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t count = 0;
};

struct MatchServiceStats {
  uint64_t lookups = 0;
  uint64_t inserts = 0;
  uint64_t removes = 0;
  // Prepared-column build passes over CORPUS data (one per prep family at
  // Create, plus one appended row per prep family per Insert). Lookups
  // must never move this counter — the "zero re-prep work" regression
  // contract.
  uint64_t corpus_preps = 0;
  // Query specs actually prepped, one single-row prep each: every lookup
  // preps its blocking specs, and the feature-only specs only when some
  // record reaches the matcher. A query prep interns nothing.
  uint64_t query_preps = 0;
  // Distinct tokens in the service's interner: the corpus's, plus those
  // that Inserts brought. Lookups never move it, so memory stays bounded
  // however many novel query tokens arrive.
  size_t interned_tokens = 0;
  uint64_t compactions = 0;      // summed over blocking indexes
  uint64_t delta_postings = 0;   // currently pending, summed
  uint64_t dead_postings = 0;    // currently tombstoned, summed
  size_t live_records = 0;
  size_t total_records = 0;
  // Per-stage lookup latency over the ring window.
  LatencySummary block;      // blocking specs' query prep + index probe +
                             // keep predicates
  LatencySummary vectorize;  // feature-only query prep + PairBatch fill +
                             // imputation (0 when no record reaches the
                             // matcher)
  LatencySummary score;      // forest inference + thresholding
  LatencySummary rules;      // sure matches + negative filtering
  LatencySummary total;
};

// A long-lived serving instance packaged from a trained batch EmWorkflow:
// it owns a copy of the right-hand corpus table, resident prepared columns
// for every (attribute, prep spec) the features and blockers read, the
// trained matcher + imputer + rules, one mutable DeltaTokenIndex per
// distinct token blocker (attribute, normalization, tokenizer), and one
// KeyIndex per corpus key that an AE blocker or a keyed positive rule
// reads (an AE blocker and a rule keying the same corpus attribute
// untransformed share one) — built once at Create and NEVER rebuilt from
// scratch afterwards.
//
// Lookup(query, row) answers "which corpus records match this record" with
// results BIT-IDENTICAL to running the batch workflow over (query-table,
// corpus) and restricting to that query row: same candidate records (the
// delta index replays each blocker's keep predicate over identical token
// multisets), same feature doubles (both run EvaluateFeatures), same
// probabilities, same rule flips. match_service_test asserts this for
// every record of the case-study and SF=10 corpora.
//
// Insert/Remove mutate the corpus incrementally: Insert appends the row,
// preps ONLY that row (one row appended to each prep family's resident
// column — never a column re-prep), pushes its postings into each token
// index's delta lists and adds its keys to the key indexes; Remove
// tombstones it and drops its keys. Each token index folds
// deltas+tombstones into its snapshot when they exceed
// options.compact_threshold; probe results are identical at every
// compaction state (delta_index_property_test fuzzes this invariant).
//
// Ownership keeps prep work resident: the service holds its own corpus
// prepared columns and the TokenInterner they share (no PrepCache — see
// DESIGN.md §12), so an unrelated in-process batch run costs the service
// neither correctness nor re-prep.
//
// Lookups are read-only: a lookup preps only the query specs its answer
// reads (the blocking specs always, the feature-only specs only when some
// record reaches the matcher) into per-thread scratch, resolving tokens
// with the interner's const Find and giving unseen tokens lookup-local
// ids. It interns nothing, so memory does not grow with novel query
// tokens, and takes no lock but the shared one and the latency-ring
// mutex.
//
// Thread-safety: any number of concurrent Lookups (shared lock); Insert /
// Remove / Compact take the exclusive lock. Stats() is safe concurrently
// with everything.
class MatchService {
 public:
  // Packages `workflow` + `corpus` (the right-hand table) into a service.
  // Every registered blocker must be a TokenOverlapBlocker (answered by a
  // delta token index) or an AttrEquivalenceBlocker (answered by a key
  // index); anything else, such as a RuleBlocker, is InvalidArgument.
  // A positive rule with a key form (MakeEqualityRule) is answered by a
  // key index of its corpus side; one whose corpus attribute is missing
  // fires on nothing, as in batch. Only rules without a key form make a
  // lookup scan the live corpus, and Create logs each of those. The
  // matcher is optional (a rules-only workflow serves rule matches). A
  // lookup runs wholly on its calling thread (ServeLoop runs lookups in
  // parallel on its own executor), so `ctx` goes unused.
  static Result<std::unique_ptr<MatchService>> Create(
      const EmWorkflow& workflow, const Table& corpus,
      MatchServiceOptions options = {}, const ExecutorContext& ctx = {});

  // Out-of-line: members hold the private nested types by value.
  ~MatchService();

  // Point lookup for row `query_row` of `query` (a table with the
  // left-hand schema the workflow was configured against).
  Result<LookupResult> Lookup(const Table& query, size_t query_row) const;

  // Appends a record (values in corpus schema order) and returns its
  // record id. Amortized O(row tokens), not O(corpus): an append that
  // outgrows a resident prepared column's storage moves that column, which
  // holds token ids and at most 16-byte views of interned strings, so no
  // token string moves.
  Result<uint32_t> Insert(std::vector<Value> row);

  // Tombstones a record; subsequent lookups never return it. NotFound for
  // out-of-range or already-removed ids.
  Status Remove(uint32_t record);

  // Forces every blocking index to fold its deltas now (normally automatic
  // via compact_threshold).
  void Compact();

  MatchServiceStats Stats() const;

  // The resident corpus (rows are never physically removed; tombstones
  // hide them). Not synchronized against concurrent Insert — test/driver
  // convenience, not a hot-path API.
  const Table& corpus() const { return corpus_; }
  bool record_live(uint32_t record) const;

 private:
  struct CorpusPrep;     // one (attr, prep options, tokenizer) column family
  struct QuerySpec;      // query-side prep descriptor
  struct BlockPredicate; // one blocker's keep predicate over a shared index
  struct IndexGroup;     // one delta index + the predicates probing it
  struct FeatureBinding; // feature → (query spec, corpus prep) wiring
  struct KeyProbe;       // a query-side key over one corpus KeyIndex
  struct LatencyRing;

  MatchService() = default;

  // Stage bodies (called with mu_ held shared), on the calling thread, so
  // a lookup's work never depends on executor scheduling.
  //
  // Live records some positive rule pairs with the query row, ascending
  // and unique: one key probe per keyed rule, and a scan of the live
  // records only for the rules without a key form.
  std::vector<uint32_t> SureMatches(const Table& query,
                                    size_t query_row) const;
  // Live records whose key under one of `probes` equals the query row's
  // key under it, ascending and unique.
  std::vector<uint32_t> KeyHits(const std::vector<KeyProbe>& probes,
                                const Table& query, size_t query_row) const;

  Table corpus_;
  std::vector<uint8_t> live_;

  // Workflow pieces (owned copies / shared ownership). The positive rules
  // without a key form; the keyed ones are rule_probes_.
  std::vector<MatchRule> scanned_rules_;
  std::vector<MatchRule> negative_rules_;
  std::shared_ptr<MlMatcher> matcher_;
  FeatureSet features_;
  MeanImputer imputer_;

  // The id universe of every resident column. Create and Insert (under the
  // exclusive lock) intern into it; lookups only read it, under the shared
  // lock.
  const std::shared_ptr<TokenInterner> interner_ =
      std::make_shared<TokenInterner>();
  std::vector<std::unique_ptr<CorpusPrep>> corpus_preps_;
  std::vector<std::unique_ptr<QuerySpec>> query_specs_;
  std::vector<std::unique_ptr<IndexGroup>> index_groups_;
  std::vector<FeatureBinding> bindings_;
  // Resident corpus key indexes (Insert adds to and Remove drops from
  // every one), and the probes that read them: one per AE blocker and one
  // per keyed positive rule.
  std::vector<KeyIndex> key_indexes_;
  std::vector<KeyProbe> ae_probes_;
  std::vector<KeyProbe> rule_probes_;
  // Indexes into query_specs_: the index groups' specs, which every lookup
  // preps before its probe, and the rest, which only features read.
  std::vector<int> block_specs_;
  std::vector<int> feature_specs_;

  mutable std::shared_mutex mu_;

  mutable std::atomic<uint64_t> lookups_{0};
  mutable std::atomic<uint64_t> inserts_{0};
  mutable std::atomic<uint64_t> removes_{0};
  mutable std::atomic<uint64_t> corpus_prep_builds_{0};
  mutable std::atomic<uint64_t> query_prep_builds_{0};

  mutable std::mutex lat_mu_;
  std::unique_ptr<LatencyRing> lat_block_;
  std::unique_ptr<LatencyRing> lat_vectorize_;
  std::unique_ptr<LatencyRing> lat_score_;
  std::unique_ptr<LatencyRing> lat_rules_;
  std::unique_ptr<LatencyRing> lat_total_;
};

}  // namespace emx

#endif  // EMX_SERVE_MATCH_SERVICE_H_
