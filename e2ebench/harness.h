#ifndef EMX_E2EBENCH_HARNESS_H_
#define EMX_E2EBENCH_HARNESS_H_

// Workload-independent pieces of the end-to-end benchmark: the tail
// percentile rule, in-memory spans with self-time attribution, and the
// seeded serve op mix. Kept apart from e2e_bench.cc so harness_test.cc can
// check them without generating a corpus.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace e2e {

// --- percentiles ------------------------------------------------------------
//
// Percentile levels are given in per-mille (500 = p50, 990 = p99) so the
// rank arithmetic stays in integers. The nearest-rank percentile of n
// sorted samples at level q is the sample of 1-based rank ceil(q * n / 1000);
// the samples "beyond" it are the n - rank above that rank.

size_t NearestRank(size_t n, unsigned q_permille);
size_t SamplesBeyond(size_t n, unsigned q_permille);

// A tail percentile is reported only when at least this many samples lie
// beyond it; below that, one outlier decides the figure.
inline constexpr size_t kMinSamplesBeyond = 10;

// The nearest-rank percentile of `samples` (any order) at `q_permille`, or
// nullopt when fewer than kMinSamplesBeyond samples lie beyond it. p50 and
// below follow the same rule, so an empty or tiny sample reports nothing.
std::optional<double> ReportablePercentile(std::vector<double> samples,
                                           unsigned q_permille);

double Median(std::vector<double> values);

// --- spans ------------------------------------------------------------------

struct Span {
  std::string name;
  double start_s = 0;  // seconds since the tracer was created
  double end_s = 0;
  int parent = -1;     // index into Tracer::spans(), -1 for a root
  uint64_t op = 0;     // operation id; spans of one operation share it
  uint64_t items_in = 0;
  uint64_t items_out = 0;
};

// Records spans in memory, nested by call order: Begin pushes a span whose
// parent is the innermost open one, End closes it. Single-threaded, like
// the benchmark.
class Tracer {
 public:
  Tracer();

  // Opens a span and returns its index.
  int Begin(std::string name, uint64_t op, uint64_t items_in);
  // Closes span `id`, which must be the innermost open span.
  void End(int id, uint64_t items_out);

  const std::vector<Span>& spans() const { return spans_; }

  // One JSON object per line: name, start_s, end_s, parent, op, items_in,
  // items_out. Returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Self time of every span: its duration minus the part of its interval
// covered by the union of its direct children's intervals. Children may
// overlap one another (concurrent work) or stick out of the parent; only
// the covered share of the parent's own interval is subtracted.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

// --- serve op mix -----------------------------------------------------------

enum class OpKind : uint8_t { kLookup, kInsert, kRemove };

struct Op {
  OpKind kind = OpKind::kLookup;
  // kLookup: query index. kInsert: corpus row whose values are inserted as
  // a new record. kRemove: ordinal of the insert (0 = first insert of the
  // mix) whose record is removed.
  uint32_t arg = 0;
};

struct MixSpec {
  unsigned lookup_pct = 80;
  unsigned insert_pct = 10;  // the rest are removes
  uint32_t num_queries = 1;
  uint32_t corpus_rows = 1;
};

// `n` operations drawn from `seed`. Removes target only records the mix
// itself inserted and still holds; a remove drawn while none is live
// becomes an insert. Same (spec, n, seed) → same sequence.
std::vector<Op> MakeOpMix(const MixSpec& spec, size_t n, uint64_t seed);

// SplitMix64 step: the benchmark's only random source, so sequences do not
// depend on the standard library's distributions.
uint64_t SplitMix64(uint64_t& state);

// Peak resident set size of this process, in MB.
double PeakRssMb();

}  // namespace e2e

#endif  // EMX_E2EBENCH_HARNESS_H_
