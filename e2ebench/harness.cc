#include "e2ebench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <utility>

namespace e2e {

size_t NearestRank(size_t n, unsigned q_permille) {
  if (n == 0) return 0;
  size_t rank = (n * q_permille + 999) / 1000;
  return std::max<size_t>(rank, 1);
}

size_t SamplesBeyond(size_t n, unsigned q_permille) {
  return n - NearestRank(n, q_permille);
}

std::optional<double> ReportablePercentile(std::vector<double> samples,
                                           unsigned q_permille) {
  const size_t n = samples.size();
  if (n == 0 || SamplesBeyond(n, q_permille) < kMinSamplesBeyond) {
    return std::nullopt;
  }
  auto nth = samples.begin() +
             static_cast<std::ptrdiff_t>(NearestRank(n, q_permille) - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// --- spans ------------------------------------------------------------------

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

int Tracer::Begin(std::string name, uint64_t op, uint64_t items_in) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op;
  s.items_in = items_in;
  s.start_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            epoch_)
                  .count();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id, uint64_t items_out) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          epoch_)
                .count();
  s.items_out = items_out;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::string name;
    for (char c : s.name) {
      if (c == '"' || c == '\\') name.push_back('\\');
      name.push_back(c);
    }
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"parent\":%d,\"op\":%llu,\"items_in\":%llu,"
                 "\"items_out\":%llu}\n",
                 name.c_str(), s.start_s, s.end_s, s.parent,
                 static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.items_in),
                 static_cast<unsigned long long>(s.items_out));
  }
  return std::fclose(f) == 0;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_s,
                                                           s.end_s);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_s;
    const double hi = spans[i].end_s;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double run_lo = 0, run_hi = 0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

// --- serve op mix -----------------------------------------------------------

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<Op> MakeOpMix(const MixSpec& spec, size_t n, uint64_t seed) {
  uint64_t state = seed;
  std::vector<Op> ops;
  ops.reserve(n);
  std::vector<uint32_t> live;  // insert ordinals not yet removed
  uint32_t inserts = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t r = SplitMix64(state) % 100;
    Op op;
    if (r < spec.lookup_pct) {
      op.kind = OpKind::kLookup;
      op.arg = static_cast<uint32_t>(SplitMix64(state) % spec.num_queries);
    } else if (r < spec.lookup_pct + spec.insert_pct || live.empty()) {
      op.kind = OpKind::kInsert;
      op.arg = static_cast<uint32_t>(SplitMix64(state) % spec.corpus_rows);
      live.push_back(inserts++);
    } else {
      const size_t k = SplitMix64(state) % live.size();
      op.kind = OpKind::kRemove;
      op.arg = live[k];
      live[k] = live.back();
      live.pop_back();
    }
    ops.push_back(op);
  }
  return ops;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace e2e
