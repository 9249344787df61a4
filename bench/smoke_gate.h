#ifndef EMX_BENCH_SMOKE_GATE_H_
#define EMX_BENCH_SMOKE_GATE_H_

// The perf benches' CI smoke gate (`bench_* --smoke BASELINE.json`): a
// bench measures one ratio of two same-host timings on a small fixture and
// fails when it falls below half the ratio its baseline file records. A
// ratio transfers across hardware where absolute times do not.

#include <cstdio>
#include <cstdlib>
#include <string>

namespace emx {
namespace bench {

// Extracts "key": <number> from a JSON file with a text scan (no JSON dep).
inline bool ReadJsonNumber(const char* path, const char* key, double* out) {
  std::FILE* f = std::fopen(path, "r");
  if (!f) return false;
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::string needle = std::string("\"") + key + "\"";
  size_t pos = text.find(needle);
  if (pos == std::string::npos) return false;
  pos = text.find(':', pos + needle.size());
  if (pos == std::string::npos) return false;
  *out = std::strtod(text.c_str() + pos + 1, nullptr);
  return true;
}

// The baseline ratio `key` of the file at `path`; false, with a message,
// when the file has no positive number under `key`.
inline bool ReadBaseline(const char* path, const char* key, double* out) {
  if (ReadJsonNumber(path, key, out) && *out > 0) return true;
  std::fprintf(stderr, "smoke: cannot read %s from %s\n", key, path);
  return false;
}

// The gate's exit code: 0 ("smoke: OK") when `measured` is at least half
// of `baseline`, else 1, reporting `what` fell below the floor and that
// `regressed`.
inline int SmokeGate(double measured, double baseline, const char* what,
                     const char* regressed) {
  if (measured < baseline / 2.0) {
    std::fprintf(stderr,
                 "smoke: FAIL — %s %.3fx fell below half the baseline %.3fx "
                 "(%s)\n",
                 what, measured, baseline, regressed);
    return 1;
  }
  std::printf("smoke: OK\n");
  return 0;
}

}  // namespace bench
}  // namespace emx

#endif  // EMX_BENCH_SMOKE_GATE_H_
