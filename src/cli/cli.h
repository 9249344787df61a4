#ifndef EMX_CLI_CLI_H_
#define EMX_CLI_CLI_H_

#include <string>
#include <vector>

namespace emx {

// The `emx` command-line tool, as a library entry point so the argument
// handling and every subcommand are unit-testable in-process.
//
//   emx profile  <table.csv>
//   emx datagen  --sf=N [--seed=N] [--shard-rows=N] [--match-rate=P]
//                --out-left=left.csv --out-right=right.csv
//                [--out-gold=gold.csv]
//   emx block    <left.csv> <right.csv> --method=ae|overlap|coeff|jaccard|snb
//                --left-attr=COL [--right-attr=COL] [--k=3] [--threshold=0.7]
//                [--window=5] [--block-mem-budget=SIZE] --out=pairs.csv
//   emx match    <left.csv> <right.csv> --pairs=pairs.csv --labels=labels.csv
//                [--matcher=tree|forest|logreg|nb|svm|linreg]
//                [--exclude=col1,col2] [--lowercase=colA,colB]
//                --out=matches.csv
//   emx dedupe   <table.csv> --left-attr=COL
//                [--method=ae|overlap|coeff|jaccard|snb] [--k=3]
//                [--threshold=0.7] [--window=5] [--block-mem-budget=SIZE]
//                [--out=pairs.csv]
//   emx estimate --matches=matches.csv --sample=sample.csv
//   emx run      <left.csv> <right.csv> --left-attr=COL --labels=labels.csv
//                [--method=...] [--matcher=tree|forest|logreg|nb|svm|linreg]
//                [--exclude=...] [--lowercase=...]
//                [--checkpoint-dir=DIR] [--resume] [--out=matches.csv]
//   emx serve    <left.csv> <corpus.csv> --left-attr=COL --labels=labels.csv
//                [--method=overlap|coeff] [--matcher=forest] [--exclude=...]
//                [--lowercase=...] [--requests=FILE] [--queue-capacity=N]
//                [--batch-max=N] [--compact-threshold=N]
//
// `emx run` executes the end-to-end pipeline (train → block → match) with
// stage-level checkpointing: with --checkpoint-dir each stage's output (and
// the trained tree/forest model) is persisted as it completes, and a rerun
// with --resume skips every stage whose inputs are unchanged — a run killed
// mid-pipeline resumes from the last completed stage and produces
// bit-identical matches to an uninterrupted run.
//
// `emx serve` trains the same way `emx run` does, then stays resident: it
// packages the workflow into a MatchService over <corpus.csv> and answers
// line-delimited JSON requests (lookup/insert/remove/compact/stats — see
// src/serve/serve_loop.h for the schema) from stdin, or from
// --requests=FILE for scripted sessions. Admission is bounded: at most
// --queue-capacity requests wait while --batch-max process; overload is
// shed immediately with a typed Unavailable response.
//
// `emx datagen` generates a synthetic scale-factor corpus (sf=1 is 1000
// rows per side; token frequencies are NURand-skewed) plus its gold match
// pairs. Generation is row-seeded: the same --sf and --seed produce
// bit-identical CSVs at every --threads and --shard-rows setting.
//
// Every subcommand also accepts a global `--threads=N` flag selecting how
// many threads the blocking/vectorization/matching stages run on (default:
// the EMX_THREADS env var, else all hardware threads). Results are
// identical at any thread count.
//
// `emx dedupe` takes the same --method set and flags as `emx block`, with
// the one table on both sides. `--threshold` is the overlap coefficient's
// or the Jaccard join's; the Jaccard join needs it in (0, 1].
//
// Overlap/coeff/jaccard blocking accepts `--block-mem-budget=SIZE` (human
// byte sizes: 64M, 2g, 1048576) bounding the peak index + probe working
// set; the join then streams right-table partitions under that budget.
// The candidate set is bit-identical at every budget (0/absent =
// unbounded, one partition).
//
// Fault injection: the global `--fail-point=<spec>[;<spec>...]` flag (and
// the EMX_FAILPOINTS env var, same format) arms named failpoints for the
// invocation, e.g. `--fail-point=csv/read:error(IoError),count=2`. See
// src/core/failpoint.h for the spec grammar.
//
// Pair CSVs carry (left_id, right_id) row indices; label CSVs add a third
// `label` column with yes/no/unsure. All diagnostics go to `out`/`err`
// so tests can capture them.
int RunCli(const std::vector<std::string>& args, std::string& out,
           std::string& err);

}  // namespace emx

#endif  // EMX_CLI_CLI_H_
