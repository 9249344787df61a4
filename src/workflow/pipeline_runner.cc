#include "src/workflow/pipeline_runner.h"

#include <exception>
#include <functional>
#include <optional>
#include <utility>

#include "src/core/logging.h"
#include "src/table/csv.h"
#include "src/workflow/checkpoint.h"

namespace emx {

namespace {

// Runs one stage's compute inside an exception wall: anything thrown (an
// injected executor fault, a bad_alloc in a blocker) becomes an Internal
// Status instead of unwinding across the library boundary.
Result<CandidateSet> ComputeContained(
    const std::string& stage,
    const std::function<Result<CandidateSet>()>& compute) {
  try {
    return compute();
  } catch (const std::exception& e) {
    return Status::Internal("stage '" + stage +
                            "' threw: " + std::string(e.what()));
  } catch (...) {
    return Status::Internal("stage '" + stage +
                            "' threw a non-standard exception");
  }
}

// Chains a stage fingerprint from the upstream fingerprint plus the
// serialized upstream artifact (none for the first stage), so a stage is
// only ever resumed against the exact bytes its checkpointed output was
// computed from. Only a checkpoint store reads fingerprints: without one
// the base is empty, and so is every fingerprint chained from it.
std::string ChainFingerprint(const std::string& upstream,
                             const CandidateSet* artifact,
                             const std::string& stage) {
  if (upstream.empty()) return "";
  const std::string bytes = artifact ? SerializeCandidateSet(*artifact) : "";
  return HashHex(
      Fnv1a64(upstream + "|" + HashHex(Fnv1a64(bytes)) + "|" + stage));
}

}  // namespace

PipelineRunner::PipelineRunner(const EmWorkflow* workflow,
                               PipelineOptions options)
    : workflow_(workflow), options_(std::move(options)) {}

Result<WorkflowRunResult> PipelineRunner::Run(const Table& left,
                                              const Table& right) {
  workflow_->prep_cache()->RetainTables(left, right);
  std::optional<CheckpointStore> store;
  if (!options_.checkpoint_dir.empty()) {
    auto opened = CheckpointStore::Open(options_.checkpoint_dir);
    if (!opened.ok()) return opened.status();
    store.emplace(std::move(*opened));
  }

  // Tries to resume `stage`; returns nullopt when the stage must be
  // (re)computed. Any checkpoint defect short of a clean hit degrades to
  // recomputation with a warning.
  auto try_resume =
      [&](const std::string& stage,
          const std::string& fingerprint) -> std::optional<CandidateSet> {
    if (!store || !options_.resume) return std::nullopt;
    Result<std::string> cached = store->Get(stage, fingerprint);
    if (!cached.ok()) {
      if (cached.status().code() == StatusCode::kNotFound) {
        EMX_LOG(Info) << "pipeline: no checkpoint for stage '" << stage
                      << "' (" << cached.status().message()
                      << "); computing";
      } else {
        EMX_LOG(Warning) << "pipeline: checkpoint for stage '" << stage
                         << "' unusable (" << cached.status().ToString()
                         << "); recomputing";
      }
      return std::nullopt;
    }
    Result<CandidateSet> set = DeserializeCandidateSet(*cached);
    if (!set.ok()) {
      EMX_LOG(Warning) << "pipeline: checkpoint artifact for stage '" << stage
                       << "' does not parse (" << set.status().ToString()
                       << "); recomputing";
      return std::nullopt;
    }
    EMX_LOG(Info) << "pipeline: stage '" << stage
                  << "' resumed from checkpoint (" << set->size()
                  << " pairs)";
    return std::move(*set);
  };

  // Resume-or-compute-and-persist for one stage.
  auto run_stage =
      [&](const std::string& stage, const std::string& fingerprint,
          const std::function<Result<CandidateSet>()>& compute)
      -> Result<CandidateSet> {
    if (std::optional<CandidateSet> resumed = try_resume(stage, fingerprint)) {
      return std::move(*resumed);
    }
    Result<CandidateSet> computed = ComputeContained(stage, compute);
    if (!computed.ok()) return computed;
    if (store) {
      EMX_RETURN_IF_ERROR(
          store->Put(stage, fingerprint, SerializeCandidateSet(*computed)));
    }
    return computed;
  };

  // The base fingerprint covers everything every stage depends on: both
  // input tables (content, not path) and the full workflow configuration.
  const std::string base =
      store ? HashHex(Fnv1a64(WriteCsvString(left) + "\x1f" +
                              WriteCsvString(right) + "\x1f" +
                              workflow_->Describe()))
            : "";

  WorkflowRunResult out;

  const std::string fp_sure = ChainFingerprint(base, nullptr, "sure_matches");
  EMX_ASSIGN_OR_RETURN(
      out.sure_matches,
      run_stage("sure_matches", fp_sure,
                [&] { return workflow_->RunPositiveRules(left, right); }));

  const std::string fp_candidates =
      ChainFingerprint(fp_sure, &out.sure_matches, "candidates");
  EMX_ASSIGN_OR_RETURN(
      out.candidates,
      run_stage("candidates", fp_candidates, [&] {
        return workflow_->RunBlocking(left, right, out.sure_matches);
      }));

  // Cheap, deterministic set algebra — recomputed, never checkpointed.
  out.ml_input = CandidateSet::Minus(out.candidates, out.sure_matches);

  const std::string fp_predicted =
      ChainFingerprint(fp_candidates, &out.ml_input, "ml_predicted");
  EMX_ASSIGN_OR_RETURN(
      out.ml_predicted,
      run_stage("ml_predicted", fp_predicted, [&] {
        return workflow_->RunMatching(left, right, out.ml_input);
      }));

  // The negative-rule stage produces two sets from one computation; both are
  // checkpointed under the same fingerprint, and resume requires both.
  const std::string fp_rules =
      ChainFingerprint(fp_predicted, &out.ml_predicted, "negative_rules");
  std::optional<CandidateSet> after = try_resume("after_rules", fp_rules);
  std::optional<CandidateSet> flipped =
      after ? try_resume("flipped", fp_rules) : std::nullopt;
  if (after && flipped) {
    out.after_rules = std::move(*after);
    out.flipped = std::move(*flipped);
  } else {
    Result<CandidateSet> computed =
        ComputeContained("negative_rules", [&] {
          return workflow_->RunNegativeRules(left, right, out.ml_predicted,
                                             &out.flipped);
        });
    if (!computed.ok()) return computed.status();
    out.after_rules = std::move(*computed);
    if (store) {
      EMX_RETURN_IF_ERROR(store->Put("after_rules", fp_rules,
                                     SerializeCandidateSet(out.after_rules)));
      EMX_RETURN_IF_ERROR(store->Put("flipped", fp_rules,
                                     SerializeCandidateSet(out.flipped)));
    }
  }

  out.final_matches = CandidateSet::Union(out.sure_matches, out.after_rules);
  out.provenance.Add(out.sure_matches, "sure_rule");
  out.provenance.Add(out.after_rules, "ml");
  return out;
}

}  // namespace emx
