// RecordingVerifier: the pass manager. Runs every registered static pass
// over a recording and renders a verdict.
//
// The verifier is the admission gate for recordings (§3, §7): both the
// replayer (before touching the GPU) and the sealed store (before
// persisting) refuse recordings whose report contains errors. Passes are
// stateless and const, so one verifier can be shared across threads.
#ifndef GRT_SRC_ANALYSIS_VERIFIER_H_
#define GRT_SRC_ANALYSIS_VERIFIER_H_

#include <memory>
#include <vector>

#include "src/analysis/findings.h"
#include "src/analysis/pass.h"
#include "src/record/recording.h"

namespace grt {

// Factory for passes contributed from outside this library (e.g. the
// planopt-soundness pass, which lives with the plan superoptimizer in
// src/analysis/planopt but must run at recording admission). Factories
// registered before a RecordingVerifier is constructed are appended
// after the standard passes. Safe to call from static initializers;
// VerifyRecording's shared verifier is constructed lazily on first use,
// after all registrations.
using VerifierPassFactory = std::unique_ptr<AnalysisPass> (*)();
void RegisterVerifierPass(VerifierPassFactory factory);

class RecordingVerifier {
 public:
  // A verifier with all seven standard passes plus every registered
  // extra pass.
  RecordingVerifier();

  // Registers an additional pass (runs after the standard ones).
  void AddPass(std::unique_ptr<AnalysisPass> pass);

  const std::vector<std::unique_ptr<AnalysisPass>>& passes() const {
    return passes_;
  }

  // Runs every pass over the recording and returns the full report.
  // Resolves the claimed SKU and continuation-segment handling internally.
  AnalysisReport Analyze(const Recording& recording) const;

  // Analyze + verdict: OK if the report has no errors, otherwise
  // kIntegrityViolation carrying the first error and the error count.
  Status Verify(const Recording& recording) const;

 private:
  std::vector<std::unique_ptr<AnalysisPass>> passes_;
};

// One-shot convenience used by the replayer and the store.
Status VerifyRecording(const Recording& recording);

}  // namespace grt

#endif  // GRT_SRC_ANALYSIS_VERIFIER_H_
