#include "src/analysis/verifier.h"

#include <cstdio>

#include "src/analysis/passes.h"
#include "src/sku/sku.h"

namespace grt {

namespace {

std::vector<VerifierPassFactory>& ExtraPassRegistry() {
  static std::vector<VerifierPassFactory> registry;
  return registry;
}

}  // namespace

void RegisterVerifierPass(VerifierPassFactory factory) {
  ExtraPassRegistry().push_back(factory);
}

RecordingVerifier::RecordingVerifier() {
  passes_.push_back(std::make_unique<GrammarPass>());
  passes_.push_back(std::make_unique<RegisterProtocolPass>());
  passes_.push_back(std::make_unique<SpeculationResiduePass>());
  passes_.push_back(std::make_unique<PollIdempotencePass>());
  passes_.push_back(std::make_unique<MetastateCoveragePass>());
  passes_.push_back(std::make_unique<SkuCompatPass>());
  passes_.push_back(std::make_unique<FootprintSoundnessPass>());
  for (VerifierPassFactory factory : ExtraPassRegistry()) {
    passes_.push_back(factory());
  }
}

void RecordingVerifier::AddPass(std::unique_ptr<AnalysisPass> pass) {
  passes_.push_back(std::move(pass));
}

AnalysisReport RecordingVerifier::Analyze(const Recording& recording) const {
  AnalysisInput in;
  in.recording = &recording;
  auto sku = FindSku(recording.header.sku);
  if (sku.ok()) {
    in.sku = &sku.value();
  }
  in.continuation = recording.header.segment_index > 0;

  AnalysisReport report;
  for (const auto& pass : passes_) {
    pass->Run(in, &report);
  }
  report.entries_analyzed = recording.log.size();
  report.passes_run = passes_.size();
  return report;
}

Status RecordingVerifier::Verify(const Recording& recording) const {
  AnalysisReport report = Analyze(recording);
  if (report.ok()) {
    return OkStatus();
  }
  const Finding* first = report.first_error();
  char tail[64];
  std::snprintf(tail, sizeof(tail), " (%zu error(s) total)",
                report.error_count());
  return IntegrityViolation("recording rejected by static verifier: " +
                            first->ToString() + tail);
}

Status VerifyRecording(const Recording& recording) {
  static const RecordingVerifier verifier;
  return verifier.Verify(recording);
}

}  // namespace grt
