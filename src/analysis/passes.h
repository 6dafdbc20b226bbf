// The seven static-analysis passes over a recording (the admission gate).
//
// Pass               Checks                                        Paper
// -----------------  --------------------------------------------  ------
// grammar            per-op field validity, positive delays,       §2.3
//                    page-sized images, MMIO-window registers
// register-protocol  power-domain / job-slot / MMU-AS state        §2.3
//                    machines: reset before jobs, cores powered
//                    before submit, AS configured before use,
//                    flush completion before reissue
// speculation-residue no unvalidated predicted read values         §4.2
//                    committed into kRegRead expectations
// poll-idempotence   every kPollWait targets a read-idempotent     §4.3
//                    register with a satisfiable predicate
// metastate-coverage every job submit preceded by metastate        §5
//                    pages covering its page tables and the
//                    command buffer the chain head points into
// sku-compat         register image and core tiling match the      §2.4
//                    claimed SKU from the registry
// footprint-soundness the header's declared resource footprint     §7
//                    (v4) is well-formed and over-approximates a
//                    recomputation from the log — the evidence the
//                    serving device pool trusts for co-residency
#ifndef GRT_SRC_ANALYSIS_PASSES_H_
#define GRT_SRC_ANALYSIS_PASSES_H_

#include "src/analysis/pass.h"

namespace grt {

class GrammarPass : public AnalysisPass {
 public:
  const char* name() const override { return "grammar"; }
  void Run(const AnalysisInput& in, AnalysisReport* report) const override;
};

class RegisterProtocolPass : public AnalysisPass {
 public:
  const char* name() const override { return "register-protocol"; }
  void Run(const AnalysisInput& in, AnalysisReport* report) const override;
};

class SpeculationResiduePass : public AnalysisPass {
 public:
  const char* name() const override { return "speculation-residue"; }
  void Run(const AnalysisInput& in, AnalysisReport* report) const override;
};

class PollIdempotencePass : public AnalysisPass {
 public:
  const char* name() const override { return "poll-idempotence"; }
  void Run(const AnalysisInput& in, AnalysisReport* report) const override;
};

class MetastateCoveragePass : public AnalysisPass {
 public:
  const char* name() const override { return "metastate-coverage"; }
  void Run(const AnalysisInput& in, AnalysisReport* report) const override;
};

class SkuCompatPass : public AnalysisPass {
 public:
  const char* name() const override { return "sku-compat"; }
  void Run(const AnalysisInput& in, AnalysisReport* report) const override;
};

class FootprintSoundnessPass : public AnalysisPass {
 public:
  const char* name() const override { return "footprint-soundness"; }
  void Run(const AnalysisInput& in, AnalysisReport* report) const override;
};

}  // namespace grt

#endif  // GRT_SRC_ANALYSIS_PASSES_H_
