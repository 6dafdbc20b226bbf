// recording_inspector: produces a recording and dissects it — what a
// developer tooling view of GR-T's artifact looks like. Prints the header,
// the tensor bindings (the replayer's injection/readout points), an entry
// histogram, the per-register access profile (the paper's "hot function"
// observation: a handful of registers dominate), and the memory-image
// composition (metastate vs program data, §5).
//
// Flags:
//   --lint          additionally run the static verifier and print its
//                   findings (exit code 1 if the recording has errors)
//   --dump          additionally print every log entry
//   --diff <other>  parse <other> as a serialized (unsigned) recording body
//                   — e.g. one written by an earlier --save — and
//                   summarize op-count deltas against the freshly
//                   recorded original
//   --plan          compile the recording into a ReplayPlan (src/record/
//                   plan) and print what the lowering produced: op counts,
//                   the coalesced initial-image region table, mid-replay
//                   metastate reapplications, the tensor patch table, and
//                   the pages folded or dropped at compile time
//   --save <file>   write this recording's unsigned body to <file> (the
//                   input format grt_lint consumes)
//   --metrics       enable the observability layer for the whole run
//                   (record + a cold and a warm replay) and print the
//                   metrics registry: shim commit/speculation/poll
//                   counters, net bytes and RTTs, recorder entries, and
//                   replay page accounting
//   --footprint     print the recording's static resource footprint (the
//                   v4 header block the device pool uses for co-residency
//                   decisions): classified register ranges, written page
//                   set, IRQ lines, and slot/AS latch masks
//   --fused         with --plan: run the planopt superoptimizer
//                   (src/analysis/planopt) on the compiled plan and print
//                   the fused warm schedule, per-op provenance, and the
//                   warm-invariant vs input-dependent partition; exit
//                   code 1 if the provenance check rejects the program
//   --json          with --footprint or --fused, emit JSON instead of the
//                   human-readable form
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

#include "src/analysis/footprint/footprint.h"
#include "src/analysis/planopt/planopt.h"
#include "src/analysis/verifier.h"
#include "src/cloud/session.h"
#include "src/harness/table.h"
#include "src/hw/regs.h"
#include "src/ml/network.h"
#include "src/obs/metrics.h"
#include "src/record/plan.h"
#include "src/record/replayer.h"

using namespace grt;

namespace {

void DumpLog(const InteractionLog& log) {
  std::printf("\n--- log dump ---\n");
  const auto& entries = log.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    const LogEntry& e = entries[i];
    switch (e.op) {
      case LogOp::kRegWrite:
        std::printf("  %5zu  write  %-20s = 0x%08X\n", i,
                    RegisterName(e.reg), e.value);
        break;
      case LogOp::kRegRead:
        std::printf("  %5zu  read   %-20s : 0x%08X%s\n", i,
                    RegisterName(e.reg), e.value,
                    e.speculative ? "  [speculative!]" : "");
        break;
      case LogOp::kPollWait:
        std::printf("  %5zu  poll   %-20s mask 0x%08X == 0x%08X "
                    "(final 0x%08X)\n",
                    i, RegisterName(e.reg), e.mask, e.expected, e.value);
        break;
      case LogOp::kDelay:
        std::printf("  %5zu  delay  %lld ns\n", i,
                    static_cast<long long>(e.delay));
        break;
      case LogOp::kIrqWait:
        std::printf("  %5zu  irq    lines 0x%02X\n", i, e.irq_lines);
        break;
      case LogOp::kMemPage:
        std::printf("  %5zu  page   pa 0x%010llx %s (%zu B)\n", i,
                    static_cast<unsigned long long>(e.pa),
                    e.metastate ? "meta" : "data", e.data.size());
        break;
    }
  }
}

// Per-op-kind counts, for the --diff summary.
std::map<LogOp, size_t> CountByOp(const InteractionLog& log) {
  std::map<LogOp, size_t> counts;
  for (const LogEntry& e : log.entries()) {
    ++counts[e.op];
  }
  return counts;
}

int DiffAgainst(const Recording& original, const char* other_path) {
  std::ifstream in(other_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", other_path);
    return 2;
  }
  Bytes raw((std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
  auto other = Recording::ParseUnsigned(raw);
  if (!other.ok()) {
    std::fprintf(stderr, "%s: %s\n", other_path,
                 other.status().ToString().c_str());
    return 2;
  }

  std::printf("\n--- op-count diff vs %s ---\n", other_path);
  const char* kind_names[] = {"?",     "reg write", "reg read", "poll wait",
                              "delay", "irq wait",  "mem page"};
  auto before = CountByOp(original.log);
  auto after = CountByOp(other->log);
  TextTable table({"op", "original", other_path, "delta"});
  for (int op = 1; op <= 6; ++op) {
    size_t a = before[static_cast<LogOp>(op)];
    size_t b = after[static_cast<LogOp>(op)];
    if (a == 0 && b == 0) {
      continue;
    }
    char delta[32];
    std::snprintf(delta, sizeof(delta), "%+lld",
                  static_cast<long long>(b) - static_cast<long long>(a));
    table.AddRow({kind_names[op], std::to_string(a), std::to_string(b),
                  delta});
  }
  char total_delta[32];
  std::snprintf(total_delta, sizeof(total_delta), "%+lld",
                static_cast<long long>(other->log.size()) -
                    static_cast<long long>(original.log.size()));
  table.AddRow({"total", std::to_string(original.log.size()),
                std::to_string(other->log.size()), total_delta});
  table.Print();
  return 0;
}

int InspectPlan(const Recording& rec, bool fused, bool json) {
  ReplayPlan plan = CompileReplayPlan(rec);
  std::printf("\n--- compiled replay plan ---\n");
  std::printf("lowered %zu log entries -> %zu ops + %u initial-image pages "
              "(%.1f KB)\n",
              plan.source_entries, plan.ops.size(), plan.image_pages,
              plan.image_bytes / 1024.0);
  std::printf("  folded at compile: %u duplicate page snapshot(s), "
              "%u post-job-start data page(s)\n",
              plan.duplicate_pages, plan.dropped_pages);

  const struct { LogOp op; const char* name; } kKinds[] = {
      {LogOp::kRegWrite, "reg write"}, {LogOp::kRegRead, "reg read"},
      {LogOp::kPollWait, "poll wait"}, {LogOp::kDelay, "delay"},
      {LogOp::kIrqWait, "irq wait"},   {LogOp::kMemPage, "mid image"},
  };
  std::printf("\n  op array:\n");
  for (const auto& k : kKinds) {
    size_t n = plan.CountOps(k.op);
    if (n > 0) {
      std::printf("    %-10s %6zu\n", k.name, n);
    }
  }

  std::printf("\n  initial image, coalesced into %zu contiguous region(s):\n",
              plan.regions.size());
  TextTable regions({"base pa", "pages", "KB", "metastate"});
  for (const PlanRegion& region : plan.regions) {
    char base[24];
    std::snprintf(base, sizeof(base), "0x%010llx",
                  static_cast<unsigned long long>(region.base_pa));
    size_t meta = 0;
    for (bool m : region.metastate) {
      if (m) ++meta;
    }
    regions.AddRow({base, std::to_string(region.n_pages),
                    std::to_string(region.image.size() / 1024),
                    std::to_string(meta)});
  }
  regions.Print();
  if (!plan.mid_images.empty()) {
    std::printf("\n  %zu mid-replay metastate reapplication(s) kept as "
                "ordered ops\n",
                plan.mid_images.size());
  }

  std::printf("\n  tensor patch table:\n");
  for (const auto& [name, patch] : plan.patches) {
    std::printf("    %-14s %8llu floats in %3zu chunk(s), %s%s\n",
                name.c_str(),
                static_cast<unsigned long long>(patch.n_floats),
                patch.chunks.size(),
                patch.writable ? "injectable" : "read-only",
                patch.complete ? "" : "  [INCOMPLETE PAGE LIST]");
  }

  if (fused) {
    auto sku = FindSku(rec.header.sku);
    if (!sku.ok()) {
      std::fprintf(stderr, "cannot resolve SKU for --fused: %s\n",
                   sku.status().ToString().c_str());
      return 1;
    }
    std::string decline;
    Status st = AttachWarmProgram(&plan, sku.value(), &decline);
    if (!st.ok()) {
      std::fprintf(stderr, "planopt provenance check FAILED: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    if (plan.warm == nullptr) {
      std::printf("\n--- fused warm program ---\nsuperoptimizer declined: "
                  "%s\n",
                  decline.c_str());
      return 0;
    }
    std::printf("\n--- fused warm program ---\n%s",
                FormatWarmProgram(plan, json).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool lint = false, dump = false, show_plan = false;
  bool metrics = false, footprint = false, json = false, fused = false;
  const char* diff_path = nullptr;
  const char* save_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--lint") == 0) {
      lint = true;
    } else if (std::strcmp(argv[i], "--dump") == 0) {
      dump = true;
    } else if (std::strcmp(argv[i], "--plan") == 0) {
      show_plan = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(argv[i], "--footprint") == 0) {
      footprint = true;
    } else if (std::strcmp(argv[i], "--fused") == 0) {
      fused = true;
      show_plan = true;  // the fused schedule is part of the plan view
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--diff") == 0 && i + 1 < argc) {
      diff_path = argv[++i];
    } else if (std::strcmp(argv[i], "--save") == 0 && i + 1 < argc) {
      save_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--lint] [--dump] [--plan] "
                   "[--fused] [--metrics] [--footprint [--json]] "
                   "[--diff <other>] [--save <file>]\n",
                   argv[0]);
      return 2;
    }
  }
  if (metrics) {
    // On before the record session so the shim/net/recorder counters see
    // the whole interaction, not just the replay.
    obs::SetEnabled(true);
  }
  ClientDevice device(SkuId::kMaliG71Mp8);
  NetworkDef net = BuildMnist();
  CloudService service;
  SpeculationHistory history;
  RecordSessionConfig config;
  RecordSession session(&service, &device, config, &history);
  if (!session.Connect().ok()) {
    return 1;
  }
  auto outcome = session.RecordWorkload(net, 7);
  if (!outcome.ok()) {
    return 1;
  }
  auto rec = Recording::ParseSigned(outcome->signed_recording,
                                    session.key()->key());
  if (!rec.ok()) {
    return 1;
  }

  std::printf("=== recording: %s ===\n", rec->header.workload.c_str());
  std::printf("sku: 0x%x   nonce: %llu   segments: %u/%u   wire size: %zu B\n",
              static_cast<uint32_t>(rec->header.sku),
              static_cast<unsigned long long>(rec->header.record_nonce),
              rec->header.segment_index + 1, rec->header.segment_count,
              outcome->signed_recording.size());

  std::printf("\n--- tensor bindings (%zu) ---\n", rec->bindings.size());
  for (const auto& [name, b] : rec->bindings) {
    std::printf("  %-14s %8llu floats @ va 0x%llx, %zu pages, %s\n",
                name.c_str(), static_cast<unsigned long long>(b.n_floats),
                static_cast<unsigned long long>(b.va), b.pages.size(),
                b.writable_at_replay ? "injectable" : "read-only");
  }

  std::printf("\n--- interaction log (%zu entries) ---\n", rec->log.size());
  const char* kind_names[] = {"?",     "reg write", "reg read", "poll wait",
                              "delay", "irq wait",  "mem page"};
  std::map<LogOp, size_t> by_kind;
  std::map<uint32_t, size_t> by_reg;
  size_t meta_pages = 0, data_pages = 0, image_bytes = 0;
  for (const LogEntry& e : rec->log.entries()) {
    ++by_kind[e.op];
    if (e.op == LogOp::kRegRead || e.op == LogOp::kRegWrite ||
        e.op == LogOp::kPollWait) {
      ++by_reg[e.reg];
    }
    if (e.op == LogOp::kMemPage) {
      (e.metastate ? meta_pages : data_pages) += 1;
      image_bytes += e.data.size();
    }
  }
  for (const auto& [op, n] : by_kind) {
    std::printf("  %-10s %6zu\n", kind_names[static_cast<int>(op)], n);
  }

  std::printf("\n--- register access profile (top 10) ---\n");
  std::vector<std::pair<size_t, uint32_t>> ranked;
  for (const auto& [reg, n] : by_reg) {
    ranked.push_back({n, reg});
  }
  std::sort(ranked.rbegin(), ranked.rend());
  size_t total = 0, top = 0;
  for (const auto& [n, reg] : ranked) {
    total += n;
  }
  for (size_t i = 0; i < std::min<size_t>(10, ranked.size()); ++i) {
    top += ranked[i].first;
    std::printf("  %-20s %5zu\n", RegisterName(ranked[i].second),
                ranked[i].first);
  }
  std::printf("top-10 registers carry %.0f%% of all register interactions\n"
              "(the locality behind the paper's hot-function scoping, S4.1)\n",
              100.0 * top / total);

  std::printf("\n--- memory image ---\n");
  std::printf("  metastate pages: %zu   program-data pages: %zu   "
              "%.1f KB total\n",
              meta_pages, data_pages, image_bytes / 1024.0);

  if (footprint) {
    if (json) {
      std::printf("\n%s\n", FootprintToJson(rec->header.footprint).c_str());
    } else {
      std::printf("\n--- static resource footprint ---\n%s\n",
                  FootprintToString(rec->header.footprint).c_str());
    }
  }
  if (dump) {
    DumpLog(rec->log);
  }
  if (show_plan) {
    int rc = InspectPlan(*rec, fused, json);
    if (rc != 0) {
      return rc;
    }
  }
  if (save_path != nullptr) {
    Bytes body = rec->SerializeBody();
    std::ofstream out(save_path, std::ios::binary);
    if (!out || !out.write(reinterpret_cast<const char*>(body.data()),
                           static_cast<std::streamsize>(body.size()))) {
      std::fprintf(stderr, "cannot write %s\n", save_path);
      return 2;
    }
    std::printf("\nsaved unsigned body to %s (%zu B)\n", save_path,
                body.size());
  }
  if (diff_path != nullptr) {
    int rc = DiffAgainst(*rec, diff_path);
    if (rc != 0) {
      return rc;
    }
  }
  if (lint) {
    RecordingVerifier verifier;
    AnalysisReport report = verifier.Analyze(*rec);
    std::printf("\n--- static verifier ---\n%s\n", report.ToString().c_str());
    if (!report.ok()) {
      return 1;
    }
  }
  if (metrics) {
    // One cold and one warm replay on a fresh device populate the
    // replay.* side of the registry (plan path, dirty-page tracking).
    ClientDevice replay_device(SkuId::kMaliG71Mp8, /*nondet_seed=*/1);
    ReplayConfig rconfig;
    Replayer replayer(&replay_device.gpu(), &replay_device.tzasc(),
                      &replay_device.mem(), &replay_device.timeline(),
                      rconfig);
    Status loaded = replayer.Load(*rec);
    if (!loaded.ok()) {
      std::fprintf(stderr, "metrics replay load failed: %s\n",
                   loaded.ToString().c_str());
      return 1;
    }
    for (int pass = 0; pass < 2; ++pass) {
      auto report = replayer.Replay();
      if (!report.ok()) {
        std::fprintf(stderr, "metrics replay failed: %s\n",
                     report.status().ToString().c_str());
        return 1;
      }
    }
    std::printf("\n--- observability metrics ---\n%s",
                obs::MetricsRegistry::Global().Snapshot().ToString().c_str());
  }
  return 0;
}
