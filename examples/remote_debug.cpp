// remote_debug: the paper's "broader applicability" (§3.4) — detecting
// firmware malfunction by diffing a client's observed GPU register log
// against the cloud's recording, without the vendor ever touching the
// device.
//
// Flow: record MNIST via the cloud (the reference behavior), replay on a
// healthy device (logs identical), then inject a stuck-at fault into one
// GPU register and replay again — the diff localizes the malfunctioning
// register and the exact interaction where it first deviates.
#include <cstdio>

#include "src/cloud/session.h"
#include "src/ml/network.h"
#include "src/record/diff.h"
#include "src/record/replayer.h"

using namespace grt;

namespace {

Result<InteractionLog> ObservedReplayLog(ClientDevice* device,
                                         const Recording& recording) {
  ReplayConfig config;
  config.verify_reads = false;  // the diagnosis tool wants the full diff,
                                // not an abort at the first deviation
  config.collect_observed = true;
  Replayer replayer(&device->gpu(), &device->tzasc(), &device->mem(),
                    &device->timeline(), config);
  GRT_RETURN_IF_ERROR(replayer.Load(recording));
  GRT_ASSIGN_OR_RETURN(ReplayReport report, replayer.Replay());
  (void)report;
  return replayer.observed_log();
}

}  // namespace

int main() {
  ClientDevice device(SkuId::kMaliG71Mp8);
  NetworkDef net = BuildMnist();

  // Reference recording from the cloud.
  CloudService service;
  SpeculationHistory history;
  RecordSessionConfig config;
  config.shim = ShimConfig::OursMDS();
  RecordSession session(&service, &device, config, &history);
  if (!session.Connect().ok()) {
    return 1;
  }
  auto outcome = session.RecordWorkload(net, 1);
  if (!outcome.ok()) {
    return 1;
  }
  auto recording = Recording::ParseSigned(outcome->signed_recording,
                                          session.key()->key());
  if (!recording.ok()) {
    return 1;
  }

  // Healthy device: observed log matches the recording.
  auto healthy = ObservedReplayLog(&device, *recording);
  if (!healthy.ok()) {
    std::printf("healthy replay failed: %s\n",
                healthy.status().ToString().c_str());
    return 1;
  }
  LogDiff ok_diff = CompareInteractionLogs(recording->log, *healthy);
  std::printf("healthy device: %s (%zu interactions compared)\n",
              ok_diff.identical ? "no deviation" : "DEVIATION!",
              ok_diff.entries_compared);

  // Malfunctioning device: JS0_STATUS reports a corrupted completion code.
  device.gpu().InjectRegisterFault(JobSlotRegister(0, kJsStatus), 0x2);
  auto faulty = ObservedReplayLog(&device, *recording);
  device.gpu().ClearRegisterFault();
  if (!faulty.ok()) {
    std::printf("faulty replay failed: %s\n",
                faulty.status().ToString().c_str());
    return 1;
  }
  LogDiff bad_diff = CompareInteractionLogs(recording->log, *faulty);
  std::printf("faulty device: %s\n",
              bad_diff.identical ? "no deviation (bug!)" : "deviation found");
  std::printf("  first divergence at %s\n", bad_diff.description.c_str());
  std::printf("  %zu value mismatches across %zu interactions\n",
              bad_diff.value_mismatches, bad_diff.entries_compared);
  std::printf("(the vendor can now troubleshoot remotely, §3.4)\n");

  return ok_diff.identical && !bad_diff.identical ? 0 : 1;
}
