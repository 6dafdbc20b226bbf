// Recording bytes pinned across commits: SHA-256 digests of recordings,
// compared with constants taken from an earlier build. A change that moves
// a single recorded byte (recorder, shim, memory sync, driver, device
// model, container) fails here, so a refactor or speedup of the record
// side that claims byte-identical recordings is checked in CI instead of
// by a one-off harness. The file uses only long-standing APIs, so the same
// test builds and passes unchanged on the commit the constants came from.
//
// Coverage: all six networks under OursM, OursMD and OursMDS; Naive on
// mnist and squeezenet (vgg16's Naive session spends seconds copying raw
// pages); one layered recording; one chaos schedule with a hard disconnect
// (body digest: a re-key changes only the signature); one recording of the
// local GR baseline (Recorder over the native stack).
//
// A digest only changes when recordings do. If that is intended, update
// the constant from the failure message and say why in the change log.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/cloud/session.h"
#include "src/common/sha256.h"
#include "src/harness/chaos.h"
#include "src/harness/experiment.h"
#include "src/harness/rig.h"
#include "src/ml/network.h"
#include "src/ml/runner.h"
#include "src/record/recorder.h"

namespace grt {
namespace {

constexpr SkuId kSku = SkuId::kMaliG71Mp8;
constexpr uint64_t kDeviceSeed = 11;

NetworkDef NetworkNamed(const std::string& name) {
  for (NetworkDef& net : BuildAllNetworks()) {
    if (net.name == name) {
      return net;
    }
  }
  ADD_FAILURE() << "no network " << name;
  return BuildMnist();
}

struct PinnedSession {
  const char* net;
  const char* variant;
  const char* digest;  // SHA-256 of the signed recording
};

void PrintTo(const PinnedSession& s, std::ostream* os) {
  *os << s.net << "/" << s.variant;
}

class SignedRecordingDigest : public ::testing::TestWithParam<PinnedSession> {
};

TEST_P(SignedRecordingDigest, MatchesPinned) {
  const PinnedSession& p = GetParam();
  ClientDevice device(kSku, kDeviceSeed);
  SpeculationHistory history;
  auto m = RunRecordVariant(&device, NetworkNamed(p.net), p.variant,
                            WifiConditions(), &history, /*warm_runs=*/0);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(DigestToHex(Sha256::Hash(m->signed_recording)), p.digest);
}

const PinnedSession kPinned[] = {
    {"mnist", "Naive",
     "8cbbf7a06ccc77fe7408588e043a5178c116c15262897ec6c1e08a283f87a71c"},
    {"mnist", "OursM",
     "bdd42654478dcef94c9b8f04dbedd474ef8609f713609ca52f2d56317adec0ae"},
    {"mnist", "OursMD",
     "a66f22f0f42959cddb0891d0ca2fddc1459e4605ad72b2205be48345dea51730"},
    {"mnist", "OursMDS",
     "0b19cc86d20ef1475c4473a7af8becf17f124e6e87730fdde1f7295cfe1a859b"},
    {"squeezenet", "Naive",
     "0721d1466ec029fc806b12cc49be93202933e606324f9d6c2a29ba2e33ae508f"},
    {"squeezenet", "OursM",
     "06fbcaaf1c3207366e049a2da95320cf591934e27411aef556446ccfb03d806f"},
    {"squeezenet", "OursMD",
     "c61048e8e6782b6855a5212dc42d62d0311b3b90ab141cce3cfd1a8a549a9d20"},
    {"squeezenet", "OursMDS",
     "5e914e094f086f4cb8eb383374f5f2db014ace3cabf61e2c4dbf48140d7f001c"},
    {"alexnet", "OursM",
     "2b9e3f95838af0fc6da517235965b9e8eae685c946a58771fb4e19d1b0ca97b1"},
    {"alexnet", "OursMD",
     "033f026ec6275e920e4a2291a7fed6cf5d2ee72f85d108766103711608f59e78"},
    {"alexnet", "OursMDS",
     "b42e3e26a1b2f5ed0f60325e10fdb180b77987b3eb238dfbd8fb683fb24eaba1"},
    {"mobilenet", "OursM",
     "7a89f7ddce50a29e2c68d7d26b47494f73bf49c1a84d38969ccf1f8401fc1394"},
    {"mobilenet", "OursMD",
     "eeae47086e16d2e1e4a738cfe90a236649abd451ccd0fcfa5703bb6482a02933"},
    {"mobilenet", "OursMDS",
     "5fe9dbc4aef3efb812011b98d52e2c1d4b6c054e5a77b1b48e95287ede2e4c9d"},
    {"resnet12", "OursM",
     "137b50e496a14f380062d920ab685396390c4e709939a9c0363578df6359d87d"},
    {"resnet12", "OursMD",
     "03abd8b8ddf67d0f7be48771aa3eb98de34309ed82c66292bc6a8ecb3e7fafe1"},
    {"resnet12", "OursMDS",
     "b3c79d470e2c4196b62385d0b2dca18e9148cf428ff673c2076398924e7049ec"},
    {"vgg16", "OursM",
     "9ea0fe10721acd0827d2c1085629861e922585b58707a0e3da25f41d28791963"},
    {"vgg16", "OursMD",
     "5056134150b9895c6dcc953e357dbfc43e8f39097d7699943ab776d899adec7f"},
    {"vgg16", "OursMDS",
     "02a4b99d8b5145840a6964ce3430724b5cc34331463b153c8a6b7df39d1ac218"},
};

INSTANTIATE_TEST_SUITE_P(
    Sessions, SignedRecordingDigest, ::testing::ValuesIn(kPinned),
    [](const ::testing::TestParamInfo<PinnedSession>& session) {
      return std::string(session.param.net) + "_" + session.param.variant;
    });

TEST(RecordingDigest, LayeredMnistSegments) {
  ClientDevice device(kSku, kDeviceSeed);
  CloudService service;
  SpeculationHistory history;
  RecordSessionConfig config;
  config.shim = ShimConfig::OursMDS();
  config.session_nonce_seed = 7;
  RecordSession session(&service, &device, config, &history);
  ASSERT_TRUE(session.Connect().ok());
  auto wires = session.RecordWorkloadLayered(BuildMnist(), /*nonce=*/42);
  ASSERT_TRUE(wires.ok()) << wires.status().ToString();
  Sha256 all;
  for (const Bytes& wire : *wires) {
    all.Update(wire);
  }
  EXPECT_GT(wires->size(), 2u);
  EXPECT_EQ(DigestToHex(all.Finish()),
            "3dfb5da4313cc60620536180b0437da2355ee5194549aca09604a5b9273be1a5");
}

TEST(RecordingDigest, ChaosScheduleBody) {
  // Schedule 5 over WiFi drops, corrupts, duplicates and disconnects.
  auto run = RunChaosSession(BuildMnist(), kSku, WifiConditions(),
                             FaultPlan::FromSeed(5), /*nondet_seed=*/3,
                             /*nonce=*/7);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run->fault_stats.disconnects, 0u);
  EXPECT_EQ(DigestToHex(run->body_digest),
            "6fc3d013c651476102ae9470b28ad9a7cd51d698bb539277befb47c6fea5c371");
}

TEST(RecordingDigest, NativeStackRecorder) {
  ClientDevice device(kSku, kDeviceSeed);
  NetworkDef net = BuildMnist();
  NativeStack stack(&device);
  Recorder recorder(&stack.driver(), &device.mem());
  stack.bus().SetObserver(&recorder);
  ASSERT_TRUE(stack.BringUp().ok());
  NnRunner runner(net, &stack.runtime());
  ASSERT_TRUE(runner.Setup(/*zero_params=*/true).ok());
  auto dry = runner.Run();
  ASSERT_TRUE(dry.ok()) << dry.status().ToString();
  recorder.SnapshotMemory();
  stack.bus().SetObserver(nullptr);

  std::map<std::string, TensorBinding> bindings;
  for (const TensorDef& t : net.tensors) {
    if (t.kind == TensorKind::kActivation) {
      continue;
    }
    auto binding = MakeBinding(stack.driver(), runner.buffers().at(t.name).va,
                               t.n_floats, t.kind != TensorKind::kOutput);
    ASSERT_TRUE(binding.ok());
    bindings[t.name] = std::move(*binding);
  }
  auto rec = recorder.Finish(net.name, kSku, bindings, /*nonce=*/99);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(DigestToHex(Sha256::Hash(rec->SerializeSigned(Bytes(32, 0x42)))),
            "7d123aa15a8750b570435425ec14f9c1e85df24ec15c4b795f718eea94e8a982");
}

}  // namespace
}  // namespace grt
