// Replay-correctness property tests across workloads, variants, inputs,
// and SKUs: the core guarantees of §2.3 (completeness, determinism,
// input independence) checked end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "src/harness/experiment.h"
#include "src/ml/reference.h"
#include "src/record/replayer.h"

namespace grt {
namespace {

struct Recorded {
  Bytes wire;
  Bytes key;
};

Result<Recorded> Record(ClientDevice* device, const NetworkDef& net,
                        const std::string& variant) {
  SpeculationHistory history;
  GRT_ASSIGN_OR_RETURN(
      RecordMeasurement m,
      RunRecordVariant(device, net, variant, WifiConditions(), &history,
                       variant == "OursMDS" ? 1 : 0));
  return Recorded{std::move(m.signed_recording), std::move(m.session_key)};
}

Result<std::vector<float>> ReplayOutput(ClientDevice* device,
                                        const NetworkDef& net,
                                        const Recorded& rec,
                                        uint64_t param_seed,
                                        uint64_t input_seed) {
  Replayer replayer(&device->gpu(), &device->tzasc(), &device->mem(),
                    &device->timeline());
  GRT_RETURN_IF_ERROR(replayer.LoadSigned(rec.wire, rec.key));
  for (const TensorDef& t : net.tensors) {
    if (t.kind == TensorKind::kParam) {
      GRT_RETURN_IF_ERROR(replayer.StageTensor(
          t.name, GenerateParams(net.name, t, param_seed)));
    }
  }
  GRT_RETURN_IF_ERROR(
      replayer.StageTensor("input", GenerateInput(net, input_seed)));
  GRT_ASSIGN_OR_RETURN(ReplayReport report, replayer.Replay());
  (void)report;
  return replayer.ReadTensor(net.output_tensor);
}

// --- Every workload records over the network and replays correctly. -------

class PerNetworkReplay : public ::testing::TestWithParam<int> {};

TEST_P(PerNetworkReplay, GrtRecordingReplaysToReference) {
  NetworkDef net = BuildAllNetworks()[GetParam()];
  ClientDevice device(SkuId::kMaliG71Mp8, 61);
  auto rec = Record(&device, net, "OursMDS");
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  auto out = ReplayOutput(&device, net, *rec, 7, 1234);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto ref = RunReference(net, GenerateInput(net, 1234), 7);
  ASSERT_TRUE(ref.ok());
  EXPECT_LT(MaxAbsDiff(*out, *ref), 1e-4f) << net.name;
}

INSTANTIATE_TEST_SUITE_P(AllNets, PerNetworkReplay, ::testing::Range(0, 6));

// --- All four variants produce recordings that replay identically. --------

TEST(ReplayProperties, AllVariantsReplayEquivalently) {
  NetworkDef net = BuildMnist();
  std::vector<float> input = GenerateInput(net, 5);
  std::vector<float> reference = RunReference(net, input, 3).value();
  for (const std::string& variant : AllVariantNames()) {
    ClientDevice device(SkuId::kMaliG71Mp8, 67);
    auto rec = Record(&device, net, variant);
    ASSERT_TRUE(rec.ok()) << variant << ": " << rec.status().ToString();
    auto out = ReplayOutput(&device, net, *rec, 3, 5);
    ASSERT_TRUE(out.ok()) << variant << ": " << out.status().ToString();
    EXPECT_LT(MaxAbsDiff(*out, reference), 1e-4f) << variant;
  }
}

// --- Input independence: one recording serves many inputs (§2.3). ---------

TEST(ReplayProperties, OneRecordingManyInputs) {
  NetworkDef net = BuildMnist();
  ClientDevice device(SkuId::kMaliG71Mp8, 71);
  auto rec = Record(&device, net, "OursMDS");
  ASSERT_TRUE(rec.ok());

  Replayer replayer(&device.gpu(), &device.tzasc(), &device.mem(),
                    &device.timeline());
  ASSERT_TRUE(replayer.LoadSigned(rec->wire, rec->key).ok());
  for (const TensorDef& t : net.tensors) {
    if (t.kind == TensorKind::kParam) {
      ASSERT_TRUE(
          replayer.StageTensor(t.name, GenerateParams(net.name, t, 9)).ok());
    }
  }
  for (uint64_t input_seed : {1u, 2u, 3u, 4u, 5u}) {
    std::vector<float> input = GenerateInput(net, input_seed);
    ASSERT_TRUE(replayer.StageTensor("input", input).ok());
    ASSERT_TRUE(replayer.Replay().ok());
    auto out = replayer.ReadTensor(net.output_tensor);
    auto ref = RunReference(net, input, 9);
    ASSERT_TRUE(out.ok() && ref.ok());
    EXPECT_LT(MaxAbsDiff(*out, *ref), 1e-4f) << "input seed " << input_seed;
  }
}

// --- Replay determinism: same input twice => bit-identical output. --------

TEST(ReplayProperties, ReplayIsDeterministic) {
  NetworkDef net = BuildMnist();
  ClientDevice device(SkuId::kMaliG71Mp8, 73);
  auto rec = Record(&device, net, "OursMDS");
  ASSERT_TRUE(rec.ok());
  auto out1 = ReplayOutput(&device, net, *rec, 11, 22);
  auto out2 = ReplayOutput(&device, net, *rec, 11, 22);
  ASSERT_TRUE(out1.ok() && out2.ok());
  EXPECT_EQ(*out1, *out2);  // bit-exact
}

// --- Model privacy: new parameters at replay, never sent to the cloud. ----

TEST(ReplayProperties, FreshParametersChangeOutput) {
  NetworkDef net = BuildMnist();
  ClientDevice device(SkuId::kMaliG71Mp8, 79);
  auto rec = Record(&device, net, "OursMDS");
  ASSERT_TRUE(rec.ok());
  auto model_a = ReplayOutput(&device, net, *rec, 100, 1);
  auto model_b = ReplayOutput(&device, net, *rec, 200, 1);
  ASSERT_TRUE(model_a.ok() && model_b.ok());
  EXPECT_GT(MaxAbsDiff(*model_a, *model_b), 0.0f);
  // And each matches its own reference.
  EXPECT_LT(MaxAbsDiff(*model_a,
                       RunReference(net, GenerateInput(net, 1), 100).value()),
            1e-4f);
  EXPECT_LT(MaxAbsDiff(*model_b,
                       RunReference(net, GenerateInput(net, 1), 200).value()),
            1e-4f);
}

// --- The replayer refuses misuse. ------------------------------------------

TEST(ReplayProperties, ReplayerValidatesStaging) {
  NetworkDef net = BuildMnist();
  ClientDevice device(SkuId::kMaliG71Mp8, 83);
  auto rec = Record(&device, net, "OursMDS");
  ASSERT_TRUE(rec.ok());
  Replayer replayer(&device.gpu(), &device.tzasc(), &device.mem(),
                    &device.timeline());
  // Staging before load fails.
  EXPECT_EQ(replayer.StageTensor("input", {1.0f}).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(replayer.LoadSigned(rec->wire, rec->key).ok());
  // Unknown tensor.
  EXPECT_EQ(replayer.StageTensor("nonsense", {1.0f}).code(),
            StatusCode::kNotFound);
  // Wrong size.
  EXPECT_EQ(replayer.StageTensor("input", {1.0f, 2.0f}).code(),
            StatusCode::kInvalidArgument);
  // Output tensors are not injectable.
  EXPECT_EQ(replayer
                .StageTensor(net.output_tensor, std::vector<float>(10, 0.f))
                .code(),
            StatusCode::kPermissionDenied);
}

// --- GPU is locked away from the normal world during recording. -----------

TEST(ReplayProperties, NormalWorldLockedOutDuringRecording) {
  NetworkDef net = BuildMnist();
  ClientDevice device(SkuId::kMaliG71Mp8, 89);
  CloudService service;
  SpeculationHistory history;
  RecordSessionConfig config;
  config.shim = ShimConfig::OursMDS();
  RecordSession session(&service, &device, config, &history);
  ASSERT_TRUE(session.Connect().ok());

  uint64_t violations_before = device.tzasc().violations();
  session.gpushim().BeginSession();
  // A normal-world app pokes the GPU mid-recording: denied and counted.
  EXPECT_FALSE(device.tzasc()
                   .ReadGpuRegister(World::kNormal, &device.gpu(), kRegGpuId)
                   .ok());
  EXPECT_GT(device.tzasc().violations(), violations_before);
  session.gpushim().EndSession();
  // After the session the normal world gets its GPU back.
  EXPECT_TRUE(device.tzasc()
                  .ReadGpuRegister(World::kNormal, &device.gpu(), kRegGpuId)
                  .ok());
}

// --- Warm replays re-inject only the staged tensors that changed. ---------

Status StageModel(Replayer* replayer, const NetworkDef& net,
                  uint64_t param_seed) {
  for (const TensorDef& t : net.tensors) {
    if (t.kind == TensorKind::kParam) {
      GRT_RETURN_IF_ERROR(replayer->StageTensor(
          t.name, GenerateParams(net.name, t, param_seed)));
    }
  }
  return OkStatus();
}

const TensorDef& LargestParam(const NetworkDef& net) {
  const TensorDef* best = nullptr;
  for (const TensorDef& t : net.tensors) {
    if (t.kind == TensorKind::kParam &&
        (best == nullptr || t.n_floats > best->n_floats)) {
      best = &t;
    }
  }
  return *best;
}

bool BitIdentical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Counts the bytes any write lands on a set of physical pages while it is
// registered.
class PageWriteCounter {
 public:
  PageWriteCounter(PhysicalMemory* mem, const std::vector<uint64_t>& pages)
      : mem_(mem), pages_(pages.begin(), pages.end()) {
    id_ = mem_->AddWriteObserver([this](uint64_t pa, uint64_t len) {
      for (uint64_t p = PageAlignDown(pa); p < pa + len; p += kPageSize) {
        if (pages_.count(p) > 0) {
          bytes_ += std::min(pa + len, p + kPageSize) - std::max(pa, p);
        }
      }
    });
  }
  ~PageWriteCounter() { mem_->RemoveWriteObserver(id_); }
  PageWriteCounter(const PageWriteCounter&) = delete;
  PageWriteCounter& operator=(const PageWriteCounter&) = delete;

  uint64_t bytes() const { return bytes_; }

 private:
  PhysicalMemory* mem_;
  std::set<uint64_t> pages_;
  int id_ = 0;
  uint64_t bytes_ = 0;
};

TEST(ReplayProperties, WarmReplayLeavesUnchangedWeightsUntouched) {
  NetworkDef net = BuildMnist();
  ClientDevice device(SkuId::kMaliG71Mp8, 97);
  auto rec = Record(&device, net, "OursMDS");
  ASSERT_TRUE(rec.ok());
  Replayer replayer(&device.gpu(), &device.tzasc(), &device.mem(),
                    &device.timeline());
  ASSERT_TRUE(replayer.LoadSigned(rec->wire, rec->key).ok());
  ASSERT_TRUE(StageModel(&replayer, net, 9).ok());
  ASSERT_TRUE(
      replayer.StageTensor(net.input_tensor, GenerateInput(net, 1)).ok());
  ASSERT_TRUE(replayer.Replay().ok());

  // A new input only: the weights' pages are clean and not restaged, so
  // the warm replay must not write a byte to them.
  const TensorDef& weights = LargestParam(net);
  PageWriteCounter counter(
      &device.mem(), replayer.recording().bindings.at(weights.name).pages);
  ASSERT_TRUE(
      replayer.StageTensor(net.input_tensor, GenerateInput(net, 2)).ok());
  auto warm = replayer.Replay();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->warm);
  EXPECT_EQ(counter.bytes(), 0u) << weights.name;

  auto out = replayer.ReadTensor(net.output_tensor);
  ClientDevice fresh(SkuId::kMaliG71Mp8, 97);
  auto want = ReplayOutput(&fresh, net, *rec, 9, 2);
  ASSERT_TRUE(out.ok() && want.ok());
  EXPECT_TRUE(BitIdentical(*out, *want));
}

TEST(ReplayProperties, WriteIntoWeightPageForcesReinjection) {
  NetworkDef net = BuildMnist();
  ClientDevice device(SkuId::kMaliG71Mp8, 101);
  auto rec = Record(&device, net, "OursMDS");
  ASSERT_TRUE(rec.ok());
  Replayer replayer(&device.gpu(), &device.tzasc(), &device.mem(),
                    &device.timeline());
  ASSERT_TRUE(replayer.LoadSigned(rec->wire, rec->key).ok());
  ASSERT_TRUE(StageModel(&replayer, net, 9).ok());
  ASSERT_TRUE(
      replayer.StageTensor(net.input_tensor, GenerateInput(net, 1)).ok());
  ASSERT_TRUE(replayer.Replay().ok());

  // Clobber the middle of one weight page between replays.
  const TensorDef& weights = LargestParam(net);
  const std::vector<uint64_t>& pages =
      replayer.recording().bindings.at(weights.name).pages;
  uint8_t junk[16];
  std::memset(junk, 0x5C, sizeof(junk));
  ASSERT_TRUE(
      device.mem().Write(pages[pages.size() / 2] + 100, junk, sizeof(junk))
          .ok());

  PageWriteCounter counter(&device.mem(), pages);
  ASSERT_TRUE(
      replayer.StageTensor(net.input_tensor, GenerateInput(net, 2)).ok());
  auto warm = replayer.Replay();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->warm);
  EXPECT_GT(counter.bytes(), 0u) << "the written tensor was not re-injected";

  auto out = replayer.ReadTensor(net.output_tensor);
  ClientDevice fresh(SkuId::kMaliG71Mp8, 101);
  auto want = ReplayOutput(&fresh, net, *rec, 9, 2);
  ASSERT_TRUE(out.ok() && want.ok());
  EXPECT_TRUE(BitIdentical(*out, *want));
}

TEST(ReplayProperties, RestagedWeightsAreInjectedOnWarmReplay) {
  NetworkDef net = BuildMnist();
  ClientDevice device(SkuId::kMaliG71Mp8, 103);
  auto rec = Record(&device, net, "OursMDS");
  ASSERT_TRUE(rec.ok());
  Replayer replayer(&device.gpu(), &device.tzasc(), &device.mem(),
                    &device.timeline());
  ASSERT_TRUE(replayer.LoadSigned(rec->wire, rec->key).ok());
  ASSERT_TRUE(StageModel(&replayer, net, 9).ok());
  ASSERT_TRUE(
      replayer.StageTensor(net.input_tensor, GenerateInput(net, 1)).ok());
  ASSERT_TRUE(replayer.Replay().ok());
  auto before = replayer.ReadTensor(net.output_tensor);
  ASSERT_TRUE(before.ok());

  // New model, same input.
  ASSERT_TRUE(StageModel(&replayer, net, 10).ok());
  auto warm = replayer.Replay();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->warm);

  auto out = replayer.ReadTensor(net.output_tensor);
  ClientDevice fresh(SkuId::kMaliG71Mp8, 103);
  auto want = ReplayOutput(&fresh, net, *rec, 10, 1);
  ASSERT_TRUE(out.ok() && want.ok());
  EXPECT_TRUE(BitIdentical(*out, *want));
  EXPECT_FALSE(BitIdentical(*out, *before));
}

TEST(ReplayProperties, WarmReplayAfterZeroAllMatchesFreshReplayer) {
  // A record session scrubs the device with ZeroAll when it starts. A
  // replayer armed on that device must see the scrub as a write to every
  // page, or its next warm replay skips image and tensor pages that now
  // hold zeros.
  NetworkDef net = BuildMnist();
  ClientDevice device(SkuId::kMaliG71Mp8, 107);
  auto rec = Record(&device, net, "OursMDS");
  ASSERT_TRUE(rec.ok());
  Replayer replayer(&device.gpu(), &device.tzasc(), &device.mem(),
                    &device.timeline());
  ASSERT_TRUE(replayer.LoadSigned(rec->wire, rec->key).ok());
  ASSERT_TRUE(StageModel(&replayer, net, 9).ok());
  ASSERT_TRUE(
      replayer.StageTensor(net.input_tensor, GenerateInput(net, 1)).ok());
  ASSERT_TRUE(replayer.Replay().ok());
  auto warm = replayer.Replay();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(warm->warm);

  device.mem().ZeroAll();
  auto after = replayer.Replay();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after->warm);
  EXPECT_EQ(after->pages_skipped_clean, 0u);

  auto out = replayer.ReadTensor(net.output_tensor);
  ClientDevice fresh(SkuId::kMaliG71Mp8, 107);
  auto want = ReplayOutput(&fresh, net, *rec, 9, 1);
  ASSERT_TRUE(out.ok() && want.ok());
  EXPECT_TRUE(BitIdentical(*out, *want));
}

}  // namespace
}  // namespace grt
