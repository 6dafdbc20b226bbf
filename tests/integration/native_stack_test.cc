// End-to-end smoke tests of the substrate: the full GPU stack (driver +
// runtime + ML framework) running natively against the simulated GPU, and
// the local record->replay pipeline (the GR baseline of §2.3).
#include <gtest/gtest.h>

#include "src/harness/rig.h"
#include "src/ml/network.h"
#include "src/ml/reference.h"
#include "src/record/recorder.h"
#include "src/record/replayer.h"

namespace grt {
namespace {

TEST(NativeStack, BringUpProbesCorrectSku) {
  ClientDevice device(SkuId::kMaliG71Mp8);
  NativeStack stack(&device);
  ASSERT_TRUE(stack.BringUp().ok());
  EXPECT_EQ(stack.driver().sku().id, SkuId::kMaliG71Mp8);
  EXPECT_EQ(stack.driver().sku().core_count(), 8);
}

TEST(NativeStack, MnistMatchesCpuReference) {
  ClientDevice device(SkuId::kMaliG71Mp8);
  NativeStack stack(&device);
  ASSERT_TRUE(stack.BringUp().ok());

  NetworkDef net = BuildMnist();
  NnRunner runner(net, &stack.runtime());
  ASSERT_TRUE(runner.Setup(/*zero_params=*/false, /*param_seed=*/7).ok());

  std::vector<float> input = GenerateInput(net, 42);
  ASSERT_TRUE(runner.SetInput(input).ok());
  auto gpu_out = runner.Run();
  ASSERT_TRUE(gpu_out.ok()) << gpu_out.status().ToString();

  auto ref_out = RunReference(net, input, 7);
  ASSERT_TRUE(ref_out.ok());
  EXPECT_EQ(gpu_out->size(), ref_out->size());
  EXPECT_LT(MaxAbsDiff(*gpu_out, *ref_out), 1e-4f);
}

TEST(NativeStack, RecordThenReplayReproducesComputation) {
  // Record on a "developer machine" with zeroed params/input (the dry-run
  // content), then replay in the TEE with real params + input and check
  // the output against the CPU reference.
  ClientDevice device(SkuId::kMaliG71Mp8, /*nondet_seed=*/11);
  NetworkDef net = BuildMnist();
  Recording recording;
  {
    NativeStack stack(&device);
    Recorder recorder(&stack.driver(), &device.mem());
    // Recording covers the driver's whole hardware session, init included:
    // the replayer reproduces reset/power/mask setup from the log.
    stack.bus().SetObserver(&recorder);
    ASSERT_TRUE(stack.BringUp().ok());

    NnRunner runner(net, &stack.runtime());
    ASSERT_TRUE(runner.Setup(/*zero_params=*/true).ok());
    auto dry_out = runner.Run();
    ASSERT_TRUE(dry_out.ok()) << dry_out.status().ToString();
    recorder.SnapshotMemory();
    stack.bus().SetObserver(nullptr);

    std::map<std::string, TensorBinding> bindings;
    for (const TensorDef& t : net.tensors) {
      if (t.kind == TensorKind::kActivation) {
        continue;
      }
      auto binding = MakeBinding(stack.driver(),
                                 runner.buffers().at(t.name).va, t.n_floats,
                                 t.kind != TensorKind::kOutput);
      ASSERT_TRUE(binding.ok());
      bindings[t.name] = std::move(binding.value());
    }
    auto rec = recorder.Finish(net.name, device.sku().id, bindings, 99);
    ASSERT_TRUE(rec.ok());
    recording = std::move(rec.value());
  }

  // Sign + verify round trip.
  Bytes key(32, 0x42);
  Bytes wire = recording.SerializeSigned(key);

  // Replay on the same device in the TEE.
  Replayer replayer(&device.gpu(), &device.tzasc(), &device.mem(),
                    &device.timeline());
  ASSERT_TRUE(replayer.LoadSigned(wire, key).ok());

  std::vector<float> input = GenerateInput(net, 1234);
  ASSERT_TRUE(replayer.StageTensor("input", input).ok());
  for (const TensorDef& t : net.tensors) {
    if (t.kind == TensorKind::kParam) {
      ASSERT_TRUE(
          replayer.StageTensor(t.name, GenerateParams(net.name, t, 7)).ok());
    }
  }

  auto report = replayer.Replay();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->entries_replayed, 100u);

  auto out = replayer.ReadTensor(net.output_tensor);
  ASSERT_TRUE(out.ok());
  auto ref_out = RunReference(net, input, 7);
  ASSERT_TRUE(ref_out.ok());
  EXPECT_LT(MaxAbsDiff(*out, *ref_out), 1e-4f);
}

TEST(NativeStack, TamperedRecordingIsRejected) {
  ClientDevice device(SkuId::kMaliG71Mp8);
  Recording rec;
  rec.header.workload = "x";
  rec.header.sku = SkuId::kMaliG71Mp8;
  Bytes key(32, 1);
  Bytes wire = rec.SerializeSigned(key);
  wire[wire.size() / 2] ^= 0xFF;
  Replayer replayer(&device.gpu(), &device.tzasc(), &device.mem(),
                    &device.timeline());
  Status s = replayer.LoadSigned(wire, key);
  EXPECT_EQ(s.code(), StatusCode::kIntegrityViolation);
}

}  // namespace
}  // namespace grt
