// Tracing tests: span capture, Chrome trace_event export/parse round-trip
// (nanosecond-exact), nesting validation, and the end-to-end path the
// acceptance criteria name — a ReplayService run traced, exported, parsed
// back, and validated.
#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/harness/experiment.h"
#include "src/ml/reference.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/serve/service.h"

namespace grt {
namespace obs {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(false);
    // Start() clears any buffer left by an earlier test in this process;
    // Stop() leaves the collector disarmed for tests that never arm it.
    TraceCollector::Global().Start();
    TraceCollector::Global().Stop();
  }
  void TearDown() override {
    SetEnabled(false);
    TraceCollector::Global().Stop();
  }
};

TEST_F(TraceTest, SpanOutsideCollectionRecordsNothing) {
  { TraceSpan span("idle", "test"); }
  EXPECT_TRUE(TraceCollector::Global().Snapshot().empty());
}

TEST_F(TraceTest, SpansRecordNameCategoryAndNesting) {
  TraceCollector& collector = TraceCollector::Global();
  collector.Start();
  {
    TraceSpan outer("outer", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
      TraceSpan inner("inner", "test");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  collector.Stop();
  std::vector<TraceEvent> events = collector.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Inner closes first, so it is recorded first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[0].cat, "test");
  EXPECT_GT(events[0].dur_ns, 0);
  // Containment: outer starts no later and ends no earlier.
  EXPECT_LE(events[1].ts_ns, events[0].ts_ns);
  EXPECT_GE(events[1].ts_ns + events[1].dur_ns,
            events[0].ts_ns + events[0].dur_ns);
  EXPECT_TRUE(ValidateSpanNesting(events).ok());
}

TEST_F(TraceTest, BoundedBufferDropsInsteadOfGrowing) {
  TraceCollector collector;
  collector.Start(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    TraceEvent e;
    e.name = "x";
    e.ts_ns = i;
    collector.Record(std::move(e));
  }
  collector.Stop();
  EXPECT_EQ(collector.Snapshot().size(), 4u);
  EXPECT_EQ(collector.dropped(), 6u);
  // Start() resets both the buffer and the drop counter.
  collector.Start(/*capacity=*/4);
  collector.Stop();
  EXPECT_TRUE(collector.Snapshot().empty());
  EXPECT_EQ(collector.dropped(), 0u);
}

TEST_F(TraceTest, ExportParsesBackNanosecondExact) {
  std::vector<TraceEvent> events;
  TraceEvent a;
  a.name = "alpha \"quoted\"\n";
  a.cat = "serve";
  a.ts_ns = 1234567;  // non-integral microseconds on purpose
  a.dur_ns = 89;
  a.tid = 3;
  events.push_back(a);
  TraceEvent b;
  b.name = "beta";
  b.cat = "replay";
  b.ts_ns = 0;
  b.dur_ns = 999999999;
  b.tid = 0;
  events.push_back(b);

  std::string json = ExportChromeTrace(events);
  auto parsed = ParseChromeTrace(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].name, a.name);
  EXPECT_EQ((*parsed)[0].cat, "serve");
  EXPECT_EQ((*parsed)[0].ts_ns, 1234567);
  EXPECT_EQ((*parsed)[0].dur_ns, 89);
  EXPECT_EQ((*parsed)[0].tid, 3u);
  EXPECT_EQ((*parsed)[1].ts_ns, 0);
  EXPECT_EQ((*parsed)[1].dur_ns, 999999999);
}

TEST_F(TraceTest, ExportIsValidJsonWithTraceEventFields) {
  std::vector<TraceEvent> events(1);
  events[0].name = "s";
  events[0].cat = "c";
  events[0].ts_ns = 1500;
  events[0].dur_ns = 2500;
  auto doc = ParseJson(ExportChromeTrace(events));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* array = doc->Find("traceEvents");
  ASSERT_NE(array, nullptr);
  ASSERT_EQ(array->items.size(), 1u);
  const JsonValue& e = array->items[0];
  const JsonValue* ph = e.Find("ph");
  ASSERT_NE(ph, nullptr);
  EXPECT_EQ(ph->str, "X");
  ASSERT_NE(e.Find("ts"), nullptr);
  ASSERT_NE(e.Find("dur"), nullptr);
  ASSERT_NE(e.Find("pid"), nullptr);
  EXPECT_DOUBLE_EQ(e.Find("ts")->number, 1.5);  // microseconds
  EXPECT_DOUBLE_EQ(e.Find("dur")->number, 2.5);
  EXPECT_DOUBLE_EQ(e.Find("pid")->number, 1.0);
}

TEST_F(TraceTest, ParseAcceptsBareArrayAndSkipsOtherPhases) {
  std::string json = R"([
    {"name":"keep","cat":"c","ph":"X","ts":1,"dur":2,"pid":1,"tid":0},
    {"name":"meta","ph":"M","ts":0},
    {"name":"counter","ph":"C","ts":3}
  ])";
  auto parsed = ParseChromeTrace(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].name, "keep");
}

TEST_F(TraceTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseChromeTrace("not json").ok());
  EXPECT_FALSE(ParseChromeTrace("{\"noTraceEvents\":1}").ok());
}

TEST_F(TraceTest, NestingValidatorCatchesPartialOverlap) {
  std::vector<TraceEvent> ok_events(2);
  ok_events[0] = {"outer", "c", 0, 100, 1};
  ok_events[1] = {"inner", "c", 10, 20, 1};
  EXPECT_TRUE(ValidateSpanNesting(ok_events).ok());

  std::vector<TraceEvent> disjoint(2);
  disjoint[0] = {"a", "c", 0, 10, 1};
  disjoint[1] = {"b", "c", 10, 10, 1};
  EXPECT_TRUE(ValidateSpanNesting(disjoint).ok());

  std::vector<TraceEvent> overlap(2);
  overlap[0] = {"a", "c", 0, 50, 1};
  overlap[1] = {"b", "c", 25, 50, 1};
  EXPECT_FALSE(ValidateSpanNesting(overlap).ok());

  // Same intervals on different tids: fine.
  overlap[1].tid = 2;
  EXPECT_TRUE(ValidateSpanNesting(overlap).ok());
}

// The acceptance-criteria path: trace a served workload end to end, write
// the Chrome JSON, read it back, and check the spans nest and cover the
// stages the service promises.
TEST_F(TraceTest, ServiceTraceRoundTripsThroughChromeJson) {
#if defined(GRT_OBS_COMPILED_OUT)
  GTEST_SKIP() << "instrumentation compiled out (GRT_OBS=OFF)";
#else
  constexpr SkuId kSku = SkuId::kMaliG71Mp8;
  NetworkDef net = BuildMnist();
  ClientDevice device(kSku, /*nondet_seed=*/11);
  SpeculationHistory history;
  auto recorded =
      RunRecordVariant(&device, net, "OursMDS", WifiConditions(), &history, 0);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  RecordingStore store(recorded->session_key);
  ASSERT_TRUE(store.Install(recorded->signed_recording).ok());

  SetEnabled(true);
  TraceCollector::Global().Start();

  ServeConfig config;
  config.sku = kSku;
  config.workers = 2;
  ReplayService service(&store, config);
  ASSERT_TRUE(service.Start().ok());
  for (int i = 0; i < 6; ++i) {
    ReplayRequest request;
    request.workload = net.name;
    request.tensors[net.input_tensor] = GenerateInput(net, 50 + i);
    for (const TensorDef& t : net.tensors) {
      if (t.kind == TensorKind::kParam) {
        request.tensors[t.name] = GenerateParams(net.name, t, 7);
      }
    }
    request.output_tensor = net.output_tensor;
    ReplayResponse response = service.Submit(std::move(request));
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  }
  service.Stop();
  TraceCollector::Global().Stop();

  std::vector<TraceEvent> events = TraceCollector::Global().Snapshot();
  std::string path =
      ::testing::TempDir() + "/grt_service_trace_round_trip.json";
  ASSERT_TRUE(WriteChromeTraceFile(path, events).ok());

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto parsed = ParseChromeTrace(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->size(), events.size());
  Status nesting = ValidateSpanNesting(*parsed);
  EXPECT_TRUE(nesting.ok()) << nesting.ToString();

  std::map<std::string, int> by_name;
  for (const TraceEvent& e : *parsed) {
    ++by_name[e.name];
  }
  EXPECT_EQ(by_name["request"], 6);
  EXPECT_EQ(by_name["queue"], 6);
  // Every request resolves; only the first loads the recording from the
  // store and verifies it; the other five hit the current binding's plan.
  EXPECT_EQ(by_name["resolve"], 6);
  EXPECT_EQ(by_name["resolve.store_load"], 1);
  EXPECT_EQ(by_name["resolve.verify"], 1);
  EXPECT_EQ(by_name["stage_input"], 6);
  EXPECT_EQ(by_name["replay"], 6);
  EXPECT_EQ(by_name["readback"], 6);
  // Warm replays run the planopt-fused schedule ("replay.fused"); the
  // cold replay per worker device runs the full plan.
  EXPECT_EQ(by_name["replay.fused"] + by_name["replay.warm"] +
                by_name["replay.cold"],
            6);
  EXPECT_GT(by_name["replay.fused"], 0);
  // Two compiles: the planopt-soundness verifier pass compiles a
  // skeleton plan at admission, then the plan cache compiles the real
  // one (images included) once.
  EXPECT_EQ(by_name["plan.compile"], 2);
  EXPECT_GT(by_name["planopt.attach"], 0);
  std::remove(path.c_str());
#endif  // GRT_OBS_COMPILED_OUT
}

}  // namespace
}  // namespace obs
}  // namespace grt
