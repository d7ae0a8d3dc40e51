//===- tests/TelemetryTest.cpp - Self-telemetry layer tests ---------------===//
//
// Covers the telemetry contracts the pipeline instrumentation leans on:
// lossless concurrent counter/histogram updates (via ThreadPool workers),
// Chrome trace_event and metrics JSON that round-trip through the
// support/Json parser, span/instant/counter-sample recording semantics,
// and the leveled logger's filtering.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include "driver/BenchHarness.h"
#include "support/Json.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <future>
#include <map>
#include <string>
#include <vector>

using namespace kremlin;
namespace tel = kremlin::telemetry;

namespace {

/// The registry, trace ring, and sink slot are process-wide; start every
/// test from a clean slate so order does not matter.
class TelemetryTest : public ::testing::Test {
protected:
  void SetUp() override {
    (void)tel::closeTraceSink();
    tel::setTraceEnabled(false);
    tel::setTraceRingEvents(0); // Back to the default capacity.
    tel::takeTrace();
    tel::Registry::global().resetValues();
  }
  void TearDown() override {
    (void)tel::closeTraceSink();
    tel::setTraceEnabled(false);
    tel::setTraceRingEvents(0);
    tel::takeTrace();
  }

  uint64_t counterValue(const char *Name) {
    return tel::Registry::global().counter(Name).value();
  }
};

TEST_F(TelemetryTest, CounterBasics) {
  tel::Counter &C = tel::Registry::global().counter("test.counter");
  EXPECT_EQ(C.value(), 0u);
  C.add();
  C.add(41);
  EXPECT_EQ(C.value(), 42u);
  // Same name resolves to the same metric.
  EXPECT_EQ(&tel::Registry::global().counter("test.counter"), &C);
  C.reset();
  EXPECT_EQ(C.value(), 0u);
}

TEST_F(TelemetryTest, GaugeStoresDoubles) {
  tel::Gauge &G = tel::Registry::global().gauge("test.gauge");
  G.set(3.25);
  EXPECT_DOUBLE_EQ(G.value(), 3.25);
  G.set(-0.5);
  EXPECT_DOUBLE_EQ(G.value(), -0.5);
}

TEST_F(TelemetryTest, HistogramBucketsAndStats) {
  tel::Histogram &H = tel::Registry::global().histogram("test.hist");
  H.record(0);
  H.record(1);
  H.record(2);
  H.record(3);
  H.record(1000);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.sum(), 1006u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 1000u);
  EXPECT_EQ(H.bucket(0), 1u); // 0
  EXPECT_EQ(H.bucket(1), 1u); // 1
  EXPECT_EQ(H.bucket(2), 2u); // 2, 3
  EXPECT_EQ(H.bucket(10), 1u); // 1000 in [512, 1024)
  // Median falls in the [2,4) bucket; its inclusive upper bound is 3.
  EXPECT_EQ(H.quantile(0.5), 3u);
  EXPECT_EQ(H.quantile(1.0), 1023u);
}

TEST_F(TelemetryTest, ConcurrentCounterUpdatesAreLossless) {
  tel::Counter &C = tel::Registry::global().counter("test.concurrent");
  constexpr unsigned Workers = 8;
  constexpr uint64_t PerWorker = 20000;
  ThreadPool Pool(Workers);
  std::vector<std::future<void>> Futures;
  for (unsigned W = 0; W < Workers; ++W)
    Futures.push_back(Pool.submit([&C]() {
      for (uint64_t I = 0; I < PerWorker; ++I)
        C.add();
    }));
  for (auto &F : Futures)
    F.get();
  EXPECT_EQ(C.value(), Workers * PerWorker);
}

TEST_F(TelemetryTest, ConcurrentHistogramUpdatesAreLossless) {
  tel::Histogram &H = tel::Registry::global().histogram("test.conc_hist");
  constexpr unsigned Workers = 8;
  constexpr uint64_t PerWorker = 20000;
  ThreadPool Pool(Workers);
  std::vector<std::future<void>> Futures;
  for (unsigned W = 0; W < Workers; ++W)
    Futures.push_back(Pool.submit([&H, W]() {
      for (uint64_t I = 0; I < PerWorker; ++I)
        H.record(W * PerWorker + I);
    }));
  for (auto &F : Futures)
    F.get();
  EXPECT_EQ(H.count(), Workers * PerWorker);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), Workers * PerWorker - 1);
  uint64_t BucketTotal = 0;
  for (unsigned I = 0; I < tel::Histogram::NumBuckets; ++I)
    BucketTotal += H.bucket(I);
  EXPECT_EQ(BucketTotal, Workers * PerWorker);
}

TEST_F(TelemetryTest, SnapshotExpandsHistograms) {
  tel::Registry &Reg = tel::Registry::global();
  Reg.counter("snap.counter").add(7);
  Reg.gauge("snap.gauge").set(1.5);
  Reg.histogram("snap.hist").record(100);
  auto Snap = Reg.snapshot();
  auto Find = [&Snap](const std::string &Name) -> const double * {
    for (const auto &[N, V] : Snap)
      if (N == Name)
        return &V;
    return nullptr;
  };
  ASSERT_NE(Find("snap.counter"), nullptr);
  EXPECT_DOUBLE_EQ(*Find("snap.counter"), 7.0);
  ASSERT_NE(Find("snap.gauge"), nullptr);
  EXPECT_DOUBLE_EQ(*Find("snap.gauge"), 1.5);
  ASSERT_NE(Find("snap.hist.count"), nullptr);
  EXPECT_DOUBLE_EQ(*Find("snap.hist.count"), 1.0);
  ASSERT_NE(Find("snap.hist.max"), nullptr);
  EXPECT_DOUBLE_EQ(*Find("snap.hist.max"), 100.0);
  ASSERT_NE(Find("snap.hist.p99"), nullptr);
}

TEST_F(TelemetryTest, MetricsJsonRoundTripsThroughBenchParser) {
  tel::Registry &Reg = tel::Registry::global();
  Reg.counter("rt.test_metric").add(123);
  Reg.gauge("dict.test_ratio").set(45.5);
  std::string Json = Reg.toJson().serialize();

  // The document parses as JSON at all...
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Json, Doc, &Error)) << Error;
  EXPECT_TRUE(Doc.isObject());
  // ...and through the bench metrics reader, sharing the results schema.
  MetricMap Metrics;
  ASSERT_TRUE(parseMetricsJson(Json, Metrics, &Error)) << Error;
  EXPECT_DOUBLE_EQ(Metrics["rt.test_metric"], 123.0);
  EXPECT_DOUBLE_EQ(Metrics["dict.test_ratio"], 45.5);
}

TEST_F(TelemetryTest, RenderTableListsMetrics) {
  tel::Registry &Reg = tel::Registry::global();
  Reg.counter("table.hits").add(9);
  std::string Table = Reg.renderTable();
  EXPECT_NE(Table.find("table.hits"), std::string::npos);
  EXPECT_NE(Table.find("9"), std::string::npos);
}

TEST_F(TelemetryTest, DisabledTracingRecordsNothing) {
  ASSERT_FALSE(tel::traceEnabled());
  {
    tel::Span S("quiet");
    S.arg("key", "value");
  }
  tel::instantEvent("quiet.instant", "test");
  tel::counterSample("quiet.counter", 1.0);
  EXPECT_TRUE(tel::takeTrace().empty());
}

TEST_F(TelemetryTest, SpansInstantsAndSamplesRecordWhenEnabled) {
  tel::setTraceEnabled(true);
  {
    tel::Span S("outer");
    S.arg("detail", "abc");
    tel::instantEvent("ping", "test", {{"n", "1"}});
    tel::counterSample("gauge", 2.5);
  }
  tel::setTraceEnabled(false);
  std::vector<tel::TraceEvent> Events = tel::takeTrace();
  ASSERT_EQ(Events.size(), 3u);

  const tel::TraceEvent *SpanEv = nullptr, *InstEv = nullptr,
                        *SampleEv = nullptr;
  for (const tel::TraceEvent &E : Events) {
    if (E.K == tel::TraceEvent::Kind::Span)
      SpanEv = &E;
    else if (E.K == tel::TraceEvent::Kind::Instant)
      InstEv = &E;
    else
      SampleEv = &E;
  }
  ASSERT_NE(SpanEv, nullptr);
  EXPECT_EQ(SpanEv->Name, "outer");
  EXPECT_EQ(SpanEv->Category, "pipeline");
  ASSERT_EQ(SpanEv->Args.size(), 1u);
  EXPECT_EQ(SpanEv->Args[0].first, "detail");
  ASSERT_NE(InstEv, nullptr);
  EXPECT_EQ(InstEv->Name, "ping");
  ASSERT_NE(SampleEv, nullptr);
  EXPECT_DOUBLE_EQ(SampleEv->Value, 2.5);
  // The buffer was drained.
  EXPECT_TRUE(tel::takeTrace().empty());
}

TEST_F(TelemetryTest, ChromeTraceJsonParsesAndHasExpectedPhases) {
  tel::setTraceEnabled(true);
  {
    tel::Span S("stage", "pipeline");
    tel::instantEvent("marker", "planner");
  }
  tel::counterSample("metric", 7.0);
  tel::setTraceEnabled(false);
  std::string Json = tel::takeTraceAsChromeJson();

  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Json, Doc, &Error)) << Error;
  const JsonValue *Events = Doc.get("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  ASSERT_EQ(Events->size(), 3u);

  bool SawX = false, SawI = false, SawC = false;
  for (size_t I = 0; I < Events->size(); ++I) {
    const JsonValue &E = Events->at(I);
    const JsonValue *Ph = E.get("ph");
    ASSERT_NE(Ph, nullptr);
    ASSERT_NE(E.get("ts"), nullptr);
    ASSERT_NE(E.get("pid"), nullptr);
    ASSERT_NE(E.get("tid"), nullptr);
    if (Ph->asString() == "X") {
      SawX = true;
      EXPECT_NE(E.get("dur"), nullptr);
      EXPECT_EQ(E.get("name")->asString(), "stage");
    } else if (Ph->asString() == "i") {
      SawI = true;
    } else if (Ph->asString() == "C") {
      SawC = true;
      const JsonValue *Args = E.get("args");
      ASSERT_NE(Args, nullptr);
      EXPECT_DOUBLE_EQ(Args->getNumber("value"), 7.0);
    }
  }
  EXPECT_TRUE(SawX);
  EXPECT_TRUE(SawI);
  EXPECT_TRUE(SawC);
}

TEST_F(TelemetryTest, SpanEndIsIdempotent) {
  tel::setTraceEnabled(true);
  {
    tel::Span S("once");
    S.end();
    S.end(); // Second end (and the destructor) must not re-record.
  }
  tel::setTraceEnabled(false);
  EXPECT_EQ(tel::takeTrace().size(), 1u);
}

TEST_F(TelemetryTest, DisabledSpanBumpsEventCounter) {
  tel::Counter &Events = tel::Registry::global().counter("telemetry.events");
  uint64_t Before = Events.value();
  { tel::Span S("cheap"); }
  tel::instantEvent("cheap.instant", "test");
  EXPECT_EQ(Events.value(), Before + 2);
}

TEST_F(TelemetryTest, RingWrapsAndCountsDropsWithoutSink) {
  // 4 events per shard; a single thread writes to exactly one shard.
  tel::setTraceRingEvents(tel::NumTraceShards * 4);
  tel::setTraceEnabled(true);
  for (int I = 0; I < 10; ++I)
    tel::instantEvent("wrap." + std::to_string(I), "test");
  tel::setTraceEnabled(false);

  EXPECT_EQ(counterValue("telemetry.trace.recorded"), 10u);
  EXPECT_EQ(counterValue("telemetry.trace.dropped"), 6u);
  std::vector<tel::TraceEvent> Events = tel::takeTrace();
  ASSERT_EQ(Events.size(), 4u);
  // The window keeps the newest events in chronological order.
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(Events[static_cast<size_t>(I)].Name,
              "wrap." + std::to_string(6 + I));
}

TEST_F(TelemetryTest, ShrinkingRingTrimsOldestAndCountsDrops) {
  tel::setTraceEnabled(true);
  for (int I = 0; I < 6; ++I)
    tel::instantEvent("trim." + std::to_string(I), "test");
  tel::setTraceRingEvents(tel::NumTraceShards * 4);
  tel::setTraceEnabled(false);

  EXPECT_EQ(counterValue("telemetry.trace.dropped"), 2u);
  std::vector<tel::TraceEvent> Events = tel::takeTrace();
  ASSERT_EQ(Events.size(), 4u);
  EXPECT_EQ(Events.front().Name, "trim.2");
  EXPECT_EQ(Events.back().Name, "trim.5");
}

TEST_F(TelemetryTest, InMemorySinkReceivesChunksAndResidue) {
  auto Sink = std::make_unique<tel::InMemoryTraceSink>();
  tel::InMemoryTraceSink *Raw = Sink.get();
  tel::TraceSinkConfig Cfg;
  Cfg.RingEvents = tel::NumTraceShards * 4;
  ASSERT_TRUE(tel::setTraceSink(std::move(Sink), Cfg).ok());
  EXPECT_TRUE(tel::traceEnabled());
  EXPECT_EQ(tel::traceSink(), Raw);

  for (int I = 0; I < 10; ++I)
    tel::instantEvent("sink." + std::to_string(I), "test");
  // Chunk flushes happened mid-run (full ring hands its chunk to the
  // sink); nothing was dropped on the streaming path.
  EXPECT_GE(counterValue("telemetry.trace.flushes"), 1u);
  EXPECT_EQ(counterValue("telemetry.trace.dropped"), 0u);

  tel::flushTraceRings();
  std::vector<tel::TraceEvent> Events = Raw->take();
  ASSERT_EQ(Events.size(), 10u);
  EXPECT_EQ(counterValue("telemetry.trace.flushed_events"), 10u);

  ASSERT_TRUE(tel::closeTraceSink().ok());
  EXPECT_FALSE(tel::traceEnabled());
  EXPECT_EQ(tel::traceSink(), nullptr);
}

TEST_F(TelemetryTest, CloseStreamsResidualRingContents) {
  auto Sink = std::make_unique<tel::InMemoryTraceSink>();
  tel::InMemoryTraceSink *Raw = Sink.get();
  ASSERT_TRUE(tel::setTraceSink(std::move(Sink)).ok());
  tel::instantEvent("residue", "test");
  // The event is still in the (far from full) ring, so the sink has not
  // seen it yet; an explicit flush streams it.
  EXPECT_TRUE(Raw->take().empty());
  tel::flushTraceRings();
  std::vector<tel::TraceEvent> Events = Raw->take();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events.front().Name, "residue");
  EXPECT_TRUE(tel::closeTraceSink().ok());
}

TEST_F(TelemetryTest, CloseWithoutSinkIsANoop) {
  EXPECT_TRUE(tel::closeTraceSink().ok());
}

TEST_F(TelemetryTest, FileSinkStreamsValidChromeJson) {
  std::string Path = ::testing::TempDir() + "telemetry_file_sink.json";
  tel::TraceSinkConfig Cfg;
  Cfg.RingEvents = tel::NumTraceShards * 4;
  Cfg.FlushKb = 1; // Tiny buffer: force incremental fwrites.
  Expected<std::unique_ptr<tel::FileTraceSink>> Sink =
      tel::FileTraceSink::open(Path, Cfg);
  ASSERT_TRUE(Sink.ok()) << Sink.status().toString();
  EXPECT_EQ((*Sink)->path(), Path);
  ASSERT_TRUE(tel::setTraceSink(std::move(*Sink), Cfg).ok());

  for (int I = 0; I < 25; ++I) {
    tel::Span S("file.span." + std::to_string(I), "test");
    S.arg("i", std::to_string(I));
  }
  ASSERT_TRUE(tel::closeTraceSink().ok());
  EXPECT_GE(counterValue("telemetry.trace.file_flushes"), 1u);
  EXPECT_GT(counterValue("telemetry.trace.file_bytes"), 0u);

  std::string Json;
  ASSERT_TRUE(readFileToString(Path, Json));
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Json, Doc, &Error)) << Error;
  const JsonValue *Events = Doc.get("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  EXPECT_EQ(Events->size(), 25u);
  EXPECT_EQ(Doc.get("displayTimeUnit")->asString(), "ms");
}

TEST_F(TelemetryTest, FileSinkFlushesOnDestruction) {
  std::string Path = ::testing::TempDir() + "telemetry_dtor_sink.json";
  {
    Expected<std::unique_ptr<tel::FileTraceSink>> Sink =
        tel::FileTraceSink::open(Path);
    ASSERT_TRUE(Sink.ok()) << Sink.status().toString();
    tel::TraceEvent E;
    E.K = tel::TraceEvent::Kind::Instant;
    E.Name = "dtor";
    E.Category = "test";
    (*Sink)->writeBatch({E});
    // No close(): the destructor must finalize and flush the document.
  }
  std::string Json;
  ASSERT_TRUE(readFileToString(Path, Json));
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Json, Doc, &Error)) << Error;
  ASSERT_EQ(Doc.get("traceEvents")->size(), 1u);
  EXPECT_EQ(Doc.get("traceEvents")->at(0).get("name")->asString(), "dtor");
}

TEST_F(TelemetryTest, EmptyFileSinkStillWritesAValidDocument) {
  std::string Path = ::testing::TempDir() + "telemetry_empty_sink.json";
  {
    Expected<std::unique_ptr<tel::FileTraceSink>> Sink =
        tel::FileTraceSink::open(Path);
    ASSERT_TRUE(Sink.ok()) << Sink.status().toString();
  }
  std::string Json;
  ASSERT_TRUE(readFileToString(Path, Json));
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Json, Doc, &Error)) << Error;
  EXPECT_EQ(Doc.get("traceEvents")->size(), 0u);
}

TEST_F(TelemetryTest, FileSinkOpenFailsWithStructuredError) {
  Expected<std::unique_ptr<tel::FileTraceSink>> Sink =
      tel::FileTraceSink::open("/nonexistent-dir/trace.json");
  ASSERT_FALSE(Sink.ok());
  EXPECT_EQ(Sink.status().code(), ErrorCode::IoError);
}

TEST_F(TelemetryTest, LoggerFiltersByLevel) {
  tel::LogLevel Saved = tel::logLevel();
  tel::Registry &Reg = tel::Registry::global();
  tel::Counter &Suppressed = Reg.counter("log.suppressed");
  tel::Counter &Warnings = Reg.counter("log.warnings");

  tel::setLogLevel(tel::LogLevel::Error);
  EXPECT_TRUE(tel::logEnabled(tel::LogLevel::Error));
  EXPECT_FALSE(tel::logEnabled(tel::LogLevel::Warn));
  uint64_t SuppressedBefore = Suppressed.value();
  tel::logWarn("test", "filtered out");
  EXPECT_EQ(Suppressed.value(), SuppressedBefore + 1);

  tel::setLogLevel(tel::LogLevel::Debug);
  uint64_t WarnBefore = Warnings.value();
  tel::logWarn("test", "emitted");
  tel::logf(tel::LogLevel::Warn, "test", "emitted too: %d", 7);
  EXPECT_EQ(Warnings.value(), WarnBefore + 2);

  tel::setLogLevel(Saved);
}

TEST_F(TelemetryTest, LogLevelNamesRoundTrip) {
  EXPECT_STREQ(tel::logLevelName(tel::LogLevel::Error), "error");
  EXPECT_STREQ(tel::logLevelName(tel::LogLevel::Warn), "warn");
  EXPECT_STREQ(tel::logLevelName(tel::LogLevel::Info), "info");
  EXPECT_STREQ(tel::logLevelName(tel::LogLevel::Debug), "debug");
}

// --- Empty-histogram quantile reporting -------------------------------------

TEST_F(TelemetryTest, EmptyHistogramSnapshotReportsNaNNotSentinels) {
  tel::Registry::global().histogram("test.empty_hist");
  auto Snapshot = tel::Registry::global().snapshot();
  bool SawCount = false;
  for (const auto &[Name, Value] : Snapshot) {
    if (Name == "test.empty_hist.count") {
      SawCount = true;
      EXPECT_EQ(Value, 0.0);
    }
    // Before the fix min rendered as 0 and p50/p99 as the bucket-0 bound:
    // plausible-looking garbage. Empty must be visibly empty.
    if (Name == "test.empty_hist.min" || Name == "test.empty_hist.max" ||
        Name == "test.empty_hist.p50" || Name == "test.empty_hist.p99")
      EXPECT_TRUE(std::isnan(Value)) << Name << " = " << Value;
  }
  EXPECT_TRUE(SawCount);
}

TEST_F(TelemetryTest, EmptyHistogramRendersAsNaInTableAndNullInJson) {
  tel::Registry::global().histogram("test.empty_hist");
  std::string Table = tel::Registry::global().renderTable();
  EXPECT_NE(Table.find("test.empty_hist.p99"), std::string::npos);
  EXPECT_NE(Table.find("n/a"), std::string::npos);

  std::string Json = tel::Registry::global().toJson().serialize(2);
  JsonValue Doc;
  ASSERT_TRUE(JsonValue::parse(Json, Doc));
  const JsonValue *Metrics = Doc.get("metrics");
  ASSERT_NE(Metrics, nullptr);
  const JsonValue *P99 = Metrics->get("test.empty_hist.p99");
  ASSERT_NE(P99, nullptr);
  EXPECT_TRUE(P99->isNull());
}

TEST_F(TelemetryTest, NonEmptyHistogramQuantilesStayNumeric) {
  tel::Histogram &H = tel::Registry::global().histogram("test.filled");
  H.record(5);
  for (const auto &[Name, Value] : tel::Registry::global().snapshot())
    if (Name.rfind("test.filled.", 0) == 0)
      EXPECT_FALSE(std::isnan(Value)) << Name;
}

TEST_F(TelemetryTest, SnapshotQuantilesStayWithinMinAndMax) {
  // Both samples land in the [2^19, 2^20) bucket, whose inclusive bound
  // 1048575 exceeds every recorded value (driver.pipeline_us once read
  // p50 = 1048575 with max = 526503).
  tel::Histogram &H = tel::Registry::global().histogram("test.clamped");
  H.record(526503);
  H.record(600000);
  ASSERT_EQ(H.quantile(0.5), 1048575u);
  std::map<std::string, double> Snap;
  for (const auto &[Name, Value] : tel::Registry::global().snapshot())
    Snap[Name] = Value;
  EXPECT_EQ(Snap.at("test.clamped.min"), 526503.0);
  EXPECT_EQ(Snap.at("test.clamped.max"), 600000.0);
  EXPECT_EQ(Snap.at("test.clamped.p50"), 600000.0);
  EXPECT_EQ(Snap.at("test.clamped.p99"), 600000.0);
}

} // namespace
