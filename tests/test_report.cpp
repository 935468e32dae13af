// Tests for the gpumip-report engine (tools/gpumip-report/report.hpp):
// document parsing (metrics v1/v2, bench baselines, time series), the
// claim-category mapping with its exclusion list, single-run profiles,
// the tolerance compare, two-run attribution ranking, and the live round
// trip — a real metrics export from the registry parsed back and
// attributed.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "report.hpp"

namespace gpumip {
namespace {

using reporttool::Attribution;
using reporttool::BenchDoc;
using reporttool::Comparison;
using reporttool::MetricsSnapshot;
using reporttool::Profile;
using reporttool::TimeSeries;

BenchDoc one_bench(std::map<std::string, double> counters,
                   std::map<std::string, double> gauges = {}) {
  BenchDoc doc;
  MetricsSnapshot snap;
  snap.counters = std::move(counters);
  snap.gauges = std::move(gauges);
  snap.enabled = true;
  doc.benches["bench"] = std::move(snap);
  return doc;
}

TEST(ReportParse, MetricsV1AndV2BothDecode) {
  const std::string v1 = R"({
    "schema": "gpumip.metrics.v1", "enabled": true,
    "counters": {"gpumip.mip.nodes": 10}, "gauges": {}, "histograms": {}
  })";
  const std::string v2 = R"({
    "schema": "gpumip.metrics.v2", "enabled": true,
    "families": ["gpumip.lp.solves{method}"],
    "counters": {"gpumip.lp.solves{method=pdhg}": 3}, "gauges": {},
    "histograms": {"gpumip.lp.solve.seconds{method=pdhg}":
      {"count": 3, "sum": 0.3, "min": 0.1, "max": 0.1, "mean": 0.1,
       "p50": 0.1, "p90": 0.1, "p99": 0.1}}
  })";
  MetricsSnapshot snap;
  std::string error;
  ASSERT_TRUE(reporttool::parse_metrics(v1, snap, error)) << error;
  EXPECT_DOUBLE_EQ(snap.counters.at("gpumip.mip.nodes"), 10.0);
  ASSERT_TRUE(reporttool::parse_metrics(v2, snap, error)) << error;
  EXPECT_DOUBLE_EQ(snap.counters.at("gpumip.lp.solves{method=pdhg}"), 3.0);
  EXPECT_DOUBLE_EQ(snap.histograms.at("gpumip.lp.solve.seconds{method=pdhg}").first, 3.0);

  EXPECT_FALSE(reporttool::parse_metrics(
      R"({"schema": "gpumip.metrics.v3", "counters": {}})", snap, error));
  EXPECT_FALSE(reporttool::parse_metrics("[1, 2]", snap, error));
}

TEST(ReportCategories, MappingAndExclusions) {
  EXPECT_EQ(reporttool::category_of("gpumip.gpu.xfer.h2d.bytes"), "transfer");
  EXPECT_EQ(reporttool::category_of("gpumip.lp.ops.refactor"), "c3_basis");
  EXPECT_EQ(reporttool::category_of("gpumip.mip.cuts.rounds"), "c4_cuts");
  EXPECT_EQ(reporttool::category_of("gpumip.gpu.alloc.calls"), "c5_memory");
  EXPECT_EQ(reporttool::category_of("gpumip.mip.reuse.hit_rate"), "c5_memory");
  EXPECT_EQ(reporttool::category_of("gpumip.lp.method.chosen{method=pdhg}"), "c6_method");
  EXPECT_EQ(reporttool::category_of("gpumip.lp.batch.waves{method=simplex}"), "c7_batch");
  EXPECT_EQ(reporttool::category_of("gpumip.supervisor.dispatched{rank=2}"), "c8_scale");
  EXPECT_EQ(reporttool::category_of("gpumip.mip.incumbents"), "other");
  // Exclusions: the sampler can never trip attribution, nor can
  // host-timing noise.
  EXPECT_EQ(reporttool::category_of("gpumip.obs.trace.dropped"), "");
  EXPECT_EQ(reporttool::category_of("gpumip.obs.sampler.dropped"), "");
  EXPECT_EQ(reporttool::category_of("gpumip.simmpi.recv.idle_seconds{rank=3}"), "");
  EXPECT_EQ(reporttool::category_of("gpumip.supervisor.checkpoints"), "");
}

TEST(ReportAttribution, DoubledTransferOutranksNoiseAndExclusionsAreSilent) {
  const BenchDoc base = one_bench({{"gpumip.gpu.xfer.h2d.bytes", 1000.0},
                                   {"gpumip.lp.ops.refactor", 100.0},
                                   {"gpumip.obs.trace.dropped", 1.0}});
  const BenchDoc cur = one_bench({{"gpumip.gpu.xfer.h2d.bytes", 2000.0},
                                  {"gpumip.lp.ops.refactor", 101.0},
                                  {"gpumip.obs.trace.dropped", 50000.0}});
  const Attribution a = reporttool::attribute(base, cur);
  ASSERT_EQ(a.ranked.size(), 2u);
  EXPECT_EQ(a.ranked[0].category, "transfer");
  EXPECT_NEAR(a.ranked[0].score, 1.0, 1e-12);
  EXPECT_EQ(a.ranked[1].category, "c3_basis");
  ASSERT_FALSE(a.ranked[0].top.empty());
  EXPECT_EQ(a.ranked[0].top[0].name, "gpumip.gpu.xfer.h2d.bytes");

  // The compare judges the same pair: the doubled transfer is the one
  // regression, the 1% refactor wobble is inside 2%, obs never counts.
  const Comparison c = reporttool::compare(base, cur);
  ASSERT_EQ(c.failures.size(), 1u);
  EXPECT_EQ(c.failures[0].rfind("bench: gpumip.gpu.xfer.h2d.bytes = 2000 vs baseline 1000", 0), 0u)
      << c.failures[0];
  EXPECT_EQ(c.compared, 2);
}

TEST(ReportCompare, TightOnClaimLedgersLooseElsewhereAndUnderSupervision) {
  const BenchDoc base = one_bench({{"gpumip.lp.ops.refactor", 100.0},
                                   {"gpumip.simmpi.msgs", 100.0}},
                                  {{"gpumip.test.zero", 0.0}});
  // A claim ledger moving 3% breaks the 2% class; protocol traffic moving
  // 20% stays inside 25%; 0 -> 5e-10 stays under the 1e-9 floor.
  const BenchDoc moved = one_bench({{"gpumip.lp.ops.refactor", 103.0},
                                    {"gpumip.simmpi.msgs", 120.0}},
                                   {{"gpumip.test.zero", 5e-10}});
  const Comparison sequential = reporttool::compare(base, moved);
  ASSERT_EQ(sequential.failures.size(), 1u);
  EXPECT_NE(sequential.failures[0].find("gpumip.lp.ops.refactor"), std::string::npos);
  EXPECT_NE(sequential.failures[0].find("tolerance 2%"), std::string::npos);
  EXPECT_EQ(sequential.compared, 3);

  // The same moves in a bench whose baseline ran under the supervisor (it
  // has a gpumip.supervisor.dispatched counter) are judged loosely.
  BenchDoc supervised_base = base;
  BenchDoc supervised_moved = moved;
  supervised_base.benches["bench"].counters["gpumip.supervisor.dispatched"] = 10.0;
  supervised_moved.benches["bench"].counters["gpumip.supervisor.dispatched"] = 10.0;
  const Comparison supervised = reporttool::compare(supervised_base, supervised_moved);
  EXPECT_TRUE(supervised.failures.empty()) << supervised.failures.front();
  EXPECT_EQ(supervised.compared, 4);
}

TEST(ReportCompare, MissingFailsNewWarnsExcludedNeverFail) {
  BenchDoc base = one_bench({{"gpumip.mip.nodes", 10.0},
                             {"gpumip.obs.trace.dropped", 1.0},
                             {"gpumip.supervisor.checkpoints", 2.0},
                             {"gpumip.simmpi.sent.bytes{rank=1}", 49.0}},
                            {{"gpumip.simmpi.recv.idle_seconds{rank=0}", 0.5},
                             {"gpumip.mip.reuse.hit_rate", 0.5}});
  base.benches["other"] = base.benches["bench"];
  // Every excluded name moves wildly, one metric vanishes, one appears
  // and a whole bench is gone.
  const BenchDoc cur = one_bench({{"gpumip.mip.nodes", 10.0},
                                  {"gpumip.obs.trace.dropped", 900.0},
                                  {"gpumip.supervisor.checkpoints", 200.0},
                                  {"gpumip.simmpi.sent.bytes{rank=1}", 4900.0},
                                  {"gpumip.lp.ops.new_counter", 1.0}},
                                 {{"gpumip.simmpi.recv.idle_seconds{rank=0}", 50.0}});
  const Comparison c = reporttool::compare(base, cur);
  ASSERT_EQ(c.failures.size(), 2u);
  EXPECT_EQ(c.failures[0], "bench: gauge gpumip.mip.reuse.hit_rate missing from current run");
  EXPECT_EQ(c.failures[1], "other: bench missing from current run");
  ASSERT_EQ(c.warnings.size(), 1u);
  EXPECT_EQ(c.warnings[0].rfind("bench: new counter gpumip.lp.ops.new_counter", 0), 0u);
  EXPECT_EQ(c.compared, 1);

  // A new metric alone only warns.
  const Comparison grown = reporttool::compare(one_bench({{"gpumip.mip.nodes", 10.0}}),
                                               one_bench({{"gpumip.mip.nodes", 10.0},
                                                          {"gpumip.mip.extra", 1.0}}));
  EXPECT_TRUE(grown.failures.empty());
  EXPECT_EQ(grown.warnings.size(), 1u);

  // A bench only the current run has is not judged, but it warns so the
  // baseline gets regenerated.
  BenchDoc added = one_bench({{"gpumip.mip.nodes", 10.0}});
  added.benches["added"] = added.benches["bench"];
  const Comparison new_bench = reporttool::compare(one_bench({{"gpumip.mip.nodes", 10.0}}), added);
  EXPECT_TRUE(new_bench.failures.empty());
  ASSERT_EQ(new_bench.warnings.size(), 1u);
  EXPECT_EQ(new_bench.warnings[0],
            "new bench added (regenerate the baseline to start tracking it)");
  EXPECT_EQ(new_bench.compared, 1);
}

TEST(ReportAttribution, MissingMetricScoresAgainstZeroAndIdenticalRunsAreClean) {
  const BenchDoc base = one_bench({{"gpumip.mip.cuts.generated", 10.0}});
  const BenchDoc cur = one_bench({{"gpumip.lp.batch.solves{method=pdhg}", 5.0}});
  const Attribution a = reporttool::attribute(base, cur);
  ASSERT_EQ(a.ranked.size(), 2u);  // vanished cuts + appeared batch metric
  EXPECT_TRUE(reporttool::attribute(base, base).ranked.empty());
}

TEST(ReportAttribution, RankSplitsAggregateBeforeScoring) {
  // Which rank serves which node is race-dependent, so the per-rank
  // shards shuffle between two correct runs; only the summed family
  // total is replay-stable. An opposing shuffle must score zero while a
  // real (if small) transfer move still registers.
  const BenchDoc base = one_bench({{"gpumip.simmpi.sent.bytes{rank=0}", 49.0},
                                   {"gpumip.simmpi.sent.bytes{rank=1}", 322.0},
                                   {"gpumip.gpu.xfer.h2d.bytes", 1000.0}});
  const BenchDoc cur = one_bench({{"gpumip.simmpi.sent.bytes{rank=0}", 322.0},
                                  {"gpumip.simmpi.sent.bytes{rank=1}", 49.0},
                                  {"gpumip.gpu.xfer.h2d.bytes", 1010.0}});
  const Attribution a = reporttool::attribute(base, cur);
  ASSERT_EQ(a.ranked.size(), 1u);
  EXPECT_EQ(a.ranked.front().category, "transfer");

  // A genuine total movement still lands in c8_scale, under the
  // label-stripped family name.
  const BenchDoc grown = one_bench({{"gpumip.simmpi.sent.bytes{rank=0}", 400.0},
                                    {"gpumip.simmpi.sent.bytes{rank=1}", 713.0},
                                    {"gpumip.gpu.xfer.h2d.bytes", 1000.0}});
  const Attribution b = reporttool::attribute(base, grown);
  ASSERT_EQ(b.ranked.size(), 1u);
  EXPECT_EQ(b.ranked.front().category, "c8_scale");
  ASSERT_FALSE(b.ranked.front().top.empty());
  EXPECT_EQ(b.ranked.front().top.front().name, "gpumip.simmpi.sent.bytes");
}

TEST(ReportProfile, CategoryMassAndFormatting) {
  const BenchDoc run = one_bench({{"gpumip.gpu.xfer.h2d.bytes", 600.0},
                                  {"gpumip.gpu.xfer.d2h.bytes", 400.0}},
                                 {{"gpumip.mip.reuse.hit_rate", 0.5}});
  const Profile profile = reporttool::build_profile(run, nullptr, nullptr);
  double transfer = -1.0;
  double memory = -1.0;
  for (const auto& ct : profile.categories) {
    if (ct.category == "transfer") transfer = ct.total;
    if (ct.category == "c5_memory") memory = ct.total;
  }
  EXPECT_DOUBLE_EQ(transfer, 1000.0);
  EXPECT_DOUBLE_EQ(memory, 0.5);
  const std::string text = reporttool::format_profile(profile);
  EXPECT_NE(text.find("transfer"), std::string::npos);
}

TEST(ReportTimeSeries, SamplerExportRoundTrips) {
  obs::counter("gpumip.test_report.rt.c").reset();
  obs::SamplerOptions options;
  options.period = 1.0;
  options.columns = {"gpumip.test_report.rt.c"};
  obs::Sampler sampler(options);
  obs::counter("gpumip.test_report.rt.c").add(4);
  sampler.sample_now(1.0);
  sampler.sample_now(2.0);

  TimeSeries series;
  std::string error;
  ASSERT_TRUE(reporttool::parse_timeseries(sampler.to_json(), series, error)) << error;
  ASSERT_EQ(series.columns.size(), 1u);
  EXPECT_EQ(series.columns[0], "gpumip.test_report.rt.c:counter");
  ASSERT_EQ(series.rows.size(), 2u);
  if (obs::kObsEnabled) {
    EXPECT_DOUBLE_EQ(series.rows[0][0], 4.0);
    EXPECT_DOUBLE_EQ(series.rows[1][0], 0.0);
  }

  const BenchDoc empty_run;
  const Profile profile = reporttool::build_profile(empty_run, nullptr, &series);
  EXPECT_TRUE(profile.has_timeseries);
  EXPECT_DOUBLE_EQ(profile.timeseries_span, 1.0);
}

TEST(ReportLive, RegistryExportParsesAndAttributes) {
  // A real registry export (v2, labeled names included) must flow through
  // parse_run -> attribute without hand-editing.
  obs::counter("gpumip.test_report.live.xfer").reset();
  const std::string before = obs::Registry::instance().to_json();
  obs::counter("gpumip.test_report.live.xfer").add(100);
  const std::string after = obs::Registry::instance().to_json();

  BenchDoc base;
  BenchDoc cur;
  std::string error;
  ASSERT_TRUE(reporttool::parse_run(before, base, error)) << error;
  ASSERT_TRUE(reporttool::parse_run(after, cur, error)) << error;
  const Attribution a = reporttool::attribute(base, cur);
  if (obs::kObsEnabled) {
    bool found = false;
    for (const auto& cd : a.ranked) {
      for (const auto& md : cd.top) {
        if (md.name == "gpumip.test_report.live.xfer") found = true;
      }
    }
    EXPECT_TRUE(found) << reporttool::format_attribution(a);
  }
}

TEST(ReportSelfCheck, KnownAnswerFixturesPass) {
  std::ostringstream out;
  EXPECT_TRUE(reporttool::run_self_check(out)) << out.str();
  EXPECT_NE(out.str().find("doubled H2D volume ranks transfer first"), std::string::npos);
}

}  // namespace
}  // namespace gpumip
