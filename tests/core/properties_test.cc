// Cross-scenario property tests: invariants that must hold in every
// testbed configuration, parameterized over all four scenarios.
#include <gtest/gtest.h>

#include "core/scenario.h"
#include "core/testbed.h"
#include "workload/fio.h"

namespace deepnote::core {
namespace {

class ScenarioPropertyTest : public ::testing::TestWithParam<ScenarioId> {};

TEST_P(ScenarioPropertyTest, BaselinesIdenticalAcrossScenarios) {
  // The victim drive is the same in every scenario; without an attack the
  // container cannot matter.
  ScenarioSpec spec = make_scenario(GetParam());
  spec.hdd.retain_data = false;
  Testbed bed(spec);
  workload::FioJobConfig job;
  job.pattern = workload::IoPattern::kSeqWrite;
  job.submit_overhead = spec.fio_submit_overhead;
  job.ramp = sim::Duration::from_seconds(1.0);
  job.duration = sim::Duration::from_seconds(5.0);
  workload::FioRunner runner(bed.device());
  EXPECT_NEAR(runner.run(sim::SimTime::zero(), job).throughput_mbps, 22.7,
              0.2);
}

TEST_P(ScenarioPropertyTest, OfftrackScalesLinearlyWithSourcePressure) {
  Testbed bed(make_scenario(GetParam()));
  AttackConfig attack;
  attack.frequency_hz = 650.0;
  attack.distance_m = 0.01;
  attack.spl_air_db = 120.0;
  const double lo = bed.predicted_offtrack_nm(attack);
  attack.spl_air_db = 140.0;  // +20 dB = x10 pressure
  const double hi = bed.predicted_offtrack_nm(attack);
  ASSERT_GT(lo, 0.0);
  EXPECT_NEAR(hi / lo, 10.0, 0.01);
}

TEST_P(ScenarioPropertyTest, OfftrackMonotoneInDistance) {
  Testbed bed(make_scenario(GetParam()));
  AttackConfig attack;
  attack.frequency_hz = 650.0;
  double prev = 1e18;
  for (double d = 0.01; d <= 0.5; d *= 1.5) {
    attack.distance_m = d;
    const double nm = bed.predicted_offtrack_nm(attack);
    EXPECT_LE(nm, prev) << d;
    prev = nm;
  }
}

TEST_P(ScenarioPropertyTest, SafeFarOutsideTheAudioBand) {
  Testbed bed(make_scenario(GetParam()));
  AttackConfig attack;
  attack.distance_m = 0.01;
  for (double f : {20.0, 50.0, 10000.0, 16000.0}) {
    attack.frequency_hz = f;
    EXPECT_LT(bed.predicted_offtrack_nm(attack), 10.0)
        << scenario_name(GetParam()) << " at " << f << " Hz";
  }
}

TEST_P(ScenarioPropertyTest, StopAttackAlwaysRecovers) {
  Testbed bed(make_scenario(GetParam()));
  AttackConfig attack;  // best attack
  bed.apply_attack(sim::SimTime::zero(), attack);
  bed.stop_attack(sim::SimTime::from_seconds(5));
  EXPECT_FALSE(bed.drive().parked());
  std::vector<std::byte> out(4096);
  const auto io = bed.device().read(sim::SimTime::from_seconds(5), 0, 8, out);
  EXPECT_TRUE(io.ok());
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ScenarioPropertyTest,
                         ::testing::Values(ScenarioId::kPlasticFloor,
                                           ScenarioId::kPlasticTower,
                                           ScenarioId::kMetalTower,
                                           ScenarioId::kSteelVessel),
                         [](const auto& info) {
                           switch (info.param) {
                             case ScenarioId::kPlasticFloor:
                               return "PlasticFloor";
                             case ScenarioId::kPlasticTower:
                               return "PlasticTower";
                             case ScenarioId::kMetalTower:
                               return "MetalTower";
                             case ScenarioId::kSteelVessel:
                               return "SteelVessel";
                           }
                           return "Unknown";
                         });

TEST(DeterminismTest, IdenticalSeedsGiveIdenticalExperiments) {
  auto run_once = [] {
    ScenarioSpec spec = make_scenario(ScenarioId::kPlasticTower, 1234);
    spec.hdd.retain_data = false;
    Testbed bed(spec);
    AttackConfig attack;
    attack.distance_m = 0.10;  // stochastic regime: trips + retries
    bed.apply_attack(sim::SimTime::zero(), attack);
    workload::FioJobConfig job;
    job.pattern = workload::IoPattern::kSeqWrite;
    job.submit_overhead = spec.fio_submit_overhead;
    job.ramp = sim::Duration::from_seconds(2.0);
    job.duration = sim::Duration::from_seconds(10.0);
    job.seed = 99;
    workload::FioRunner runner(bed.device());
    return runner.run(sim::SimTime::zero(), job);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.throughput_mbps, b.throughput_mbps);
  EXPECT_EQ(a.ops_completed, b.ops_completed);
  EXPECT_EQ(a.ops_errored, b.ops_errored);
  ASSERT_EQ(a.latency_ms.has_value(), b.latency_ms.has_value());
  if (a.latency_ms) {
    EXPECT_EQ(*a.latency_ms, *b.latency_ms);
  }
}

TEST(DeterminismTest, DifferentDriveSeedsDifferInStochasticRegime) {
  auto run_with_seed = [](std::uint64_t seed) {
    ScenarioSpec spec = make_scenario(ScenarioId::kPlasticTower, seed);
    spec.hdd.retain_data = false;
    Testbed bed(spec);
    AttackConfig attack;
    attack.distance_m = 0.10;
    bed.apply_attack(sim::SimTime::zero(), attack);
    workload::FioJobConfig job;
    job.pattern = workload::IoPattern::kSeqWrite;
    job.submit_overhead = spec.fio_submit_overhead;
    job.ramp = sim::Duration::from_seconds(2.0);
    job.duration = sim::Duration::from_seconds(10.0);
    workload::FioRunner runner(bed.device());
    return runner.run(sim::SimTime::zero(), job).ops_completed;
  };
  EXPECT_NE(run_with_seed(1), run_with_seed(2));
}

TEST(FioMixedTest, MixedPatternSplitsByRatio) {
  ScenarioSpec spec = make_scenario(ScenarioId::kPlasticTower);
  spec.hdd.retain_data = false;
  Testbed bed(spec);
  workload::FioJobConfig job;
  job.pattern = workload::IoPattern::kRandMixed;
  job.read_mix = 0.7;
  job.span_bytes = 64 << 20;  // small span: seeks stay short
  job.submit_overhead = spec.fio_submit_overhead;
  job.ramp = sim::Duration::from_seconds(1.0);
  job.duration = sim::Duration::from_seconds(10.0);
  workload::FioRunner runner(bed.device());
  const auto report = runner.run(sim::SimTime::zero(), job);
  ASSERT_GT(report.throughput_mbps, 0.0);
  EXPECT_NEAR(report.read_mbps / (report.read_mbps + report.write_mbps),
              0.7, 0.1);
  EXPECT_NEAR(report.read_mbps + report.write_mbps, report.throughput_mbps,
              0.2);
}

}  // namespace
}  // namespace deepnote::core
