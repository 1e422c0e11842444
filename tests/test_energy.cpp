// Energy substrate tests: CPU catalogue (Table I), power model, RAPL
// counters, PAPI-style monitor.
#include <gtest/gtest.h>

#include "common/error.h"
#include "energy/cpu_model.h"
#include "energy/powercap_monitor.h"
#include "energy/rapl_sim.h"
#include "parallel/executor.h"

namespace eblcio {
namespace {

TEST(CpuCatalog, TableOneEntries) {
  const auto& cat = cpu_catalog();
  ASSERT_EQ(cat.size(), 3u);
  EXPECT_EQ(cpu_model("8260M").cores, 96);
  EXPECT_DOUBLE_EQ(cpu_model("8260M").tdp_w, 165.0);
  EXPECT_EQ(cpu_model("9480").cores, 112);
  EXPECT_DOUBLE_EQ(cpu_model("9480").tdp_w, 350.0);
  EXPECT_EQ(cpu_model("8160").cores, 48);
  EXPECT_DOUBLE_EQ(cpu_model("8160").tdp_w, 270.0);
}

TEST(CpuCatalog, LookupIsSubstringAndCaseInsensitive) {
  EXPECT_EQ(cpu_model("xeon cpu max").name, "Intel Xeon CPU Max 9480");
  EXPECT_THROW(cpu_model("EPYC"), InvalidArgument);
}

TEST(CpuModel, PaperOrdinalClaims) {
  // Newer CPU = faster and more energy-efficient (paper Sec. V-A):
  // Sapphire Rapids < Skylake < Cascade Lake in serial-task energy.
  const auto& spr = cpu_model("9480");
  const auto& skl = cpu_model("8160");
  const auto& clx = cpu_model("8260M");
  EXPECT_GT(spr.speed_factor, skl.speed_factor);
  EXPECT_GT(skl.speed_factor, clx.speed_factor);
  // Energy of a fixed serial task: P(1 core) * (t / speed).
  auto serial_energy = [](const CpuModel& c) {
    return c.node_power_w(1) / c.speed_factor;
  };
  EXPECT_LT(serial_energy(spr), serial_energy(skl));
  EXPECT_LT(serial_energy(skl), serial_energy(clx));
}

TEST(CpuModel, PowerMonotoneInThreadsAndCapped) {
  const auto& cpu = cpu_model("9480");
  double prev = 0.0;
  for (int t : {0, 1, 8, 32, 112}) {
    const double p = cpu.node_power_w(t);
    EXPECT_GE(p, prev);
    prev = p;
  }
  EXPECT_LE(cpu.node_power_w(10000), cpu.packages * cpu.tdp_w);
  // Idle floor.
  EXPECT_DOUBLE_EQ(cpu.node_power_w(0), cpu.packages * cpu.idle_w);
}

TEST(CpuModel, IoPowerAboveIdleBelowBusy) {
  for (const auto& cpu : cpu_catalog()) {
    EXPECT_GT(cpu.io_power_w(), cpu.node_power_w(0));
    EXPECT_LT(cpu.io_power_w(), cpu.node_power_w(cpu.cores));
  }
}

TEST(Rapl, EnergyAccumulatesAcrossPackages) {
  RaplSimulator rapl;
  rapl.advance(2.0, 100.0);  // 200 J total, 100 J per package
  EXPECT_NEAR(rapl.total_joules(), 200.0, 1e-9);
  EXPECT_NEAR(static_cast<double>(rapl.package_energy_uj(0)), 100e6, 1.0);
  EXPECT_NEAR(static_cast<double>(rapl.package_energy_uj(1)), 100e6, 1.0);
  EXPECT_DOUBLE_EQ(rapl.elapsed_seconds(), 2.0);
}

TEST(Rapl, CountersWrapAt32BitMicrojoules) {
  RaplSimulator rapl;
  // Push ~3000 J per package: 3e9 uJ < 2^32 (~4.29e9): no wrap yet.
  rapl.advance(30.0, 200.0);
  const auto before = rapl.package_energy_uj(0);
  // Another 2000 J per package wraps the 32-bit counter.
  rapl.advance(40.0, 100.0);
  const auto after = rapl.package_energy_uj(0);
  EXPECT_LT(after, before);  // wrapped
  EXPECT_NEAR(rapl.total_joules(), 30 * 200 + 40 * 100, 1e-6);
}

TEST(Rapl, RejectsNegativeInput) {
  RaplSimulator rapl;
  EXPECT_THROW(rapl.advance(-1.0, 10.0), InvalidArgument);
  EXPECT_THROW(rapl.advance(1.0, -10.0), InvalidArgument);
}

TEST(Monitor, ComputePhaseDilatesBySpeedFactor) {
  const auto& cpu = cpu_model("9480");  // speed 1.35
  PowercapMonitor mon(cpu);
  const auto r = mon.record_compute("compress", 1.35, 1);
  EXPECT_NEAR(r.seconds, 1.0, 1e-9);
  EXPECT_NEAR(r.joules, cpu.node_power_w(1) * 1.0, cpu.node_power_w(1) * 0.02);
  EXPECT_GT(r.samples, 50);  // 10 ms sampling over 1 s
}

TEST(Monitor, EnergyIsSumOfSampledPower) {
  const auto& cpu = cpu_model("8160");
  PowercapMonitor mon(cpu);
  mon.record_compute("a", 0.5, 4);
  mon.record_io("b", 0.25);
  const auto total = mon.total();
  const double expect = cpu.node_power_w(4) * 0.5 + cpu.io_power_w() * 0.25;
  EXPECT_NEAR(total.joules, expect, expect * 0.02);
  EXPECT_EQ(mon.phases().size(), 2u);
  EXPECT_EQ(mon.phases()[0].label, "a");
}

TEST(Monitor, MoreThreadsShorterButHotter) {
  // Same host-measured work parallelized: if runtime halves and power
  // less than doubles, energy drops — the Fig. 10 mechanism.
  const auto& cpu = cpu_model("9480");
  PowercapMonitor m1(cpu), m2(cpu);
  const auto serial = m1.record_compute("c", 8.0, 1);
  const auto parallel = m2.record_compute("c", 1.0, 8);  // perfect speedup
  EXPECT_LT(parallel.seconds, serial.seconds);
  EXPECT_LT(parallel.joules, serial.joules);
}

TEST(Dvfs, PowerScalesSuperlinearlyActiveOnly) {
  const auto& cpu = cpu_model("9480");
  // Idle floor is frequency independent.
  EXPECT_DOUBLE_EQ(cpu.node_power_w_at(0, 0.5), cpu.node_power_w(0));
  // Active power at half frequency is well below half nominal (~f^2.4).
  const double idle = cpu.node_power_w(0);
  const double active_nominal = cpu.node_power_w_at(16, 1.0) - idle;
  const double active_half = cpu.node_power_w_at(16, 0.5) - idle;
  EXPECT_LT(active_half, active_nominal * 0.25);
  EXPECT_THROW(cpu.node_power_w_at(1, 0.0), InvalidArgument);
}

TEST(Dvfs, EnergyOptimalFrequencyIsInterior) {
  // With a non-trivial idle floor, E(f) = P(f) * t/f has an interior
  // minimum: slower wastes idle energy, faster pays the f^2.4 premium.
  const auto& cpu = cpu_model("9480");
  const double t_nominal = 10.0;
  const int cores = 32;
  double best_f = 0.0, best_e = 1e300;
  for (double f = 0.4; f <= 1.6; f += 0.05) {
    const double e = cpu.compute_energy_j(t_nominal, cores, f);
    if (e < best_e) {
      best_e = e;
      best_f = f;
    }
  }
  EXPECT_GT(best_f, 0.45);
  EXPECT_LT(best_f, 1.55);
  EXPECT_LT(best_e, cpu.compute_energy_j(t_nominal, cores, 0.4));
  EXPECT_LT(best_e, cpu.compute_energy_j(t_nominal, cores, 1.6));
}

TEST(Monitor, ConcurrentChargesAccumulateExactly) {
  // Regression: the streaming pipeline's tasks charge one monitor
  // concurrently. Every phase must land and the joules must equal
  // the serial sum — lost updates would silently shrink Fig. 11/12 energy.
  const auto& cpu = cpu_model("9480");
  PowercapMonitor expected(cpu);
  for (int i = 0; i < 8; ++i) expected.record_compute("phase", 0.13, 2);

  PowercapMonitor mon(cpu);
  TaskGroup group;
  for (int i = 0; i < 8; ++i)
    group.run([&] { mon.record_compute("phase", 0.13, 2); });
  group.wait();

  EXPECT_EQ(mon.phases().size(), 8u);
  EXPECT_NEAR(mon.total().joules, expected.total().joules, 1e-9);
  EXPECT_NEAR(mon.total().seconds, expected.total().seconds, 1e-12);
  EXPECT_EQ(mon.total().samples, expected.total().samples);
}

TEST(Monitor, ConcurrentMixedPhasesAllLand) {
  const auto& cpu = cpu_model("8160");
  PowercapMonitor mon(cpu);
  TaskGroup group;
  for (int i = 0; i < 4; ++i) {
    group.run([&] { mon.record_compute("c", 0.05, 4); });
    group.run([&] { mon.record_io("w", 0.05); });
  }
  group.wait();
  EXPECT_EQ(mon.phases().size(), 8u);
  const double expect =
      4 * cpu.node_power_w(4) * 0.05 / cpu.speed_factor +
      4 * cpu.io_power_w() * 0.05;
  EXPECT_NEAR(mon.total().joules, expect, expect * 0.02);
}

TEST(Monitor, ResetClearsState) {
  PowercapMonitor mon(default_cpu());
  mon.record_io("x", 1.0);
  mon.reset();
  EXPECT_EQ(mon.phases().size(), 0u);
  EXPECT_DOUBLE_EQ(mon.total().joules, 0.0);
}

}  // namespace
}  // namespace eblcio
