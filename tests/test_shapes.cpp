// Shape-regression tests: the paper's qualitative results, pinned as
// assertions so a future change that silently breaks a trend (not just a
// value) fails CI. These run the real benchmark workloads at reduced
// sizes through the bench harness.
#include <gtest/gtest.h>

#include "bench/scenario.hpp"

namespace amo {
namespace {

using bench::CellParams;
using bench::CellResult;
using sync::Mechanism;

// run_barrier: primary = cycles per barrier, secondary = per processor.
// run_lock: primary = total cycles.
CellResult barrier_at(std::uint32_t cpus, Mechanism mech) {
  core::SystemConfig cfg;
  cfg.num_cpus = cpus;
  CellParams params;
  params.mech = mech;
  params.episodes = 6;
  return bench::run_barrier(cfg, params);
}

TEST(Shapes, MechanismOrderingAtEverySize) {
  // AMO < MAO < Atomic and AMO < MAO < LL/SC in barrier latency (the
  // paper's Table 2 ordering), at every size we test.
  for (std::uint32_t p : {8u, 16u, 32u}) {
    const double llsc = barrier_at(p, Mechanism::kLlSc).primary;
    const double atomic = barrier_at(p, Mechanism::kAtomic).primary;
    const double mao = barrier_at(p, Mechanism::kMao).primary;
    const double amo = barrier_at(p, Mechanism::kAmo).primary;
    EXPECT_LT(amo, mao) << "P=" << p;
    EXPECT_LT(mao, atomic) << "P=" << p;
    EXPECT_LT(atomic, llsc) << "P=" << p;
  }
}

TEST(Shapes, AmoSpeedupGrowsWithScale) {
  const double s8 = barrier_at(8, Mechanism::kLlSc).primary /
                    barrier_at(8, Mechanism::kAmo).primary;
  const double s32 = barrier_at(32, Mechanism::kLlSc).primary /
                     barrier_at(32, Mechanism::kAmo).primary;
  const double s64 = barrier_at(64, Mechanism::kLlSc).primary /
                     barrier_at(64, Mechanism::kAmo).primary;
  EXPECT_GT(s32, s8);
  EXPECT_GT(s64, s32);
  EXPECT_GT(s64, 15.0);  // paper: 23.8 at 64; guard against collapse
}

TEST(Shapes, Figure5Signatures) {
  // LL/SC cycles-per-processor RISES with P (superlinear total);
  // AMO cycles-per-processor FALLS (t = t_o + t_p*P).
  const double llsc16 = barrier_at(16, Mechanism::kLlSc).secondary;
  const double llsc64 = barrier_at(64, Mechanism::kLlSc).secondary;
  const double amo16 = barrier_at(16, Mechanism::kAmo).secondary;
  const double amo64 = barrier_at(64, Mechanism::kAmo).secondary;
  EXPECT_GT(llsc64, llsc16);
  EXPECT_LT(amo64, amo16);
}

TEST(Shapes, TreesHelpConventionalNotAmo) {
  // Paper §4.2.2: trees speed up conventional barriers; plain AMO does
  // not need them (at moderate sizes AMO-central beats AMO+tree).
  core::SystemConfig cfg;
  cfg.num_cpus = 32;
  CellParams central;
  central.episodes = 6;
  CellParams tree = central;
  tree.kind = bench::BarrierKind::kTree;
  tree.fanout = 8;

  central.mech = tree.mech = Mechanism::kLlSc;
  EXPECT_LT(bench::run_barrier(cfg, tree).primary,
            bench::run_barrier(cfg, central).primary);

  central.mech = tree.mech = Mechanism::kAmo;
  EXPECT_LE(bench::run_barrier(cfg, central).primary,
            bench::run_barrier(cfg, tree).primary);
}

TEST(Shapes, ArrayLockCrossover) {
  // Ticket beats array at small P; array beats ticket at large P
  // (paper Table 4's crossover).
  auto lock_cycles = [](std::uint32_t cpus, bool array) {
    core::SystemConfig cfg;
    cfg.num_cpus = cpus;
    CellParams params;
    params.mech = Mechanism::kLlSc;
    params.algo = array ? bench::LockAlgo::kArray : bench::LockAlgo::kTicket;
    params.iters = 4;
    return bench::run_lock(cfg, params).primary;
  };
  EXPECT_LT(lock_cycles(8, false), lock_cycles(8, true));    // ticket wins
  EXPECT_GT(lock_cycles(64, false), lock_cycles(64, true));  // array wins
}

TEST(Shapes, AmoLockTrafficIsLowest) {
  auto traffic = [](Mechanism mech) {
    core::SystemConfig cfg;
    cfg.num_cpus = 32;
    CellParams params;
    params.mech = mech;
    params.iters = 4;
    return bench::run_lock(cfg, params).traffic.bytes;
  };
  const std::uint64_t llsc = traffic(Mechanism::kLlSc);
  const std::uint64_t amo = traffic(Mechanism::kAmo);
  EXPECT_LT(amo * 3, llsc);  // at least 3x less traffic (paper: ~10x)
}

TEST(Shapes, DelayedPutBeatsEagerAtScale) {
  core::SystemConfig delayed_cfg;
  delayed_cfg.num_cpus = 32;
  core::SystemConfig eager_cfg = delayed_cfg;
  eager_cfg.amu.eager_put_all = true;
  CellParams params;
  params.mech = Mechanism::kAmo;
  params.episodes = 6;
  EXPECT_LT(bench::run_barrier(delayed_cfg, params).primary,
            bench::run_barrier(eager_cfg, params).primary);
}

bench::CellResult spin_cell_at(std::uint32_t cpus, std::uint32_t active) {
  core::SystemConfig cfg;
  cfg.num_cpus = cpus;
  bench::CellParams p;
  p.mech = Mechanism::kAmo;
  p.episodes = 4;
  p.active = active;
  return bench::run_cell(cfg, p);
}

TEST(Shapes, MicrobenchSpinDoubleRunIdentity) {
  // The spin kernel is deterministic: two runs of the same cell agree in
  // every reported field (cycles, host events, traffic).
  const bench::CellResult a = spin_cell_at(16, 4);
  const bench::CellResult b = spin_cell_at(16, 4);
  EXPECT_EQ(a.primary, b.primary);
  EXPECT_EQ(a.secondary, b.secondary);
  EXPECT_EQ(a.aux, b.aux);
  EXPECT_EQ(a.traffic.packets, b.traffic.packets);
  EXPECT_EQ(a.traffic.bytes, b.traffic.bytes);
}

TEST(Shapes, SpinQuiescenceCutsHostEventsNotCycles) {
  // Event-driven waiting changes what the HOST executes, never what the
  // simulated machine does. The constants are this cell's values when
  // cached spins re-polled on a 2000-cycle fallback timer: per-episode
  // cycles (primary) must match exactly, while executed events per
  // episode (secondary, and aux in total) must drop because idle
  // busy-waiters no longer pay re-poll events.
  constexpr double kPollCyclesPerEpisode = 2801.5;
  constexpr double kPollEventsPerEpisode = 175.0;
  constexpr std::uint64_t kPollEvents = 700;
  const bench::CellResult quiet = spin_cell_at(32, 4);
  EXPECT_EQ(quiet.primary, kPollCyclesPerEpisode);
  EXPECT_LT(quiet.secondary, kPollEventsPerEpisode);
  EXPECT_LT(quiet.aux, kPollEvents);
}

TEST(Shapes, SpinQuiesceEventsScaleWithActiveCores) {
  // The virtualization claim at shape level: host events per episode
  // grow with the number of ACTIVE cores, not with machine size — the
  // parked majority contributes (almost) nothing.
  const std::uint64_t small = spin_cell_at(64, 4).aux;
  const std::uint64_t large = spin_cell_at(64, 32).aux;
  EXPECT_LT(small * 2, large);
}

TEST(Shapes, SpinEventsCoverTheWholeRunUnderPdes) {
  // Under PDES a mid-run read of the event counters would race other
  // domains, so the measured-episode event count falls back to the whole
  // run, the same way the traffic window does.
  core::SystemConfig cfg;
  cfg.num_cpus = 16;
  cfg.sim_threads = 2;
  bench::CellParams p;
  p.mech = Mechanism::kAmo;
  p.episodes = 4;
  p.active = 4;
  const bench::CellResult r = bench::run_cell(cfg, p);
  EXPECT_GT(r.events, 0u);
  EXPECT_EQ(r.aux, r.events);
}

TEST(Shapes, AmoAdvantageGrowsWithHopLatency) {
  auto speedup_at_hop = [](sim::Cycle hop) {
    core::SystemConfig cfg;
    cfg.num_cpus = 32;
    cfg.net.hop_cycles = hop;
    CellParams params;
    params.episodes = 6;
    params.mech = Mechanism::kLlSc;
    const double base = bench::run_barrier(cfg, params).primary;
    params.mech = Mechanism::kAmo;
    return base / bench::run_barrier(cfg, params).primary;
  };
  EXPECT_GT(speedup_at_hop(400), speedup_at_hop(50));
}

}  // namespace
}  // namespace amo
