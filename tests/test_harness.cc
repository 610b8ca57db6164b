/** @file Tests for the Section 2 measurement harness. */

#include <gtest/gtest.h>

#include "harness/measure.hh"
#include "machine/machine_config.hh"
#include "util/logging.hh"

namespace ccsim::harness {
namespace {

using machine::Algo;
using machine::Coll;

TEST(Harness, DeterministicAcrossRuns)
{
    auto cfg = machine::t3dConfig();
    auto a = measureCollective(cfg, 8, Coll::Bcast, 1024);
    auto b = measureCollective(cfg, 8, Coll::Bcast, 1024);
    EXPECT_EQ(a.max_time, b.max_time);
    EXPECT_EQ(a.min_time, b.min_time);
    EXPECT_EQ(a.mean_time, b.mean_time);
}

TEST(Harness, MaxDominatesMeanDominatesMin)
{
    auto cfg = machine::sp2Config();
    auto m = measureCollective(cfg, 16, Coll::Gather, 4096);
    EXPECT_GE(m.max_time, m.mean_time);
    EXPECT_GE(m.mean_time, m.min_time);
    EXPECT_GT(m.min_time, 0);
}

TEST(Harness, MetadataFilledIn)
{
    auto cfg = machine::paragonConfig();
    auto m = measureCollective(cfg, 4, Coll::Scan, 64);
    EXPECT_EQ(m.machine, "Paragon");
    EXPECT_EQ(m.op, Coll::Scan);
    EXPECT_EQ(m.m, 64);
    EXPECT_EQ(m.p, 4);
    EXPECT_DOUBLE_EQ(m.us(), toMicros(m.max_time));
}

TEST(Harness, MoreIterationsSameSteadyState)
{
    // Deterministic simulator: k = 3 and k = 10 must agree closely
    // (only warm-up pipelining differs).
    auto cfg = machine::t3dConfig();
    MeasureOptions small;
    small.iterations = 3;
    MeasureOptions big;
    big.iterations = 10;
    auto a = measureCollective(cfg, 8, Coll::Alltoall, 1024,
                               Algo::Default, small);
    auto b = measureCollective(cfg, 8, Coll::Alltoall, 1024,
                               Algo::Default, big);
    double rel = std::abs(a.us() - b.us()) / b.us();
    EXPECT_LT(rel, 0.05);
}

TEST(Harness, RootsHeldDoNotGrowWithIterations)
{
    // Rank programs are roots, and so is each rendezvous send and
    // receive (the 16 KiB bcast is above SP2's 4 KiB eager
    // threshold).  Finished roots are freed, so the most held at once
    // is set by one iteration's in-flight work, not by how many
    // iterations ran.
    auto cfg = machine::sp2Config();
    cfg.topo_spec = "fattree";
    auto held = [&](int p, Coll op, Bytes m, int k) {
        MeasureOptions o;
        o.iterations = k;
        o.repetitions = 1;
        o.memoize = false;
        o.metrics = true;
        auto meas = measureCollective(cfg, p, op, m, Algo::Default, o);
        return meas.metrics.gauges.at("sim.roots_held");
    };
    double k1 = held(4096, Coll::Barrier, 0, 1);
    EXPECT_GT(k1, 0.0);
    EXPECT_EQ(held(4096, Coll::Barrier, 0, 8), k1);
    // Consecutive bcasts overlap a little, so the high water may move
    // by a root or two with k, but not by the 126 rendezvous roots
    // each iteration spawns (63 sends, 63 receives).
    double rdv1 = held(64, Coll::Bcast, 16 * KiB, 1);
    EXPECT_GT(rdv1, 64.0);
    EXPECT_LT(held(64, Coll::Bcast, 16 * KiB, 8), rdv1 + 63.0);
}

TEST(Harness, PaperFaithfulOptionsRun)
{
    auto opt = MeasureOptions::paperFaithful();
    EXPECT_EQ(opt.iterations, 20);
    EXPECT_EQ(opt.repetitions, 5);
    EXPECT_EQ(opt.warmup, 2);
    auto cfg = machine::t3dConfig();
    auto m = measureCollective(cfg, 4, Coll::Bcast, 256, Algo::Default,
                               opt);
    // Skew injection must not distort the steady-state number much.
    auto quick = measureCollective(cfg, 4, Coll::Bcast, 256);
    EXPECT_NEAR(m.us(), quick.us(), quick.us() * 0.15);
}

TEST(Harness, ClockSkewIncreasesSpread)
{
    auto cfg = machine::t3dConfig();
    MeasureOptions skewed;
    skewed.max_skew = microseconds(50);
    skewed.repetitions = 1;
    auto plain = measureCollective(cfg, 8, Coll::Bcast, 64);
    auto sk = measureCollective(cfg, 8, Coll::Bcast, 64, Algo::Default,
                                skewed);
    // The barrier before timing re-aligns ranks logically but not
    // temporally; spread (max - min) should not shrink with skew.
    EXPECT_GE(sk.max_time - sk.min_time,
              plain.max_time - plain.min_time);
}

TEST(Harness, StartupUsesShortMessage)
{
    auto cfg = machine::t3dConfig();
    auto t0 = measureStartup(cfg, 8, Coll::Bcast);
    auto full = measureCollective(cfg, 8, Coll::Bcast,
                                  kStartupMessageBytes);
    EXPECT_EQ(t0.max_time, full.max_time);
    auto bar = measureStartup(cfg, 8, Coll::Barrier);
    EXPECT_EQ(bar.m, 0);
}

TEST(Harness, AlgorithmOverrideChangesResult)
{
    auto cfg = machine::sp2Config();
    auto lin = measureCollective(cfg, 16, Coll::Bcast, 64,
                                 Algo::Linear);
    auto tree = measureCollective(cfg, 16, Coll::Bcast, 64,
                                  Algo::Binomial);
    EXPECT_GT(lin.us(), tree.us()); // O(p) vs O(log p)
}

TEST(Harness, BadOptionsAreFatal)
{
    throwOnError(true);
    auto cfg = machine::t3dConfig();
    MeasureOptions bad;
    bad.iterations = 0;
    EXPECT_THROW(measureCollective(cfg, 4, Coll::Bcast, 4,
                                   Algo::Default, bad),
                 FatalError);
    bad = MeasureOptions{};
    bad.max_skew = -1;
    EXPECT_THROW(measureCollective(cfg, 4, Coll::Bcast, 4,
                                   Algo::Default, bad),
                 FatalError);
    throwOnError(false);
}

TEST(Harness, PaperSweepDefinitions)
{
    EXPECT_EQ(paperMachineSizes("T3D").back(), 64);
    EXPECT_EQ(paperMachineSizes("SP2").back(), 128);
    EXPECT_EQ(paperMachineSizes("Paragon").back(), 128);
    auto lengths = paperMessageLengths();
    EXPECT_EQ(lengths.front(), 4);
    EXPECT_EQ(lengths.back(), 64 * KiB);
    for (std::size_t i = 1; i < lengths.size(); ++i)
        EXPECT_EQ(lengths[i], lengths[i - 1] * 4);
}

TEST(Harness, AggregatedLengthMatchesSection3)
{
    EXPECT_EQ(aggregatedLength(Coll::Bcast, 100, 64), 6300);
    EXPECT_EQ(aggregatedLength(Coll::Gather, 100, 64), 6300);
    EXPECT_EQ(aggregatedLength(Coll::Scatter, 100, 64), 6300);
    EXPECT_EQ(aggregatedLength(Coll::Reduce, 100, 64), 6300);
    EXPECT_EQ(aggregatedLength(Coll::Scan, 100, 64), 6300);
    EXPECT_EQ(aggregatedLength(Coll::Alltoall, 100, 64), 100 * 64 * 63);
    EXPECT_EQ(aggregatedLength(Coll::Barrier, 100, 64), 0);
}

} // namespace
} // namespace ccsim::harness
