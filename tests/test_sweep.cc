/** @file Tests for the parallel sweep engine. */

#include <gtest/gtest.h>

#include "harness/sweep.hh"
#include "machine/machine_config.hh"
#include "util/logging.hh"

namespace ccsim::harness {
namespace {

using machine::Algo;
using machine::Coll;

/** A small but heterogeneous spec: two machines, a barrier (no
 *  length axis), point counts that do not divide evenly by any job
 *  count under test. */
SweepSpec
testSpec()
{
    SweepSpec spec;
    spec.machines = {machine::t3dConfig(), machine::sp2Config()};
    spec.ops = {Coll::Bcast, Coll::Barrier, Coll::Alltoall};
    spec.sizes = {2, 4, 8};
    spec.lengths = {16, 1024};
    return spec;
}

TEST(SweepSpec, ExpandsCrossProductInSpecOrder)
{
    auto spec = testSpec();
    auto points = spec.expand();
    // Per machine: bcast 3 sizes x 2 lengths + barrier 3 x 1
    //              + alltoall 3 x 2 = 15.
    ASSERT_EQ(points.size(), 30u);
    // Reserved exactly: no doubling growth touches spare pages.
    EXPECT_EQ(points.capacity(), points.size());
    // Machine outermost.
    EXPECT_EQ(points[0].cfg.name, "T3D");
    EXPECT_EQ(points[15].cfg.name, "SP2");
    // Then op, then p, then m.
    EXPECT_EQ(points[0].op, Coll::Bcast);
    EXPECT_EQ(points[0].p, 2);
    EXPECT_EQ(points[0].m, 16);
    EXPECT_EQ(points[1].m, 1024);
    EXPECT_EQ(points[2].p, 4);
    // Barrier collapses the length axis to one m = 0 point per size.
    EXPECT_EQ(points[6].op, Coll::Barrier);
    EXPECT_EQ(points[6].m, 0);
    EXPECT_EQ(points[7].op, Coll::Barrier);
    EXPECT_EQ(points[7].p, 4);
}

TEST(SweepSpec, EmptyAxesAreFatal)
{
    throwOnError(true);
    SweepSpec spec;
    EXPECT_THROW(spec.expand(), FatalError);
    spec.machines = {machine::t3dConfig()};
    EXPECT_THROW(spec.expand(), FatalError);
    spec.ops = {Coll::Bcast};
    spec.algos.clear();
    EXPECT_THROW(spec.expand(), FatalError);
    throwOnError(false);
}

TEST(SweepSpec, DefaultsToPaperSweeps)
{
    SweepSpec spec;
    spec.machines = {machine::t3dConfig()};
    spec.ops = {Coll::Bcast};
    auto points = spec.expand();
    EXPECT_EQ(points.size(), paperMachineSizes("T3D").size() *
                                 paperMessageLengths().size());
    EXPECT_EQ(points.capacity(), points.size());
}

/** The determinism contract: any --jobs level reproduces the serial
 *  measureCollective results bit for bit, in spec order. */
TEST(SweepRunner, BitIdenticalAcrossJobCounts)
{
    auto spec = testSpec();
    auto points = spec.expand();

    // Serial reference: direct measureCollective calls.
    std::vector<Measurement> reference;
    for (const auto &pt : points)
        reference.push_back(measureCollective(pt.cfg, pt.p, pt.op,
                                              pt.m, pt.algo,
                                              pt.options));

    for (int jobs : {1, 2, 8}) {
        SweepRunner runner(jobs);
        EXPECT_EQ(runner.jobs(), jobs);
        auto results = runner.run(points);
        ASSERT_EQ(results.size(), reference.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            EXPECT_EQ(results[i].max_time, reference[i].max_time)
                << "jobs=" << jobs << " point " << i;
            EXPECT_EQ(results[i].min_time, reference[i].min_time)
                << "jobs=" << jobs << " point " << i;
            EXPECT_EQ(results[i].mean_time, reference[i].mean_time)
                << "jobs=" << jobs << " point " << i;
            EXPECT_EQ(results[i].machine, reference[i].machine);
            EXPECT_EQ(results[i].op, reference[i].op);
            EXPECT_EQ(results[i].m, reference[i].m);
            EXPECT_EQ(results[i].p, reference[i].p);
        }
    }
}

TEST(SweepRunner, SkewInjectionStaysDeterministicInParallel)
{
    // Clock-skew injection draws from a per-point RNG seeded by the
    // point's MeasureOptions, so parallel runs must still agree.
    SweepSpec spec;
    spec.machines = {machine::t3dConfig()};
    spec.ops = {Coll::Bcast};
    spec.sizes = {4, 8};
    spec.lengths = {256};
    spec.options.max_skew = microseconds(10);

    auto serial = SweepRunner(1).run(spec);
    auto parallel = SweepRunner(4).run(spec);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].max_time, parallel[i].max_time);
        EXPECT_EQ(serial[i].min_time, parallel[i].min_time);
        EXPECT_EQ(serial[i].mean_time, parallel[i].mean_time);
    }
}

TEST(SweepRunner, StatsRecordThroughput)
{
    SweepSpec spec;
    spec.machines = {machine::t3dConfig()};
    spec.ops = {Coll::Barrier};
    spec.sizes = {2, 4};

    SweepRunner runner(2);
    auto results = runner.run(spec);
    EXPECT_EQ(results.size(), 2u);
    EXPECT_EQ(runner.lastStats().points, 2u);
    EXPECT_GT(runner.lastStats().wall_seconds, 0.0);
    EXPECT_GT(runner.lastStats().pointsPerSec(), 0.0);
}

TEST(SweepRunner, MoreJobsThanPointsIsFine)
{
    SweepSpec spec;
    spec.machines = {machine::t3dConfig()};
    spec.ops = {Coll::Barrier};
    spec.sizes = {2};

    auto results = SweepRunner(16).run(spec);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].max_time, 0);
}

TEST(SweepRunner, EmptyPointListIsANoop)
{
    SweepRunner runner(4);
    auto results = runner.run(std::vector<SweepPoint>{});
    EXPECT_TRUE(results.empty());
    EXPECT_EQ(runner.lastStats().points, 0u);
}

TEST(SweepRunner, DefaultJobsIsPositive)
{
    EXPECT_GE(SweepRunner::defaultJobs(), 1);
    EXPECT_GE(SweepRunner().jobs(), 1);
}

TEST(SweepRunner, WorkerErrorPropagates)
{
    throwOnError(true);
    std::vector<SweepPoint> points(4);
    for (auto &pt : points) {
        pt.cfg = machine::t3dConfig();
        pt.p = 4;
        pt.op = Coll::Bcast;
        pt.m = 64;
    }
    points[2].options.iterations = 0; // invalid: fatal inside worker
    SweepRunner runner(2);
    EXPECT_THROW(runner.run(points), FatalError);
    throwOnError(false);
}

} // namespace
} // namespace ccsim::harness
