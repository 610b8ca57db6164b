/** @file Tests for MachineConfig serialization. */

#include <sstream>

#include <gtest/gtest.h>

#include "machine/config_io.hh"
#include "util/logging.hh"

namespace ccsim::machine {
namespace {

void
expectConfigsEqual(const MachineConfig &a, const MachineConfig &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.topology, b.topology);
    EXPECT_EQ(a.switch_radix, b.switch_radix);
    EXPECT_DOUBLE_EQ(a.network.link_bandwidth_mbs,
                     b.network.link_bandwidth_mbs);
    EXPECT_EQ(a.network.hop_latency, b.network.hop_latency);
    EXPECT_EQ(a.network.packet_overhead, b.network.packet_overhead);
    EXPECT_EQ(a.network.contention, b.network.contention);
    EXPECT_EQ(a.transport.send_overhead, b.transport.send_overhead);
    EXPECT_EQ(a.transport.recv_overhead, b.transport.recv_overhead);
    EXPECT_DOUBLE_EQ(a.transport.copy_bandwidth_mbs,
                     b.transport.copy_bandwidth_mbs);
    EXPECT_EQ(a.transport.eager_threshold, b.transport.eager_threshold);
    EXPECT_EQ(a.transport.rendezvous_overhead,
              b.transport.rendezvous_overhead);
    EXPECT_DOUBLE_EQ(a.transport.coprocessor_overlap,
                     b.transport.coprocessor_overlap);
    EXPECT_EQ(a.transport.blt_enabled, b.transport.blt_enabled);
    EXPECT_EQ(a.transport.blt_threshold, b.transport.blt_threshold);
    EXPECT_EQ(a.transport.blt_setup, b.transport.blt_setup);
    EXPECT_DOUBLE_EQ(a.reduce_bandwidth_mbs, b.reduce_bandwidth_mbs);
    EXPECT_EQ(a.hardware_barrier, b.hardware_barrier);
    EXPECT_EQ(a.hardware_barrier_latency, b.hardware_barrier_latency);
    for (Coll op : kAllColls) {
        EXPECT_EQ(a.algorithmFor(op), b.algorithmFor(op))
            << collName(op);
        const CollCosts &ca = a.costsFor(op);
        const CollCosts &cb = b.costsFor(op);
        EXPECT_EQ(ca.entry, cb.entry) << collName(op);
        EXPECT_EQ(ca.per_stage, cb.per_stage) << collName(op);
        EXPECT_DOUBLE_EQ(ca.per_stage_ns_per_byte,
                         cb.per_stage_ns_per_byte)
            << collName(op);
        EXPECT_DOUBLE_EQ(ca.reduce_bandwidth_override_mbs,
                         cb.reduce_bandwidth_override_mbs)
            << collName(op);
        EXPECT_EQ(ca.send_overhead_override, cb.send_overhead_override)
            << collName(op);
        EXPECT_EQ(ca.recv_overhead_override, cb.recv_overhead_override)
            << collName(op);
    }
}

TEST(ConfigIo, AllPresetsRoundTrip)
{
    for (const auto &cfg :
         {sp2Config(), t3dConfig(), paragonConfig(), idealConfig()}) {
        std::stringstream ss;
        saveConfig(cfg, ss);
        MachineConfig loaded = loadConfig(ss);
        expectConfigsEqual(cfg, loaded);
    }
}

TEST(ConfigIo, BasePresetWithOverrides)
{
    std::stringstream ss;
    ss << "base = SP2\n"
       << "name = FatPipeSP2\n"
       << "link_bandwidth_mbs = 150\n"
       << "bcast.algorithm = scatter-allgather\n"
       << "bcast.per_stage_us = 10\n";
    MachineConfig cfg = loadConfig(ss);
    EXPECT_EQ(cfg.name, "FatPipeSP2");
    EXPECT_EQ(cfg.topology, TopologyKind::Omega); // from the base
    EXPECT_DOUBLE_EQ(cfg.network.link_bandwidth_mbs, 150.0);
    EXPECT_EQ(cfg.algorithmFor(Coll::Bcast), Algo::ScatterAllgather);
    EXPECT_EQ(cfg.costsFor(Coll::Bcast).per_stage, microseconds(10));
    // Untouched fields keep the SP2 calibration.
    EXPECT_EQ(cfg.transport.send_overhead,
              sp2Config().transport.send_overhead);
}

TEST(ConfigIo, CommentsAndBlanksIgnored)
{
    std::stringstream ss;
    ss << "# header comment\n\n"
       << "name = X  # trailing comment\n"
       << "   \n"
       << "link_bandwidth_mbs = 5\n";
    MachineConfig cfg = loadConfig(ss);
    EXPECT_EQ(cfg.name, "X");
    EXPECT_DOUBLE_EQ(cfg.network.link_bandwidth_mbs, 5.0);
}

TEST(ConfigIo, ErrorsAreFatal)
{
    throwOnError(true);
    auto load = [](const std::string &text) {
        std::stringstream ss(text);
        return loadConfig(ss);
    };
    EXPECT_THROW(load("bogus_key = 1\n"), FatalError);
    EXPECT_THROW(load("link_bandwidth_mbs = fast\n"), FatalError);
    EXPECT_THROW(load("contention = maybe\n"), FatalError);
    EXPECT_THROW(load("no equals sign\n"), FatalError);
    EXPECT_THROW(load("bcast.bogus = 1\n"), FatalError);
    EXPECT_THROW(load("warp.algorithm = linear\n"), FatalError);
    EXPECT_THROW(load("bcast.algorithm = warp-speed\n"), FatalError);
    EXPECT_THROW(load("topology = moebius\n"), FatalError);
    EXPECT_THROW(load("name = x\nbase = SP2\n"), FatalError);
    EXPECT_THROW(load("base = VAX\n"), FatalError);
    // Validation runs on load: hardware algo without hardware.
    EXPECT_THROW(load("barrier.algorithm = hardware\n"), FatalError);
    throwOnError(false);
}

TEST(ConfigIo, NameHelpers)
{
    EXPECT_EQ(collKey(Coll::Alltoall), "alltoall");
    EXPECT_EQ(collKey(Coll::ReduceScatter), "reduce_scatter");
    EXPECT_EQ(algoFromName("binomial"), Algo::Binomial);
    EXPECT_EQ(algoFromName("rabenseifner"), Algo::Rabenseifner);
    EXPECT_EQ(topologyKindByName("torus3d"), TopologyKind::Torus3D);
    EXPECT_EQ(topologyKindByName("hypercube"), TopologyKind::Hypercube);
    EXPECT_EQ(presetByName("T3D").name, "T3D");
}

TEST(ConfigIo, FileRoundTrip)
{
    std::string path = "/tmp/ccsim_config_test.cfg";
    saveConfigFile(t3dConfig(), path);
    MachineConfig loaded = loadConfigFile(path);
    expectConfigsEqual(t3dConfig(), loaded);
}

TEST(ConfigIo, MissingFileFatal)
{
    throwOnError(true);
    EXPECT_THROW(loadConfigFile("/nonexistent/nowhere.cfg"),
                 FatalError);
    throwOnError(false);
}

} // namespace
} // namespace ccsim::machine
