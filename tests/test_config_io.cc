/** @file Tests for MachineConfig serialization. */

#include <cmath>
#include <set>
#include <sstream>
#include <type_traits>

#include <gtest/gtest.h>

#include "harness/measure.hh"
#include "machine/config_fields.hh"
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

// ---- the field table -----------------------------------------------

using detail::Block;
using detail::Field;
using detail::forEachSlot;

/** A config that saveConfig() writes in full: both optional blocks
 *  enabled, a topology spec, every per-op override set. */
MachineConfig
everyRowWritten()
{
    MachineConfig cfg = sp2Config();
    cfg.topo_spec = "fattree:2;4,4;1,2";
    cfg.hierarchy.chips = 2;
    cfg.fault.straggler_rate = 0.125;
    for (Coll op : kAllColls) {
        CollCosts &c = cfg.costsFor(op);
        c.reduce_bandwidth_override_mbs = 50;
        c.send_overhead_override = microseconds(1);
        c.recv_overhead_override = microseconds(2);
    }
    return cfg;
}

/** Give row @p f's field a different value that still validates. */
void
perturb(const Field &f, MachineConfig &cfg, Coll op)
{
    std::visit(
        [&](auto *v) {
            using T = std::remove_pointer_t<decltype(v)>;
            if constexpr (std::is_same_v<T, std::string>)
                *v = v == &cfg.topo_spec ? "torus3d:8x4x4" : *v + "x";
            else if constexpr (std::is_same_v<T, bool>)
                *v = !*v;
            else if constexpr (std::is_same_v<T, double>)
                *v = *v < 0.5 ? *v + 0.25 : *v * 0.75;
            else if constexpr (std::is_integral_v<T>)
                *v += f.unit == detail::Unit::Us   ? microseconds(1)
                      : f.unit == detail::Unit::Ns ? nanoseconds(1)
                                                   : 1;
            else if constexpr (std::is_same_v<T, TopologyKind>)
                *v = *v == TopologyKind::Mesh2D ? TopologyKind::Torus3D
                                                : TopologyKind::Mesh2D;
            else if constexpr (std::is_same_v<T, Algo>)
                *v = *v == Algo::Linear ? Algo::Binomial : Algo::Linear;
            else
                *v = *v == fault::RecoveryPolicy::Degrade
                         ? fault::RecoveryPolicy::FailFast
                         : fault::RecoveryPolicy::Degrade;
        },
        f.at(cfg, op));
}

/** Row @p f holds the same value in @p a and @p b (doubles to the
 *  12 significant digits saveConfig writes). */
bool
sameValue(const Field &f, Coll op, MachineConfig &a, MachineConfig &b)
{
    return std::visit(
        [](auto *x, auto *y) {
            using T = std::remove_pointer_t<decltype(x)>;
            if constexpr (!std::is_same_v<
                              T, std::remove_pointer_t<decltype(y)>>)
                return false;
            else if constexpr (std::is_same_v<T, double>)
                return std::abs(*x - *y) <=
                       1e-11 * std::max(1.0, std::abs(*x));
            else
                return *x == *y;
        },
        f.at(a, op), f.at(b, op));
}

std::string
slotName(const Field &f, Coll op)
{
    return f.block == Block::PerOp ? collKey(op) + "." + f.key
                                   : std::string(f.key);
}

TEST(ConfigFields, EveryRowSurvivesSaveAndLoad)
{
    // No two rows reach the same field.
    MachineConfig probe;
    std::set<const void *> fields;
    forEachSlot([&](const Field &f, Coll op) {
        const void *at = std::visit(
            [](auto *v) -> const void * { return v; }, f.at(probe, op));
        EXPECT_TRUE(fields.insert(at).second) << slotName(f, op);
    });

    forEachSlot([](const Field &f, Coll op) {
        MachineConfig want = everyRowWritten();
        perturb(f, want, op);
        std::stringstream ss;
        saveConfig(want, ss);
        MachineConfig back = loadConfig(ss);
        EXPECT_TRUE(sameValue(f, op, back, want)) << slotName(f, op);
        // ... and changes nothing else on the way.
        forEachSlot([&](const Field &g, Coll gop) {
            EXPECT_TRUE(sameValue(g, gop, back, want))
                << slotName(g, gop) << " after perturbing "
                << slotName(f, op);
        });
    });
}

TEST(ConfigFields, ExactlyTheKeyRowsChangeTheMemoKey)
{
    const MachineConfig base = everyRowWritten();
    const std::string base_key = harness::measurePointKey(
        base, 8, Coll::Bcast, 1024, Algo::Binomial);
    EXPECT_EQ(base_key.rfind("v3|", 0), 0u) << base_key;
    forEachSlot([&](const Field &f, Coll op) {
        // Keyed: everything but the display name and the fault block
        // (faulty points are never memoized).
        const bool keyed =
            f.block != Block::Fault && std::string(f.key) != "name";
        EXPECT_EQ(f.in_memo_key, keyed) << slotName(f, op);
        MachineConfig cfg = base;
        perturb(f, cfg, op);
        std::string key = harness::measurePointKey(
            cfg, 8, Coll::Bcast, 1024, Algo::Binomial);
        EXPECT_EQ(key != base_key, keyed) << slotName(f, op);
    });
}

TEST(ConfigFields, EveryFaultsAliasSetsItsConfigField)
{
    int aliases = 0;
    for (const Field &f : detail::configFields()) {
        if (!f.alias)
            continue;
        ++aliases;
        EXPECT_EQ(f.block, Block::Fault) << f.alias;
        MachineConfig want;
        perturb(f, want, Coll::Barrier);
        std::ostringstream value;
        value.precision(17);
        std::visit(
            [&](auto *v) {
                using T = std::remove_pointer_t<decltype(v)>;
                if constexpr (std::is_same_v<T, fault::RecoveryPolicy>)
                    value << fault::policyName(*v);
                else if constexpr (std::is_arithmetic_v<T>)
                    value << (f.unit == detail::Unit::Us
                                  ? toMicros(static_cast<Time>(*v))
                                  : *v);
            },
            f.at(want, Coll::Barrier));
        MachineConfig got;
        got.fault = fault::parseFaultSpec(std::string(f.alias) + "=" +
                                          value.str());
        // The alias sets its own field and no other.
        for (const Field &g : detail::configFields()) {
            if (g.block == Block::Fault) {
                EXPECT_TRUE(sameValue(g, Coll::Barrier, got, want))
                    << g.key << " after --faults " << f.alias << "="
                    << value.str();
            }
        }
    }
    EXPECT_EQ(aliases, 16);
}

} // namespace
} // namespace ccsim::machine
