#include "machine/config_io.hh"
#include "machine/config_fields.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdarg>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <type_traits>
#include <variant>

#include "util/cli.hh"
#include "util/logging.hh"

namespace ccsim::machine {

namespace {

/** fatal() analogue that raises ConfigError (component "config",
 *  exit kConfigExit) so config mistakes are distinguishable from
 *  generic user errors. */
[[noreturn]] void
configFatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

[[noreturn]] void
configFatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrFormat(fmt, ap);
    va_end(ap);
    raiseError(ConfigError(msg));
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

const std::map<std::string, Coll> &
collKeys()
{
    static const std::map<std::string, Coll> keys = {
        {"barrier", Coll::Barrier},
        {"bcast", Coll::Bcast},
        {"gather", Coll::Gather},
        {"scatter", Coll::Scatter},
        {"allgather", Coll::Allgather},
        {"alltoall", Coll::Alltoall},
        {"reduce", Coll::Reduce},
        {"allreduce", Coll::Allreduce},
        {"reduce_scatter", Coll::ReduceScatter},
        {"scan", Coll::Scan},
    };
    return keys;
}

// ---- the field table: one row per persisted MachineConfig field ----

using detail::Block;
using detail::Field;
using detail::FieldRef;
using detail::forEachSlot;
using detail::Unit;

// The accessor of one row: the reader writes through it, the writers
// and the memo key read through it.
#define CCSIM_AT(field)                                               \
    [](MachineConfig &c, [[maybe_unused]] Coll op) -> FieldRef {      \
        return &c.field;                                              \
    }

const Field kFields[] = {
    {Block::Machine, "name", CCSIM_AT(name), Unit::Plain, nullptr, false},
    {Block::Machine, "topology", CCSIM_AT(topology)},
    {Block::Machine, "topology_spec", CCSIM_AT(topo_spec), Unit::Plain,
     nullptr, true,
     [](const MachineConfig &c, Coll) { return !c.topo_spec.empty(); }},
    {Block::Machine, "switch_radix", CCSIM_AT(switch_radix)},
    {Block::Machine, "link_bandwidth_mbs",
     CCSIM_AT(network.link_bandwidth_mbs)},
    {Block::Machine, "hop_latency_ns", CCSIM_AT(network.hop_latency),
     Unit::Ns},
    {Block::Machine, "packet_overhead", CCSIM_AT(network.packet_overhead)},
    {Block::Machine, "contention", CCSIM_AT(network.contention)},
    {Block::Machine, "send_overhead_us",
     CCSIM_AT(transport.send_overhead), Unit::Us},
    {Block::Machine, "recv_overhead_us",
     CCSIM_AT(transport.recv_overhead), Unit::Us},
    {Block::Machine, "copy_bandwidth_mbs",
     CCSIM_AT(transport.copy_bandwidth_mbs)},
    {Block::Machine, "eager_threshold",
     CCSIM_AT(transport.eager_threshold)},
    {Block::Machine, "rendezvous_overhead_us",
     CCSIM_AT(transport.rendezvous_overhead), Unit::Us},
    {Block::Machine, "coprocessor_overlap",
     CCSIM_AT(transport.coprocessor_overlap)},
    {Block::Machine, "blt_enabled", CCSIM_AT(transport.blt_enabled)},
    {Block::Machine, "blt_threshold", CCSIM_AT(transport.blt_threshold)},
    {Block::Machine, "blt_setup_us", CCSIM_AT(transport.blt_setup),
     Unit::Us},
    {Block::Machine, "reduce_bandwidth_mbs",
     CCSIM_AT(reduce_bandwidth_mbs)},
    {Block::Machine, "hardware_barrier", CCSIM_AT(hardware_barrier)},
    {Block::Machine, "hardware_barrier_latency_us",
     CCSIM_AT(hardware_barrier_latency), Unit::Us},

    {Block::Hierarchy, "chips", CCSIM_AT(hierarchy.chips)},
    {Block::Hierarchy, "cores", CCSIM_AT(hierarchy.cores)},
    {Block::Hierarchy, "chip_bandwidth_mbs",
     CCSIM_AT(hierarchy.chip.link_bandwidth_mbs)},
    {Block::Hierarchy, "chip_latency_ns",
     CCSIM_AT(hierarchy.chip.hop_latency), Unit::Ns},
    {Block::Hierarchy, "node_bandwidth_mbs",
     CCSIM_AT(hierarchy.node.link_bandwidth_mbs)},
    {Block::Hierarchy, "node_latency_ns",
     CCSIM_AT(hierarchy.node.hop_latency), Unit::Ns},

    // Faulty points are never memoized, so no fault row is keyed.
    {Block::Fault, "seed", CCSIM_AT(fault.seed), Unit::Plain, "seed",
     false},
    {Block::Fault, "link_degrade_rate", CCSIM_AT(fault.link_degrade_rate),
     Unit::Plain, "degrade", false},
    {Block::Fault, "link_degrade_factor",
     CCSIM_AT(fault.link_degrade_factor), Unit::Plain, "degrade_factor",
     false},
    {Block::Fault, "link_blackhole_rate",
     CCSIM_AT(fault.link_blackhole_rate), Unit::Plain, "blackhole",
     false},
    {Block::Fault, "window_start_us", CCSIM_AT(fault.window_start),
     Unit::Us, "window_start_us", false},
    {Block::Fault, "window_duration_us", CCSIM_AT(fault.window_duration),
     Unit::Us, "window_us", false},
    {Block::Fault, "straggler_rate", CCSIM_AT(fault.straggler_rate),
     Unit::Plain, "straggler", false},
    {Block::Fault, "straggler_factor", CCSIM_AT(fault.straggler_factor),
     Unit::Plain, "straggler_factor", false},
    {Block::Fault, "msg_drop_rate", CCSIM_AT(fault.msg_drop_rate),
     Unit::Plain, "drop", false},
    {Block::Fault, "msg_delay_rate", CCSIM_AT(fault.msg_delay_rate),
     Unit::Plain, "delay", false},
    {Block::Fault, "msg_delay_us", CCSIM_AT(fault.msg_delay), Unit::Us,
     "delay_us", false},
    {Block::Fault, "retry_budget", CCSIM_AT(fault.retry_budget),
     Unit::Plain, "retries", false},
    {Block::Fault, "retry_timeout_us", CCSIM_AT(fault.retry_timeout),
     Unit::Us, "timeout_us", false},
    {Block::Fault, "retry_backoff", CCSIM_AT(fault.retry_backoff),
     Unit::Plain, "backoff", false},
    {Block::Fault, "policy", CCSIM_AT(fault.policy), Unit::Plain,
     "policy", false},
    {Block::Fault, "escalation_budget", CCSIM_AT(fault.escalation_budget),
     Unit::Plain, "escalations", false},

    {Block::PerOp, "algorithm",
     CCSIM_AT(algorithms[static_cast<std::size_t>(op)])},
    {Block::PerOp, "entry_us", CCSIM_AT(costsFor(op).entry), Unit::Us},
    {Block::PerOp, "per_stage_us", CCSIM_AT(costsFor(op).per_stage),
     Unit::Us},
    {Block::PerOp, "per_stage_ns_per_byte",
     CCSIM_AT(costsFor(op).per_stage_ns_per_byte)},
    {Block::PerOp, "reduce_bandwidth_override_mbs",
     CCSIM_AT(costsFor(op).reduce_bandwidth_override_mbs), Unit::Plain,
     nullptr, true,
     [](const MachineConfig &c, Coll op) {
         return c.costsFor(op).reduce_bandwidth_override_mbs > 0; }},
    {Block::PerOp, "send_overhead_override_us",
     CCSIM_AT(costsFor(op).send_overhead_override), Unit::Us, nullptr,
     true,
     [](const MachineConfig &c, Coll op) {
         return c.costsFor(op).send_overhead_override >= 0; }},
    {Block::PerOp, "recv_overhead_override_us",
     CCSIM_AT(costsFor(op).recv_overhead_override), Unit::Us, nullptr,
     true,
     [](const MachineConfig &c, Coll op) {
         return c.costsFor(op).recv_overhead_override >= 0; }},
};

#undef CCSIM_AT

/** Read-only view of a row's field (the writers and the memo key). */
FieldRef
fieldOf(const Field &f, const MachineConfig &cfg, Coll op)
{
    return f.at(const_cast<MachineConfig &>(cfg), op);
}

/** Which text grammar a value arrived through (picks error wording). */
enum class Grammar
{
    File,   //!< loadConfig(): `key = value` lines
    Faults, //!< parseFaultSpec(): the `--faults` list
};

[[noreturn]] void
badValue(Grammar g, const char *what, const std::string &key,
         const std::string &value)
{
    if (g == Grammar::Faults)
        configFatal("--faults: bad %s value '%s' for '%s'", what,
                    value.c_str(), key.c_str());
    configFatal("bad %s value '%s' for key '%s'", what, value.c_str(),
                key.c_str());
}

/** std::stod / std::stoll over the whole of @p value. */
template <class T>
T
parseNumber(Grammar g, const std::string &key, const std::string &value)
{
    constexpr bool kReal = std::is_floating_point_v<T>;
    try {
        std::size_t pos = 0;
        T v = 0;
        if constexpr (kReal)
            v = std::stod(value, &pos);
        else
            v = std::stoll(value, &pos); // no detour through double
        if (pos == value.size())
            return v;
    } catch (const std::exception &) {
    }
    badValue(g, kReal ? "numeric" : "integer", key, value);
}

/** Parse @p value into row @p f's field of @p cfg.  @p key is the
 *  spelling the user wrote, for error messages. */
void
setField(const Field &f, MachineConfig &cfg, Coll op,
         const std::string &key, const std::string &value, Grammar g)
{
    std::visit(
        [&](auto *field) {
            using T = std::remove_pointer_t<decltype(field)>;
            if constexpr (std::is_same_v<T, std::string>) {
                // "none" clears an inherited topology spec so a
                // derived config can fall back to the kind-based one.
                *field = (field == &cfg.topo_spec && value == "none")
                             ? ""
                             : value;
            } else if constexpr (std::is_same_v<T, bool>) {
                if (value == "true" || value == "1" || value == "yes")
                    *field = true;
                else if (value == "false" || value == "0" ||
                         value == "no")
                    *field = false;
                else
                    badValue(g, "boolean", key, value);
            } else if constexpr (std::is_same_v<T, double>) {
                *field = parseNumber<double>(g, key, value);
            } else if constexpr (std::is_integral_v<T>) {
                if (f.unit == Unit::Us)
                    *field = static_cast<T>(
                        microseconds(parseNumber<double>(g, key, value)));
                else if (f.unit == Unit::Ns)
                    *field = static_cast<T>(
                        nanoseconds(parseNumber<double>(g, key, value)));
                else
                    *field = static_cast<T>(
                        parseNumber<long long>(g, key, value));
            } else if constexpr (std::is_same_v<T, TopologyKind>) {
                *field = topologyKindByName(value);
            } else if constexpr (std::is_same_v<T, Algo>) {
                Algo a = algoFromName(value);
                // "auto" is a per-call request resolved through a
                // selection table; a machine's configured choice is
                // what Auto falls back TO, so it must be concrete.
                if (a == Algo::Auto)
                    configFatal("'%s' cannot be 'auto': the machine "
                                "default is what auto falls back to",
                                key.c_str());
                *field = a;
            } else {
                static_assert(
                    std::is_same_v<T, fault::RecoveryPolicy>);
                *field = fault::policyFromName(value);
            }
        },
        f.at(cfg, op));
}

/** Write row @p f's value the way setField() reads it back. */
void
writeValue(std::ostream &os, const Field &f, const MachineConfig &cfg,
           Coll op)
{
    std::visit(
        [&](const auto *field) {
            using T = std::remove_cv_t<
                std::remove_pointer_t<decltype(field)>>;
            if constexpr (std::is_same_v<T, bool>)
                os << (*field ? "true" : "false");
            else if constexpr (std::is_integral_v<T>) {
                if (f.unit == Unit::Us)
                    os << toMicros(*field);
                else if (f.unit == Unit::Ns)
                    os << toNanos(*field);
                else
                    os << *field;
            } else if constexpr (std::is_same_v<T, TopologyKind>)
                os << topologyKindName(*field);
            else if constexpr (std::is_same_v<T, Algo>)
                os << algoName(*field);
            else if constexpr (std::is_same_v<T, fault::RecoveryPolicy>)
                os << fault::policyName(*field);
            else
                os << *field; // string, double
        },
        fieldOf(f, cfg, op));
}

/** Key prefix of each Block but PerOp, whose prefix is its op. */
const char *const kScopes[] = {"", "hierarchy.", "fault."};

/** The full key of row @p f for collective @p op ("bcast.entry_us"). */
std::string
fullKey(const Field &f, Coll op)
{
    if (f.block == Block::PerOp)
        return collKey(op) + "." + f.key;
    return kScopes[static_cast<int>(f.block)] + std::string(f.key);
}

} // namespace

std::span<const detail::Field>
detail::configFields()
{
    return kFields;
}

std::string
collKey(Coll op)
{
    for (const auto &[key, c] : collKeys())
        if (c == op)
            return key;
    panic("collKey: bad collective %d", static_cast<int>(op));
}

Algo
algoFromName(const std::string &name)
{
    for (int i = 0; i <= static_cast<int>(Algo::Auto); ++i) {
        Algo a = static_cast<Algo>(i);
        if (algoName(a) == name)
            return a;
    }
    std::string valid;
    for (int i = 0; i <= static_cast<int>(Algo::Auto); ++i) {
        if (!valid.empty())
            valid += ", ";
        valid += algoName(static_cast<Algo>(i));
    }
    configFatal("unknown algorithm '%s' (valid: %s)", name.c_str(),
                valid.c_str());
}

TopologyKind
topologyKindByName(const std::string &name)
{
    static const TopologyKind kinds[] = {
        TopologyKind::Mesh2D,    TopologyKind::Torus3D,
        TopologyKind::Omega,     TopologyKind::Hypercube,
        TopologyKind::FatTree,   TopologyKind::Dragonfly,
        TopologyKind::FullyConnected,
    };
    std::vector<std::string> names;
    for (TopologyKind k : kinds) {
        if (topologyKindName(k) == name)
            return k;
        names.push_back(topologyKindName(k));
    }
    std::string hint = cli::closestMatch(name, names);
    if (!hint.empty())
        configFatal("unknown topology '%s' (did you mean '%s'?)",
                    name.c_str(), hint.c_str());
    configFatal("unknown topology '%s'", name.c_str());
}

MachineConfig
presetByName(const std::string &name)
{
    // Case-insensitive: "paragon" from a shell is as valid as
    // "Paragon" from the paper.
    std::string lower(name);
    for (char &c : lower)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (lower == "sp2")
        return sp2Config();
    if (lower == "t3d")
        return t3dConfig();
    if (lower == "paragon")
        return paragonConfig();
    if (lower == "ideal")
        return idealConfig();
    configFatal("unknown preset '%s' (SP2, T3D, Paragon, Ideal)",
                name.c_str());
}

void
saveConfig(const MachineConfig &cfg, std::ostream &os)
{
    os.precision(12); // lossless round trip for all calibrations
    os << "# ccsim machine configuration\n";
    // A blank line opens every block after the first.  The hierarchy
    // and fault blocks appear only when enabled, so flat pristine
    // configs round-trip byte-identically to their older form.
    const Field *group = nullptr;
    Coll group_op = Coll::Barrier;
    forEachSlot([&](const Field &f, Coll op) {
        if ((f.block == Block::Hierarchy && !cfg.hierarchy.enabled()) ||
            (f.block == Block::Fault && !cfg.fault.enabled()) ||
            (f.written && !f.written(cfg, op)))
            return;
        if (group && (group->block != f.block || group_op != op))
            os << "\n";
        group = &f;
        group_op = op;
        os << fullKey(f, op) << " = ";
        writeValue(os, f, cfg, op);
        os << "\n";
    });
}

void
saveConfigFile(const MachineConfig &cfg, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        configFatal("cannot write '%s'", path.c_str());
    saveConfig(cfg, out);
}

MachineConfig
loadConfig(std::istream &is)
{
    MachineConfig cfg = idealConfig();
    cfg.name = "custom";

    std::string line;
    int lineno = 0;
    bool first_setting = true;
    while (std::getline(is, line)) {
        ++lineno;
        std::string s = line;
        auto hash = s.find('#');
        if (hash != std::string::npos)
            s = s.substr(0, hash);
        s = trim(s);
        if (s.empty())
            continue;

        auto eq = s.find('=');
        if (eq == std::string::npos)
            configFatal("config line %d: expected 'key = value', got '%s'",
                  lineno, line.c_str());
        std::string key = trim(s.substr(0, eq));
        std::string value = trim(s.substr(eq + 1));
        if (key.empty() || value.empty())
            configFatal("config line %d: empty key or value", lineno);

        if (key == "base") {
            if (!first_setting)
                configFatal("config line %d: 'base' must be the first "
                      "setting", lineno);
            std::string name = cfg.name;
            cfg = presetByName(value);
            cfg.name = name;
            first_setting = false;
            continue;
        }
        first_setting = false;

        Block block = Block::Machine;
        Coll op = Coll::Barrier;
        auto dot = key.find('.');
        if (dot != std::string::npos) {
            std::string scope = key.substr(0, dot);
            if (scope == "hierarchy") {
                block = Block::Hierarchy;
            } else if (scope == "fault") {
                block = Block::Fault;
            } else {
                auto it = collKeys().find(scope);
                if (it == collKeys().end())
                    configFatal("config line %d: unknown collective "
                                "'%s'", lineno, scope.c_str());
                block = Block::PerOp;
                op = it->second;
            }
        }
        const Field *f = nullptr;
        for (const Field &row : kFields)
            if (row.block == block && fullKey(row, op) == key)
                f = &row;
        if (!f) {
            static const char *const kWhat[] = {
                "key", "hierarchy field", "fault field",
                "collective field"};
            configFatal("unknown %s '%s'",
                        kWhat[static_cast<int>(block)], key.c_str());
        }
        setField(*f, cfg, op, key, value, Grammar::File);
    }
    cfg.validate();
    return cfg;
}

MachineConfig
loadConfigFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        configFatal("cannot read '%s'", path.c_str());
    return loadConfig(in);
}

void
appendConfigKey(const MachineConfig &cfg, std::string &key)
{
    forEachSlot([&](const Field &f, Coll op) {
        if (!f.in_memo_key)
            return;
        std::visit(
            [&](const auto *field) {
                using T = std::remove_cv_t<
                    std::remove_pointer_t<decltype(field)>>;
                // Raw stored values: picosecond integers, ordinals,
                // and shortest round-trip doubles, so distinct values
                // never share a spelling.
                char buf[32];
                char *end = buf;
                if constexpr (std::is_same_v<T, std::string>)
                    key += *field;
                else if constexpr (std::is_arithmetic_v<T> &&
                                   !std::is_same_v<T, bool>)
                    end = std::to_chars(buf, buf + 32, *field).ptr;
                else // bool and enums: their ordinal
                    end = std::to_chars(buf, buf + 32,
                                        static_cast<int>(*field)).ptr;
                key.append(buf, end);
            },
            fieldOf(f, cfg, op));
        key += '|';
    });
}

namespace {

/**
 * The shared-config registry behind sharedPreset()/sharedConfigFile():
 * parse + validate once per distinct source, hand out immutable
 * handles forever after.  Config descriptions are a few hundred
 * bytes and the set of distinct sources a process touches is tiny,
 * so entries are never evicted.
 */
struct ConfigRegistry
{
    std::mutex mu;
    std::map<std::string, ConfigHandle> by_key;
};

ConfigRegistry &
configRegistry()
{
    static ConfigRegistry r;
    return r;
}

ConfigHandle
cachedConfig(const std::string &key,
             MachineConfig (*load)(const std::string &),
             const std::string &arg)
{
    ConfigRegistry &r = configRegistry();
    {
        std::lock_guard<std::mutex> lock(r.mu);
        auto it = r.by_key.find(key);
        if (it != r.by_key.end())
            return it->second;
    }
    // Parse outside the lock (file I/O, and load may raise
    // ConfigError); a racing duplicate parse is harmless — last one
    // in wins and both results are identical.
    ConfigHandle handle =
        std::make_shared<const MachineConfig>(load(arg));
    handle->validate();
    std::lock_guard<std::mutex> lock(r.mu);
    return r.by_key.emplace(key, std::move(handle)).first->second;
}

} // namespace

ConfigHandle
sharedPreset(const std::string &name)
{
    std::string lower(name);
    for (char &c : lower)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return cachedConfig("preset:" + lower, presetByName, name);
}

ConfigHandle
sharedConfigFile(const std::string &path)
{
    return cachedConfig("file:" + path, loadConfigFile, path);
}

} // namespace ccsim::machine

namespace ccsim::fault {

FaultSpec
parseFaultSpec(const std::string &text)
{
    using machine::Grammar;
    machine::MachineConfig cfg; // only its fault block is read back
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        std::string item = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            machine::configFatal("--faults: expected key=value, got "
                                 "'%s'", item.c_str());
        std::string key = item.substr(0, eq);
        std::string value = item.substr(eq + 1);

        const machine::Field *row = nullptr;
        std::vector<std::string> aliases;
        for (const machine::Field &f : machine::kFields) {
            if (!f.alias)
                continue;
            aliases.push_back(f.alias);
            if (key == f.alias)
                row = &f;
        }
        if (!row) {
            std::string keys;
            for (const std::string &k : aliases)
                keys += (keys.empty() ? "" : ", ") + k;
            std::string hint = cli::closestMatch(key, aliases);
            if (!hint.empty())
                hint = "did you mean '" + hint + "'? ";
            machine::configFatal("--faults: unknown key '%s' (%svalid "
                                 "keys: %s)",
                                 key.c_str(), hint.c_str(), keys.c_str());
        }
        machine::setField(*row, cfg, machine::Coll::Barrier, key, value,
                          Grammar::Faults);
    }
    cfg.fault.validate();
    return cfg.fault;
}

} // namespace ccsim::fault
