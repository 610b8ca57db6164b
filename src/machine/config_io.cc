#include "machine/config_io.hh"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

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

} // namespace

namespace {

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

double
parseDouble(const std::string &key, const std::string &value)
{
    try {
        std::size_t pos = 0;
        double d = std::stod(value, &pos);
        if (pos != value.size())
            throw std::invalid_argument("trailing");
        return d;
    } catch (const std::exception &) {
        configFatal("bad numeric value '%s' for key '%s'",
              value.c_str(), key.c_str());
    }
}

long long
parseInt(const std::string &key, const std::string &value)
{
    try {
        std::size_t pos = 0;
        long long v = std::stoll(value, &pos);
        if (pos != value.size())
            throw std::invalid_argument("trailing");
        return v;
    } catch (const std::exception &) {
        configFatal("bad integer value '%s' for key '%s'",
              value.c_str(), key.c_str());
    }
}

bool
parseBool(const std::string &key, const std::string &value)
{
    if (value == "true" || value == "1" || value == "yes")
        return true;
    if (value == "false" || value == "0" || value == "no")
        return false;
    configFatal("bad boolean value '%s' for key '%s'", value.c_str(),
          key.c_str());
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

/** Apply one top-level setting; fatal on unknown keys. */
void
applyGlobal(MachineConfig &cfg, const std::string &key,
            const std::string &value)
{
    if (key == "name")
        cfg.name = value;
    else if (key == "topology")
        cfg.topology = topologyKindByName(value);
    else if (key == "topology_spec")
        // Full net::makeTopology grammar; "none" clears an inherited
        // spec so a derived config can fall back to the kind above.
        cfg.topo_spec = (value == "none") ? "" : value;
    else if (key == "switch_radix")
        cfg.switch_radix = static_cast<int>(parseInt(key, value));
    else if (key == "link_bandwidth_mbs")
        cfg.network.link_bandwidth_mbs = parseDouble(key, value);
    else if (key == "hop_latency_ns")
        cfg.network.hop_latency = nanoseconds(parseDouble(key, value));
    else if (key == "packet_overhead")
        cfg.network.packet_overhead = parseInt(key, value);
    else if (key == "contention")
        cfg.network.contention = parseBool(key, value);
    else if (key == "send_overhead_us")
        cfg.transport.send_overhead =
            microseconds(parseDouble(key, value));
    else if (key == "recv_overhead_us")
        cfg.transport.recv_overhead =
            microseconds(parseDouble(key, value));
    else if (key == "copy_bandwidth_mbs")
        cfg.transport.copy_bandwidth_mbs = parseDouble(key, value);
    else if (key == "eager_threshold")
        cfg.transport.eager_threshold = parseInt(key, value);
    else if (key == "rendezvous_overhead_us")
        cfg.transport.rendezvous_overhead =
            microseconds(parseDouble(key, value));
    else if (key == "coprocessor_overlap")
        cfg.transport.coprocessor_overlap = parseDouble(key, value);
    else if (key == "blt_enabled")
        cfg.transport.blt_enabled = parseBool(key, value);
    else if (key == "blt_threshold")
        cfg.transport.blt_threshold = parseInt(key, value);
    else if (key == "blt_setup_us")
        cfg.transport.blt_setup = microseconds(parseDouble(key, value));
    else if (key == "reduce_bandwidth_mbs")
        cfg.reduce_bandwidth_mbs = parseDouble(key, value);
    else if (key == "hardware_barrier")
        cfg.hardware_barrier = parseBool(key, value);
    else if (key == "hardware_barrier_latency_us")
        cfg.hardware_barrier_latency =
            microseconds(parseDouble(key, value));
    else
        configFatal("unknown key '%s'", key.c_str());
}

/** Apply one <op>.<field> setting. */
void
applyCollective(MachineConfig &cfg, Coll op, const std::string &field,
                const std::string &key, const std::string &value)
{
    CollCosts &costs = cfg.costsFor(op);
    if (field == "algorithm") {
        Algo a = algoFromName(value);
        // "auto" is a per-call request resolved through a selection
        // table; a machine's configured choice is what Auto falls
        // back TO, so it must be concrete.
        if (a == Algo::Auto)
            configFatal("'%s' cannot be 'auto': the machine default "
                        "is what auto falls back to", key.c_str());
        cfg.setAlgorithm(op, a);
    }
    else if (field == "entry_us")
        costs.entry = microseconds(parseDouble(key, value));
    else if (field == "per_stage_us")
        costs.per_stage = microseconds(parseDouble(key, value));
    else if (field == "per_stage_ns_per_byte")
        costs.per_stage_ns_per_byte = parseDouble(key, value);
    else if (field == "reduce_bandwidth_override_mbs")
        costs.reduce_bandwidth_override_mbs = parseDouble(key, value);
    else if (field == "send_overhead_override_us")
        costs.send_overhead_override =
            microseconds(parseDouble(key, value));
    else if (field == "recv_overhead_override_us")
        costs.recv_overhead_override =
            microseconds(parseDouble(key, value));
    else
        configFatal("unknown collective field '%s'", key.c_str());
}

/** Apply one fault.<field> setting. */
void
applyFault(MachineConfig &cfg, const std::string &field,
           const std::string &key, const std::string &value)
{
    fault::FaultSpec &f = cfg.fault;
    if (field == "seed")
        f.seed = static_cast<std::uint64_t>(parseInt(key, value));
    else if (field == "link_degrade_rate")
        f.link_degrade_rate = parseDouble(key, value);
    else if (field == "link_degrade_factor")
        f.link_degrade_factor = parseDouble(key, value);
    else if (field == "link_blackhole_rate")
        f.link_blackhole_rate = parseDouble(key, value);
    else if (field == "window_start_us")
        f.window_start = microseconds(parseDouble(key, value));
    else if (field == "window_duration_us")
        f.window_duration = microseconds(parseDouble(key, value));
    else if (field == "straggler_rate")
        f.straggler_rate = parseDouble(key, value);
    else if (field == "straggler_factor")
        f.straggler_factor = parseDouble(key, value);
    else if (field == "msg_drop_rate")
        f.msg_drop_rate = parseDouble(key, value);
    else if (field == "msg_delay_rate")
        f.msg_delay_rate = parseDouble(key, value);
    else if (field == "msg_delay_us")
        f.msg_delay = microseconds(parseDouble(key, value));
    else if (field == "retry_budget")
        f.retry_budget = static_cast<int>(parseInt(key, value));
    else if (field == "retry_timeout_us")
        f.retry_timeout = microseconds(parseDouble(key, value));
    else if (field == "retry_backoff")
        f.retry_backoff = parseDouble(key, value);
    else
        configFatal("unknown fault field '%s'", key.c_str());
}

/** Apply one hierarchy.<field> setting (multi-core node model). */
void
applyHierarchy(MachineConfig &cfg, const std::string &field,
               const std::string &key, const std::string &value)
{
    HierarchySpec &h = cfg.hierarchy;
    if (field == "chips")
        h.chips = static_cast<int>(parseInt(key, value));
    else if (field == "cores")
        h.cores = static_cast<int>(parseInt(key, value));
    else if (field == "chip_bandwidth_mbs")
        h.chip.link_bandwidth_mbs = parseDouble(key, value);
    else if (field == "chip_latency_ns")
        h.chip.hop_latency = nanoseconds(parseDouble(key, value));
    else if (field == "node_bandwidth_mbs")
        h.node.link_bandwidth_mbs = parseDouble(key, value);
    else if (field == "node_latency_ns")
        h.node.hop_latency = nanoseconds(parseDouble(key, value));
    else
        configFatal("unknown hierarchy field '%s'", key.c_str());
}

} // namespace

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
    os << "name = " << cfg.name << "\n";
    os << "topology = " << topologyKindName(cfg.topology) << "\n";
    if (!cfg.topo_spec.empty())
        os << "topology_spec = " << cfg.topo_spec << "\n";
    os << "switch_radix = " << cfg.switch_radix << "\n";
    os << "link_bandwidth_mbs = " << cfg.network.link_bandwidth_mbs
       << "\n";
    os << "hop_latency_ns = " << toNanos(cfg.network.hop_latency)
       << "\n";
    os << "packet_overhead = " << cfg.network.packet_overhead << "\n";
    os << "contention = " << (cfg.network.contention ? "true" : "false")
       << "\n";
    os << "send_overhead_us = " << toMicros(cfg.transport.send_overhead)
       << "\n";
    os << "recv_overhead_us = " << toMicros(cfg.transport.recv_overhead)
       << "\n";
    os << "copy_bandwidth_mbs = " << cfg.transport.copy_bandwidth_mbs
       << "\n";
    os << "eager_threshold = " << cfg.transport.eager_threshold << "\n";
    os << "rendezvous_overhead_us = "
       << toMicros(cfg.transport.rendezvous_overhead) << "\n";
    os << "coprocessor_overlap = " << cfg.transport.coprocessor_overlap
       << "\n";
    os << "blt_enabled = "
       << (cfg.transport.blt_enabled ? "true" : "false") << "\n";
    os << "blt_threshold = " << cfg.transport.blt_threshold << "\n";
    os << "blt_setup_us = " << toMicros(cfg.transport.blt_setup)
       << "\n";
    os << "reduce_bandwidth_mbs = " << cfg.reduce_bandwidth_mbs << "\n";
    os << "hardware_barrier = "
       << (cfg.hardware_barrier ? "true" : "false") << "\n";
    os << "hardware_barrier_latency_us = "
       << toMicros(cfg.hardware_barrier_latency) << "\n";

    // Hierarchy block only when enabled, so flat configs round-trip
    // byte-identically to their pre-hierarchy form.
    if (cfg.hierarchy.enabled()) {
        const HierarchySpec &h = cfg.hierarchy;
        os << "\nhierarchy.chips = " << h.chips << "\n";
        os << "hierarchy.cores = " << h.cores << "\n";
        os << "hierarchy.chip_bandwidth_mbs = "
           << h.chip.link_bandwidth_mbs << "\n";
        os << "hierarchy.chip_latency_ns = "
           << toNanos(h.chip.hop_latency) << "\n";
        os << "hierarchy.node_bandwidth_mbs = "
           << h.node.link_bandwidth_mbs << "\n";
        os << "hierarchy.node_latency_ns = "
           << toNanos(h.node.hop_latency) << "\n";
    }

    // Fault block only when active, so pristine configs round-trip
    // byte-identically to their pre-fault-layer form.
    if (cfg.fault.enabled()) {
        const fault::FaultSpec &f = cfg.fault;
        os << "\nfault.seed = " << f.seed << "\n";
        os << "fault.link_degrade_rate = " << f.link_degrade_rate
           << "\n";
        os << "fault.link_degrade_factor = " << f.link_degrade_factor
           << "\n";
        os << "fault.link_blackhole_rate = " << f.link_blackhole_rate
           << "\n";
        os << "fault.window_start_us = " << toMicros(f.window_start)
           << "\n";
        os << "fault.window_duration_us = "
           << toMicros(f.window_duration) << "\n";
        os << "fault.straggler_rate = " << f.straggler_rate << "\n";
        os << "fault.straggler_factor = " << f.straggler_factor
           << "\n";
        os << "fault.msg_drop_rate = " << f.msg_drop_rate << "\n";
        os << "fault.msg_delay_rate = " << f.msg_delay_rate << "\n";
        os << "fault.msg_delay_us = " << toMicros(f.msg_delay) << "\n";
        os << "fault.retry_budget = " << f.retry_budget << "\n";
        os << "fault.retry_timeout_us = " << toMicros(f.retry_timeout)
           << "\n";
        os << "fault.retry_backoff = " << f.retry_backoff << "\n";
    }

    for (Coll op : kAllColls) {
        const CollCosts &c = cfg.costsFor(op);
        std::string k = collKey(op);
        os << "\n" << k << ".algorithm = "
           << algoName(cfg.algorithmFor(op)) << "\n";
        os << k << ".entry_us = " << toMicros(c.entry) << "\n";
        os << k << ".per_stage_us = " << toMicros(c.per_stage) << "\n";
        os << k << ".per_stage_ns_per_byte = "
           << c.per_stage_ns_per_byte << "\n";
        if (c.reduce_bandwidth_override_mbs > 0)
            os << k << ".reduce_bandwidth_override_mbs = "
               << c.reduce_bandwidth_override_mbs << "\n";
        if (c.send_overhead_override >= 0)
            os << k << ".send_overhead_override_us = "
               << toMicros(c.send_overhead_override) << "\n";
        if (c.recv_overhead_override >= 0)
            os << k << ".recv_overhead_override_us = "
               << toMicros(c.recv_overhead_override) << "\n";
    }
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

        auto dot = key.find('.');
        if (dot == std::string::npos) {
            applyGlobal(cfg, key, value);
        } else {
            std::string op_key = key.substr(0, dot);
            std::string field = key.substr(dot + 1);
            if (op_key == "fault") {
                applyFault(cfg, field, key, value);
                continue;
            }
            if (op_key == "hierarchy") {
                applyHierarchy(cfg, field, key, value);
                continue;
            }
            auto it = collKeys().find(op_key);
            if (it == collKeys().end())
                configFatal("config line %d: unknown collective '%s'",
                      lineno, op_key.c_str());
            applyCollective(cfg, it->second, field, key, value);
        }
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
