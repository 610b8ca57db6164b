/**
 * @file
 * MachineConfig serialization: a simple `key = value` text format so
 * downstream users can define their own machines (or perturb the
 * calibrated presets) without recompiling.
 *
 * Format: one `key = value` per line; `#` starts a comment; a
 * `base = SP2|T3D|Paragon|Ideal` line (first, optional) starts from
 * a preset instead of the ideal defaults.  Per-collective keys are
 * scoped as `<op>.<field>`, e.g.
 *
 * @verbatim
 *     name = MyCluster
 *     base = SP2
 *     link_bandwidth_mbs = 100
 *     topology_spec = fattree:2;4,4;1,2
 *     hierarchy.chips = 2
 *     hierarchy.chip_bandwidth_mbs = 4000
 *     bcast.algorithm = scatter-allgather
 *     bcast.per_stage_us = 12
 * @endverbatim
 *
 * `topology_spec` (the net::makeTopology grammar, docs/TOPOLOGY.md)
 * overrides the preset's topology kind; `hierarchy.*` keys set the
 * multi-core node shape and the per-class link parameters.
 *
 * saveConfig() emits a complete round-trippable file; loadConfig()
 * is strict — unknown keys, malformed values, or out-of-range
 * settings raise ConfigError.
 */

#ifndef CCSIM_MACHINE_CONFIG_IO_HH
#define CCSIM_MACHINE_CONFIG_IO_HH

#include <iosfwd>
#include <string>

#include "machine/machine_config.hh"
#include "util/error.hh"

namespace ccsim::machine {

/**
 * A bad machine configuration: unknown preset/key/algorithm, a
 * malformed value, or an unreadable config file.  Now defined at the
 * util layer (util/error.hh) so the net topology factory raises the
 * same type; this alias keeps every existing machine::ConfigError
 * throw/catch site compiling unchanged.
 */
using ConfigError = ccsim::ConfigError;

/** Write @p cfg as a complete key = value document. */
void saveConfig(const MachineConfig &cfg, std::ostream &os);

/** saveConfig() to a file (ConfigError on I/O failure). */
void saveConfigFile(const MachineConfig &cfg, const std::string &path);

/** Parse a config document (see file comment for the format). */
MachineConfig loadConfig(std::istream &is);

/** loadConfig() from a file (ConfigError if unreadable). */
MachineConfig loadConfigFile(const std::string &path);

/** Preset lookup by name ("SP2", "T3D", "Paragon", "Ideal");
 *  case-insensitive, so CLI spellings like "paragon" work. */
MachineConfig presetByName(const std::string &name);

/**
 * Shared-handle preset lookup: the preset is built and validated
 * once per process and the immutable description handed out to every
 * caller, so concurrent sessions (the `ccsim serve` daemon's
 * connections, sweep workers) instantiate Machines from it without
 * copying or re-parsing.  Thread-safe; ConfigError on unknown names.
 */
ConfigHandle sharedPreset(const std::string &name);

/** Shared-handle analogue of loadConfigFile(): parsed and validated
 *  once per distinct path, then cached for the process lifetime
 *  (edits to the file after the first load are not observed).
 *  Thread-safe; ConfigError if unreadable or malformed. */
ConfigHandle sharedConfigFile(const std::string &path);

/** Key-name slug of a collective ("alltoall", "reduce_scatter"...). */
std::string collKey(Coll op);

/**
 * Inverse of algoName(): the one algorithm-name parser the CLI, the
 * machine-config loader, and the selection-table loader all share.
 * Accepts every algoName() spelling including "auto" and "default";
 * unknown names raise ConfigError listing the valid spellings (not a
 * generic parse error), so `--algo binomal` and a typo in a config
 * file fail identically and catchably.
 */
Algo algoFromName(const std::string &name);

/** Inverse of topologyKindName(); ConfigError on unknown names. */
TopologyKind topologyKindByName(const std::string &name);

} // namespace ccsim::machine

#endif // CCSIM_MACHINE_CONFIG_IO_HH
