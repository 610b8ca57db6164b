/**
 * @file
 * The MachineConfig field table (config_io.cc), for src/machine and
 * its tests.  Every persisted field is one row; loadConfig(),
 * saveConfig(), fault::parseFaultSpec() and appendConfigKey() are
 * loops over the rows, so a new field is one new row.
 */

#ifndef CCSIM_MACHINE_CONFIG_FIELDS_HH
#define CCSIM_MACHINE_CONFIG_FIELDS_HH

#include <cstdint>
#include <span>
#include <string>
#include <variant>

#include "machine/machine_config.hh"

namespace ccsim::machine::detail {

/** Which part of a config file a row lives in (its key prefix). */
enum class Block
{
    Machine,   //!< top-level keys
    Hierarchy, //!< hierarchy.<key>, written only when enabled
    Fault,     //!< fault.<key>, written only when enabled
    PerOp,     //!< <op>.<key>, one copy per collective
};

/** How a Time field is spelled in text (other kinds ignore it). */
enum class Unit
{
    Plain, //!< not a Time
    Us,    //!< microseconds
    Ns,    //!< nanoseconds
};

/** Typed pointer to one field of a MachineConfig. */
using FieldRef =
    std::variant<std::string *, bool *, int *, std::int64_t *,
                 std::uint64_t *, double *, TopologyKind *, Algo *,
                 fault::RecoveryPolicy *>;

/** One row: a MachineConfig field and every spelling of it. */
struct Field
{
    Block block;
    const char *key; //!< config key within its block
    /** The field itself; @p op selects the copy of a PerOp row. */
    FieldRef (*at)(MachineConfig &, Coll op);
    Unit unit = Unit::Plain;
    const char *alias = nullptr; //!< `--faults` spelling, if any
    bool in_memo_key = true;     //!< part of measurePointKey
    /** saveConfig() writes the row only when this holds (nullptr:
     *  always, once its block is written). */
    bool (*written)(const MachineConfig &, Coll op) = nullptr;
};

/** The table, in config-file order. */
std::span<const Field> configFields();

/**
 * Call @p fn(row, op) for every (row, collective) slot in file order:
 * the machine, hierarchy and fault rows once, then every PerOp row
 * for each collective in turn.
 */
template <class Fn>
void
forEachSlot(Fn &&fn)
{
    for (const Field &f : configFields())
        if (f.block != Block::PerOp)
            fn(f, Coll::Barrier);
    for (Coll op : kAllColls)
        for (const Field &f : configFields())
            if (f.block == Block::PerOp)
                fn(f, op);
}

} // namespace ccsim::machine::detail

#endif // CCSIM_MACHINE_CONFIG_FIELDS_HH
