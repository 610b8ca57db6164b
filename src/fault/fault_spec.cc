#include "fault/fault_spec.hh"

#include "util/cli.hh"
#include "util/logging.hh"

namespace ccsim::fault {

const char *
policyName(RecoveryPolicy p)
{
    switch (p) {
      case RecoveryPolicy::FailFast:
        return "fail_fast";
      case RecoveryPolicy::RetryEscalate:
        return "retry_escalate";
      case RecoveryPolicy::Degrade:
        return "degrade";
    }
    return "?";
}

RecoveryPolicy
policyFromName(const std::string &name)
{
    if (name == "fail_fast")
        return RecoveryPolicy::FailFast;
    if (name == "retry_escalate")
        return RecoveryPolicy::RetryEscalate;
    if (name == "degrade")
        return RecoveryPolicy::Degrade;
    std::string hint = cli::closestMatch(
        name, {"fail_fast", "retry_escalate", "degrade"});
    if (!hint.empty())
        hint = "did you mean '" + hint + "'? ";
    raiseError(ConfigError(strFormat(
        "unknown policy '%s' (%svalid: fail_fast, retry_escalate, "
        "degrade)", name.c_str(), hint.c_str())));
}

bool
FaultSpec::enabled() const
{
    return link_degrade_rate > 0 || link_blackhole_rate > 0 ||
           straggler_rate > 0 || msg_drop_rate > 0 ||
           msg_delay_rate > 0;
}

bool
FaultSpec::lossPossible() const
{
    return msg_drop_rate > 0 || link_blackhole_rate > 0;
}

void
FaultSpec::validate() const
{
    auto rate = [](const char *what, double r) {
        if (r < 0 || r > 1)
            fatal("FaultSpec: %s rate %g outside [0, 1]", what, r);
    };
    rate("link degrade", link_degrade_rate);
    rate("link blackhole", link_blackhole_rate);
    rate("straggler", straggler_rate);
    rate("message drop", msg_drop_rate);
    rate("message delay", msg_delay_rate);

    if (link_degrade_factor <= 0 || link_degrade_factor > 1)
        fatal("FaultSpec: degrade factor %g outside (0, 1]",
              link_degrade_factor);
    if (straggler_factor < 1)
        fatal("FaultSpec: straggler factor %g < 1", straggler_factor);
    if (window_start < 0)
        fatal("FaultSpec: negative window start");
    if (msg_delay < 0)
        fatal("FaultSpec: negative message delay");
    if (msg_drop_rate >= 1)
        fatal("FaultSpec: message drop rate must be < 1 (1.0 can "
              "never deliver; use a blackhole instead)");
    if (retry_budget < 0)
        fatal("FaultSpec: negative retry budget");
    if (lossPossible() && retry_timeout <= 0)
        fatal("FaultSpec: retry timeout must be positive when loss "
              "is possible");
    if (retry_backoff < 1)
        fatal("FaultSpec: retry backoff %g < 1", retry_backoff);
    if (escalation_budget < 0)
        fatal("FaultSpec: negative escalation budget");
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    // One splitmix64 step over the xor — cheap, and any bit of either
    // input flips roughly half the output bits.
    std::uint64_t z = (seed ^ salt) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace ccsim::fault
