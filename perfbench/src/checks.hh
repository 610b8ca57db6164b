/**
 * @file
 * Correctness gates of the benchmark: digests of simulated times
 * checked against pinned values, serve replies checked against a
 * fresh simulation, and the pinned reference files they read.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/measure.hh"

namespace perfbench {

/** FNV-1a over the (max, min, mean) picosecond triple of every
 *  measurement, in order. */
std::uint64_t timesDigest(const std::vector<ccsim::harness::Measurement> &ms);

/** Sixteen lower-case hex digits. */
std::string hexDigest(std::uint64_t d);

/** Pinned reference values: one "key value" pair per line, '#'
 *  starts a comment. */
class Pins
{
  public:
    /** Load @p path; std::runtime_error when it cannot be read. */
    static Pins load(const std::string &path);

    /** The pinned value of @p key, or "" when absent. */
    std::string get(const std::string &key) const;

    void set(const std::string &key, const std::string &value);

  private:
    std::map<std::string, std::string> values_;
};

/** True when @p got equals the digest pinned under @p key; otherwise
 *  false with the reason in @p why.  A missing pin fails too. */
bool digestMatches(const Pins &pins, const std::string &key,
                   std::uint64_t got, std::string &why);

/** The fields of one `ccsim serve` response line the checks read. */
struct ServeReply
{
    bool ok = false;     //!< "status":"ok"
    std::string tier;    //!< cache | fast | exact
    bool approx = false;
    bool shed = false;
    double time_us = 0.0;
    std::int64_t max_ps = 0;
    std::int64_t min_ps = 0;
    std::int64_t mean_ps = 0;
};

ServeReply parseReply(const std::string &line);

/** True when @p r is an exact or cache answer whose picosecond triple
 *  equals @p fresh's, the contract of serve's cache and exact tiers. */
bool replyMatches(const ServeReply &r,
                  const ccsim::harness::Measurement &fresh);

/** Whole file as a string; std::runtime_error when unreadable. */
std::string readFile(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
