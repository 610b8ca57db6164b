#include "checks.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::uint64_t
timesDigest(const std::vector<ccsim::harness::Measurement> &ms)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::int64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    for (const auto &m : ms) {
        mix(m.max_time);
        mix(m.min_time);
        mix(m.mean_time);
    }
    return h;
}

std::string
hexDigest(std::uint64_t d)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(d));
    return buf;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

Pins
Pins::load(const std::string &path)
{
    std::istringstream in(readFile(path));
    Pins pins;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key, value;
        if (ls >> key >> value)
            pins.values_[key] = value;
    }
    return pins;
}

std::string
Pins::get(const std::string &key) const
{
    auto it = values_.find(key);
    return it == values_.end() ? std::string() : it->second;
}

void
Pins::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

bool
digestMatches(const Pins &pins, const std::string &key, std::uint64_t got,
              std::string &why)
{
    const std::string want = pins.get(key);
    if (want == hexDigest(got))
        return true;
    why = key + ": digest " + hexDigest(got) + ", pinned " +
          (want.empty() ? std::string("(none)") : want);
    return false;
}

namespace {

/** Raw token after "key": up to the next ',' or '}' (quotes kept). */
std::string
field(const std::string &line, const std::string &key)
{
    const std::string tag = "\"" + key + "\":";
    auto pos = line.find(tag);
    if (pos == std::string::npos)
        return {};
    pos += tag.size();
    auto end = line.find_first_of(",}", pos);
    return line.substr(pos, end == std::string::npos ? std::string::npos
                                                      : end - pos);
}

std::string
unquote(const std::string &s)
{
    if (s.size() >= 2 && s.front() == '"' && s.back() == '"')
        return s.substr(1, s.size() - 2);
    return s;
}

} // namespace

ServeReply
parseReply(const std::string &line)
{
    ServeReply r;
    r.ok = unquote(field(line, "status")) == "ok";
    r.tier = unquote(field(line, "tier"));
    r.approx = field(line, "approx") == "true";
    r.shed = field(line, "shed") == "true";
    r.time_us = std::strtod(field(line, "time_us").c_str(), nullptr);
    r.max_ps = std::strtoll(field(line, "max_ps").c_str(), nullptr, 10);
    r.min_ps = std::strtoll(field(line, "min_ps").c_str(), nullptr, 10);
    r.mean_ps = std::strtoll(field(line, "mean_ps").c_str(), nullptr, 10);
    return r;
}

bool
replyMatches(const ServeReply &r, const ccsim::harness::Measurement &fresh)
{
    return r.ok && !r.approx && (r.tier == "cache" || r.tier == "exact") &&
           r.max_ps == fresh.max_time && r.min_ps == fresh.min_time &&
           r.mean_ps == fresh.mean_time;
}

} // namespace perfbench
