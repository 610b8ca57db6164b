#include "mpi/coll_ctx.hh"

#include <cstring>

#include "util/logging.hh"

namespace ccsim::mpi {

void
finishColl(machine::Machine &mach, int grank, stats::CollOpMetrics &om,
           Time t0)
{
    Time now = mach.sim().now();
    om.calls.add();
    om.time_us.add(toMicros(now - t0));
    if (grank == 0 && mach.trace().enabled()) {
        net::Network &net = mach.network();
        mach.trace().recordCounter(
            now, "net.payload_bytes",
            static_cast<double>(net.totalBytes()));
        if (const auto *lc = net.counters())
            mach.trace().recordCounter(now, "net.stall_us",
                                       toMicros(lc->total_stall));
    }
}

int
ceilLog2(int p)
{
    if (p < 1)
        panic("ceilLog2: non-positive argument %d", p);
    int e = 0;
    while ((1 << e) < p)
        ++e;
    return e;
}

int
floorLog2(int p)
{
    if (p < 1)
        panic("floorLog2: non-positive argument %d", p);
    int e = 0;
    while ((1 << (e + 1)) <= p)
        ++e;
    return e;
}

bool
isPow2(int p)
{
    return p > 0 && (p & (p - 1)) == 0;
}

msg::PayloadPtr
slicePayload(const msg::PayloadPtr &p, Bytes offset, Bytes len)
{
    if (!p)
        return nullptr;
    if (offset < 0 || len < 0 ||
        static_cast<size_t>(offset + len) > p->size())
        panic("slicePayload: [%lld, %lld) outside payload of %zu",
              static_cast<long long>(offset),
              static_cast<long long>(offset + len), p->size());
    auto out = std::make_shared<std::vector<std::byte>>(
        static_cast<size_t>(len));
    if (len > 0)
        std::memcpy(out->data(), p->data() + offset,
                    static_cast<size_t>(len));
    return out;
}

msg::PayloadPtr
concatPayload(const msg::PayloadPtr &a, const msg::PayloadPtr &b)
{
    if (!a && !b)
        return nullptr;
    auto out = std::make_shared<std::vector<std::byte>>();
    if (a)
        out->insert(out->end(), a->begin(), a->end());
    if (b)
        out->insert(out->end(), b->begin(), b->end());
    return out;
}

msg::PayloadPtr
concatPayloads(const std::vector<msg::PayloadPtr> &parts)
{
    bool any = false;
    for (const auto &p : parts)
        any = any || (p != nullptr);
    if (!any)
        return nullptr;
    auto out = std::make_shared<std::vector<std::byte>>();
    for (const auto &p : parts)
        if (p)
            out->insert(out->end(), p->begin(), p->end());
    return out;
}

msg::PayloadPtr
rotateBlocksToAbsolute(const msg::PayloadPtr &rel, int p, Bytes m,
                       int root)
{
    if (!rel)
        return nullptr;
    if (root == 0)
        return rel;
    if (rel->size() != static_cast<size_t>(p * m))
        panic("rotateBlocksToAbsolute: payload %zu != %d blocks of %lld",
              rel->size(), p, static_cast<long long>(m));
    auto out = std::make_shared<std::vector<std::byte>>(rel->size());
    for (int i = 0; i < p; ++i) {
        int j = (i - root % p + p) % p;
        std::memcpy(out->data() + static_cast<size_t>(i) * m,
                    rel->data() + static_cast<size_t>(j) * m,
                    static_cast<size_t>(m));
    }
    return out;
}

msg::PayloadPtr
rotateBlocksToRelative(const msg::PayloadPtr &abs, int p, Bytes m,
                       int root)
{
    if (!abs)
        return nullptr;
    if (root == 0)
        return abs;
    if (abs->size() != static_cast<size_t>(p * m))
        panic("rotateBlocksToRelative: payload %zu != %d blocks of %lld",
              abs->size(), p, static_cast<long long>(m));
    auto out = std::make_shared<std::vector<std::byte>>(abs->size());
    for (int j = 0; j < p; ++j) {
        int i = (root + j) % p;
        std::memcpy(out->data() + static_cast<size_t>(j) * m,
                    abs->data() + static_cast<size_t>(i) * m,
                    static_cast<size_t>(m));
    }
    return out;
}

} // namespace ccsim::mpi
