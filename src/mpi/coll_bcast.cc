/**
 * @file
 * Broadcast algorithms: linear fan-out, binomial tree (MPICH / CRI
 * default of the era), and van de Geijn scatter+allgather for long
 * messages.
 */

#include <algorithm>

#include "mpi/collectives.hh"
#include "util/logging.hh"

namespace ccsim::mpi {

namespace {

sim::Task<msg::PayloadPtr>
bcastLinear(const CollCtx &ctx, Bytes m, int root, msg::PayloadPtr data)
{
    if (ctx.rank == root) {
        for (int i = 0; i < ctx.size; ++i) {
            if (i == root)
                continue;
            co_await ctx.stage(m);
            co_await ctx.send(i, m, data);
        }
        co_return data;
    }
    msg::Message got = co_await ctx.recv(root);
    co_return got.payload;
}

sim::Task<msg::PayloadPtr>
bcastBinomial(const CollCtx &ctx, Bytes m, int root, msg::PayloadPtr data)
{
    int p = ctx.size;
    int r = (ctx.rank - root % p + p) % p;
    auto abs = [&](int rel) { return (rel + root) % p; };

    int mask = 1;
    while (mask < p) {
        if (r & mask) {
            co_await ctx.stage(m);
            msg::Message got = co_await ctx.recv(abs(r - mask));
            data = got.payload;
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
        if (r + mask < p) {
            co_await ctx.stage(m);
            co_await ctx.send(abs(r + mask), m, data);
        }
        mask >>= 1;
    }
    co_return data;
}

/**
 * van de Geijn long-message broadcast: binomial-scatter the message
 * in p chunks, then ring-allgather the chunks.  Per-byte cost is
 * ~2 m (p-1)/p instead of m log2 p.
 */
sim::Task<msg::PayloadPtr>
bcastScatterAllgather(const CollCtx &ctx, Bytes m, int root,
                      msg::PayloadPtr data)
{
    int p = ctx.size;
    Bytes chunk = (m + p - 1) / p;

    // Pad the root's payload to p equal chunks.
    msg::PayloadPtr padded;
    if (ctx.rank == root && data) {
        auto buf = std::make_shared<std::vector<std::byte>>(*data);
        buf->resize(static_cast<size_t>(chunk * p));
        padded = buf;
    }

    // The phases inherit this call's stage costs but must not
    // re-charge the collective entry cost.
    CollCtx sub = ctx;
    sub.costs.entry = 0;
    msg::PayloadPtr my_chunk = co_await scatterImpl(
        sub, machine::Algo::Binomial, chunk, root, std::move(padded));
    msg::PayloadPtr all = co_await allgatherImpl(
        sub, machine::Algo::Ring, chunk, std::move(my_chunk));
    co_return slicePayload(all, 0, m);
}

/** Segment size of the pipelined chain broadcast. */
constexpr Bytes kBcastSegment = 8 * KiB;

/**
 * Segmented chain pipeline: ranks form a line in root-relative
 * order; each segment is forwarded as soon as it lands.  Time is
 * ~(S + p - 2) segment steps instead of S log2 p — the long-message
 * regime's friend, terrible for short messages.
 */
sim::Task<msg::PayloadPtr>
bcastPipelined(const CollCtx &ctx, Bytes m, int root, msg::PayloadPtr data)
{
    int p = ctx.size;
    int rel = (ctx.rank - root % p + p) % p;
    auto abs = [&](int r) { return (r + root) % p; };

    int segments =
        static_cast<int>((m + kBcastSegment - 1) / kBcastSegment);
    if (segments == 0)
        segments = 1;

    std::vector<msg::PayloadPtr> parts(
        static_cast<size_t>(segments));
    for (int s = 0; s < segments; ++s) {
        Bytes off = kBcastSegment * static_cast<Bytes>(s);
        Bytes len = std::min(kBcastSegment, m - off);
        if (m == 0)
            len = 0;
        if (rel > 0) {
            msg::Message got = co_await ctx.recv(abs(rel - 1));
            parts[static_cast<size_t>(s)] = got.payload;
        } else {
            parts[static_cast<size_t>(s)] =
                slicePayload(data, off, len);
        }
        if (rel < p - 1) {
            co_await ctx.stage(len);
            co_await ctx.send(abs(rel + 1), len,
                              parts[static_cast<size_t>(s)]);
        }
    }
    if (rel == 0)
        co_return data;
    co_return concatPayloads(parts);
}

} // namespace

sim::Task<msg::PayloadPtr>
bcastImpl(const CollCtx &ctx, machine::Algo algo, Bytes m, int root,
          msg::PayloadPtr data)
{
    if (root < 0 || root >= ctx.size)
        fatal("bcast: root %d outside communicator of %d", root,
              ctx.size);
    if (m < 0)
        fatal("bcast: negative message length");
    if (ctx.rank == root && data &&
        static_cast<Bytes>(data->size()) != m)
        fatal("bcast: root payload is %zu bytes, expected %lld",
              data->size(), static_cast<long long>(m));

    co_await ctx.entry();
    if (ctx.size == 1)
        co_return data;

    switch (algo) {
      case machine::Algo::Linear:
        co_return co_await bcastLinear(ctx, m, root, std::move(data));
      case machine::Algo::Binomial:
        co_return co_await bcastBinomial(ctx, m, root, std::move(data));
      case machine::Algo::ScatterAllgather:
        co_return co_await bcastScatterAllgather(ctx, m, root,
                                                 std::move(data));
      case machine::Algo::Pipelined:
        co_return co_await bcastPipelined(ctx, m, root,
                                          std::move(data));
      default:
        fatal("bcast: unsupported algorithm '%s'",
              machine::algoName(algo).c_str());
    }
}

} // namespace ccsim::mpi
