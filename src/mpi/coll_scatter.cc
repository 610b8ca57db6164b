/**
 * @file
 * Scatter algorithms: linear fan-out from the root (era default) and
 * binomial recursive halving.
 */

#include <algorithm>

#include "mpi/collectives.hh"
#include "util/logging.hh"

namespace ccsim::mpi {

namespace {

sim::Task<msg::PayloadPtr>
scatterLinear(const CollCtx &ctx, Bytes m, int root, msg::PayloadPtr all)
{
    int p = ctx.size;
    if (ctx.rank == root) {
        for (int i = 0; i < p; ++i) {
            if (i == root)
                continue;
            co_await ctx.stage(m);
            co_await ctx.send(i, m,
                              slicePayload(all, m * static_cast<Bytes>(i),
                                           m));
        }
        co_return slicePayload(all, m * static_cast<Bytes>(root), m);
    }
    msg::Message got = co_await ctx.recv(root);
    co_return got.payload;
}

/**
 * Recursive halving over root-relative ranks (mirror of the binomial
 * gather): each node receives the block for its whole subtree, then
 * peels halves off to its children.
 */
sim::Task<msg::PayloadPtr>
scatterBinomial(const CollCtx &ctx, Bytes m, int root, msg::PayloadPtr all)
{
    int p = ctx.size;
    int r = (ctx.rank - root % p + p) % p;
    auto abs = [&](int rel) { return (rel + root) % p; };

    msg::PayloadPtr buf; // covers rel [r, r + cnt)
    int top_mask;
    if (r == 0) {
        buf = rotateBlocksToRelative(all, p, m, root);
        top_mask = 1 << ceilLog2(p);
    } else {
        int lsb = r & -r;
        co_await ctx.stage(m * static_cast<Bytes>(
            std::min(lsb, p - r)));
        msg::Message got = co_await ctx.recv(abs(r - lsb));
        buf = got.payload;
        top_mask = lsb;
    }

    for (int mask = top_mask >> 1; mask > 0; mask >>= 1) {
        int child = r + mask;
        if (child < p) {
            int blk = std::min(mask, p - child);
            co_await ctx.stage(m * static_cast<Bytes>(blk));
            co_await ctx.send(abs(child), m * static_cast<Bytes>(blk),
                              slicePayload(buf,
                                           m * static_cast<Bytes>(mask),
                                           m * static_cast<Bytes>(blk)));
        }
    }
    co_return slicePayload(buf, 0, m);
}

} // namespace

sim::Task<msg::PayloadPtr>
scattervImpl(const CollCtx &ctx, machine::Algo algo,
             const std::vector<Bytes> &counts, int root,
             msg::PayloadPtr all)
{
    int p = ctx.size;
    if (algo != machine::Algo::Linear)
        fatal("scatterv: only the linear algorithm is implemented, "
              "got %s", machine::algoName(algo).c_str());
    if (root < 0 || root >= p)
        fatal("scatterv: root %d outside communicator of %d", root, p);
    if (static_cast<int>(counts.size()) != p)
        fatal("scatterv: %zu counts for %d ranks", counts.size(), p);
    Bytes total = 0;
    for (Bytes c : counts) {
        if (c < 0)
            fatal("scatterv: negative count");
        total += c;
    }
    if (ctx.rank == root && all &&
        static_cast<Bytes>(all->size()) != total)
        fatal("scatterv: root payload is %zu bytes, expected %lld",
              all->size(), static_cast<long long>(total));

    co_await ctx.entry();
    if (p == 1)
        co_return slicePayload(all, 0, counts[0]);

    if (ctx.rank == root) {
        Bytes off = 0;
        msg::PayloadPtr my_block;
        for (int i = 0; i < p; ++i) {
            Bytes c = counts[static_cast<size_t>(i)];
            if (i == root) {
                my_block = slicePayload(all, off, c);
            } else {
                co_await ctx.stage(c);
                co_await ctx.send(i, c, slicePayload(all, off, c));
            }
            off += c;
        }
        co_return my_block;
    }
    msg::Message got = co_await ctx.recv(root);
    co_return got.payload;
}

sim::Task<msg::PayloadPtr>
scatterImpl(const CollCtx &ctx, machine::Algo algo, Bytes m, int root,
            msg::PayloadPtr all)
{
    if (root < 0 || root >= ctx.size)
        fatal("scatter: root %d outside communicator of %d", root,
              ctx.size);
    if (m < 0)
        fatal("scatter: negative message length");
    if (ctx.rank == root && all &&
        static_cast<Bytes>(all->size()) !=
            m * static_cast<Bytes>(ctx.size))
        fatal("scatter: root payload is %zu bytes, expected %lld",
              all->size(), static_cast<long long>(m * ctx.size));

    co_await ctx.entry();
    if (ctx.size == 1)
        co_return slicePayload(all, 0, m);

    switch (algo) {
      case machine::Algo::Linear:
        co_return co_await scatterLinear(ctx, m, root, std::move(all));
      case machine::Algo::Binomial:
        co_return co_await scatterBinomial(ctx, m, root, std::move(all));
      default:
        fatal("scatter: unsupported algorithm '%s'",
              machine::algoName(algo).c_str());
    }
}

} // namespace ccsim::mpi
