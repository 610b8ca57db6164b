/**
 * @file
 * Reduce-scatter algorithms: linear (reduce + scatter composition),
 * recursive halving (power-of-two sizes; the building block of
 * Rabenseifner's allreduce), and pairwise exchange (any size).
 *
 * Semantics: every rank contributes p blocks of m bytes; block i of
 * the elementwise fold over all contributions ends up at rank i.
 */

#include "mpi/collectives.hh"
#include "util/logging.hh"

namespace ccsim::mpi {

namespace {

/** Block i of a p-block contribution (null-safe). */
msg::PayloadPtr
blockOf(const msg::PayloadPtr &all, int i, Bytes m)
{
    return slicePayload(all, m * static_cast<Bytes>(i), m);
}

sim::Task<msg::PayloadPtr>
reduceScatterLinear(const CollCtx &ctx, Bytes m, msg::PayloadPtr mine)
{
    // Fold the whole p*m vector at rank 0, then scatter the blocks.
    CollCtx sub = ctx;
    sub.costs.entry = 0;
    msg::PayloadPtr total =
        co_await reduceImpl(sub, machine::Algo::Binomial,
                            m * static_cast<Bytes>(ctx.size), 0,
                            std::move(mine));
    co_return co_await scatterImpl(sub, machine::Algo::Binomial, m, 0,
                                   std::move(total));
}

/** Power-of-two halving exchange; O(log p) rounds, each moving and
 *  folding half of the remaining range. */
sim::Task<msg::PayloadPtr>
reduceScatterHalving(const CollCtx &ctx, Bytes m, msg::PayloadPtr mine)
{
    int p = ctx.size;
    int lo = 0;
    int hi = p; // my active block range [lo, hi)
    msg::PayloadPtr acc = std::move(mine);

    for (int half = p / 2; half >= 1; half >>= 1) {
        int partner = ctx.rank ^ half;
        int mid = lo + (hi - lo) / 2;
        bool keep_low = ctx.rank < mid;

        Bytes keep_off =
            m * static_cast<Bytes>((keep_low ? lo : mid) - lo);
        Bytes send_off =
            m * static_cast<Bytes>((keep_low ? mid : lo) - lo);
        Bytes half_bytes = m * static_cast<Bytes>(hi - lo) / 2;

        co_await ctx.stage(2 * half_bytes);
        msg::Message got = co_await ctx.sendrecv(
            partner, half_bytes, partner,
            slicePayload(acc, send_off, half_bytes));
        co_await ctx.arith(half_bytes);
        acc = ctx.fold(slicePayload(acc, keep_off, half_bytes),
                       got.payload);

        if (keep_low)
            hi = mid;
        else
            lo = mid;
    }
    co_return acc;
}

/** Any-p pairwise exchange: p-1 rounds of one m-byte block each. */
sim::Task<msg::PayloadPtr>
reduceScatterPairwise(const CollCtx &ctx, Bytes m, msg::PayloadPtr mine)
{
    int p = ctx.size;
    msg::PayloadPtr acc = blockOf(mine, ctx.rank, m);
    for (int i = 1; i < p; ++i) {
        int to = ctx.relative(ctx.rank, i);
        int from = ctx.relative(ctx.rank, -i);
        co_await ctx.stage(2 * m);
        msg::Message got = co_await ctx.sendrecv(
            to, m, from, blockOf(mine, to, m));
        co_await ctx.arith(m);
        acc = ctx.fold(acc, got.payload);
    }
    co_return acc;
}

} // namespace

sim::Task<msg::PayloadPtr>
reduceScatterImpl(const CollCtx &ctx, machine::Algo algo, Bytes m,
                  msg::PayloadPtr mine)
{
    if (m < 0)
        fatal("reduce-scatter: negative message length");
    if (mine && static_cast<Bytes>(mine->size()) !=
                    m * static_cast<Bytes>(ctx.size))
        fatal("reduce-scatter: contribution is %zu bytes, expected "
              "%lld", mine->size(),
              static_cast<long long>(m * ctx.size));

    co_await ctx.entry();
    if (ctx.size == 1)
        co_return slicePayload(mine, 0, m);

    if (algo == machine::Algo::RecursiveHalving && !isPow2(ctx.size))
        algo = machine::Algo::Pairwise;

    switch (algo) {
      case machine::Algo::Linear:
        co_return co_await reduceScatterLinear(ctx, m,
                                               std::move(mine));
      case machine::Algo::RecursiveHalving:
        co_return co_await reduceScatterHalving(ctx, m,
                                                std::move(mine));
      case machine::Algo::Pairwise:
        co_return co_await reduceScatterPairwise(ctx, m,
                                                 std::move(mine));
      default:
        fatal("reduce-scatter: unsupported algorithm '%s'",
              machine::algoName(algo).c_str());
    }
}

} // namespace ccsim::mpi
