/**
 * @file
 * Allreduce algorithms: reduce-then-broadcast composition and
 * MPICH-style recursive doubling (with the non-power-of-two fold-in
 * pre/post phases).
 */

#include "mpi/collectives.hh"
#include "util/logging.hh"

namespace ccsim::mpi {

namespace {

sim::Task<msg::PayloadPtr>
allreduceReduceBcast(const CollCtx &ctx, Bytes m, msg::PayloadPtr mine)
{
    CollCtx sub = ctx;
    sub.costs.entry = 0; // phases share one collective entry
    msg::PayloadPtr total = co_await reduceImpl(
        sub, machine::Algo::Binomial, m, 0, std::move(mine));
    co_return co_await bcastImpl(sub, machine::Algo::Binomial, m, 0,
                                 std::move(total));
}

sim::Task<msg::PayloadPtr>
allreduceRecDoubling(const CollCtx &ctx, Bytes m, msg::PayloadPtr mine)
{
    int p = ctx.size;
    int rank = ctx.rank;
    int pof2 = 1 << floorLog2(p);
    int rem = p - pof2;

    msg::PayloadPtr acc = std::move(mine);

    // Pre-phase: fold the surplus ranks into their even partners so
    // a power-of-two subset runs the doubling rounds.
    int newrank;
    if (rank < 2 * rem) {
        if (rank % 2 == 0) {
            co_await ctx.stage(m);
            co_await ctx.send(rank + 1, m, acc);
            newrank = -1;
        } else {
            co_await ctx.stage(m);
            msg::Message got = co_await ctx.recv(rank - 1);
            co_await ctx.arith(m);
            acc = ctx.fold(got.payload, acc);
            newrank = rank / 2;
        }
    } else {
        newrank = rank - rem;
    }

    if (newrank != -1) {
        for (int mask = 1; mask < pof2; mask <<= 1) {
            int newpartner = newrank ^ mask;
            int partner = newpartner < rem ? newpartner * 2 + 1
                                           : newpartner + rem;
            co_await ctx.stage(2 * m);
            msg::Message got =
                co_await ctx.sendrecv(partner, m, partner, acc);
            co_await ctx.arith(m);
            if (partner < rank)
                acc = ctx.fold(got.payload, acc);
            else
                acc = ctx.fold(acc, got.payload);
        }
    }

    // Post-phase: hand the result back to the folded-in ranks.
    if (rank < 2 * rem) {
        if (rank % 2 == 1) {
            co_await ctx.stage(m);
            co_await ctx.send(rank - 1, m, acc);
        } else {
            msg::Message got = co_await ctx.recv(rank + 1);
            acc = got.payload;
        }
    }
    co_return acc;
}

/**
 * Rabenseifner: reduce-scatter (recursive halving) the vector in p
 * blocks, then allgather (recursive doubling) the folded blocks.
 * Bandwidth-optimal for long vectors: ~2 m (p-1)/p bytes per node
 * instead of the tree's m log2 p.
 */
sim::Task<msg::PayloadPtr>
allreduceRabenseifner(const CollCtx &ctx, Bytes m, msg::PayloadPtr mine)
{
    int p = ctx.size;
    // Chunks must stay element-aligned for the fold; round up to the
    // largest elementary size (8 bytes).
    Bytes chunk = ((m + p - 1) / p + 7) / 8 * 8;

    // Pad to p equal blocks; the padded tail is sliced away at the
    // end and never contaminates real elements (folds are
    // elementwise).
    msg::PayloadPtr padded;
    if (mine) {
        auto buf = std::make_shared<std::vector<std::byte>>(*mine);
        buf->resize(static_cast<size_t>(chunk * p));
        padded = buf;
    }

    CollCtx sub = ctx;
    sub.costs.entry = 0;
    msg::PayloadPtr my_block = co_await reduceScatterImpl(
        sub, machine::Algo::RecursiveHalving, chunk,
        std::move(padded));
    msg::PayloadPtr all = co_await allgatherImpl(
        sub, machine::Algo::RecursiveDoubling, chunk,
        std::move(my_block));
    co_return slicePayload(all, 0, m);
}

} // namespace

sim::Task<msg::PayloadPtr>
allreduceImpl(const CollCtx &ctx, machine::Algo algo, Bytes m,
              msg::PayloadPtr mine)
{
    if (m < 0)
        fatal("allreduce: negative message length");
    if (mine && static_cast<Bytes>(mine->size()) != m)
        fatal("allreduce: contribution is %zu bytes, expected %lld",
              mine->size(), static_cast<long long>(m));

    co_await ctx.entry();
    if (ctx.size == 1)
        co_return mine;

    switch (algo) {
      case machine::Algo::ReduceBcast:
        co_return co_await allreduceReduceBcast(ctx, m, std::move(mine));
      case machine::Algo::RecursiveDoubling:
        co_return co_await allreduceRecDoubling(ctx, m, std::move(mine));
      case machine::Algo::Rabenseifner:
        co_return co_await allreduceRabenseifner(ctx, m,
                                                 std::move(mine));
      default:
        fatal("allreduce: unsupported algorithm '%s'",
              machine::algoName(algo).c_str());
    }
}

} // namespace ccsim::mpi
