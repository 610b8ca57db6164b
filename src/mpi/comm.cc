#include "mpi/comm.hh"

#include <algorithm>

#include "machine/comm_hook.hh"
#include "tuning/selection_table.hh"
#include "util/logging.hh"

namespace ccsim::mpi {

namespace {

/** Point-to-point traffic uses even contexts, collectives odd. */
int
ptpContext(int ctx_id)
{
    return ctx_id * 2;
}

int
collContext(int ctx_id)
{
    return ctx_id * 2 + 1;
}

} // namespace

Comm::Comm(machine::Machine &mach, int rank)
    : mach_(&mach), rank_(rank), size_(mach.size()), group_(nullptr),
      ctx_id_(0)
{
    if (rank < 0 || rank >= size_)
        fatal("Comm: rank %d outside machine of %d nodes", rank, size_);
}

Comm::Comm(machine::Machine &mach, int rank, int size,
           std::shared_ptr<const std::vector<int>> group, int ctx_id)
    : mach_(&mach), rank_(rank), size_(size), group_(std::move(group)),
      ctx_id_(ctx_id)
{
}

int
Comm::globalRank(int r) const
{
    if (r < 0 || r >= size_)
        panic("Comm::globalRank: rank %d outside communicator of %d", r,
              size_);
    return group_ ? (*group_)[static_cast<size_t>(r)] : r;
}

msg::Transport &
Comm::transport() const
{
    return mach_->node(globalRank(rank_));
}

Comm
Comm::subgroup(const std::vector<int> &members) const
{
    if (members.empty())
        fatal("Comm::subgroup: empty member list");

    std::vector<int> globals;
    globals.reserve(members.size());
    int my_new_rank = -1;
    for (std::size_t i = 0; i < members.size(); ++i) {
        int r = members[i];
        if (r < 0 || r >= size_)
            fatal("Comm::subgroup: member %d outside communicator of %d",
                  r, size_);
        if (r == rank_)
            my_new_rank = static_cast<int>(i);
        globals.push_back(globalRank(r));
    }
    // Duplicate check without disturbing member order.
    std::vector<int> sorted = globals;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
        fatal("Comm::subgroup: duplicate member");
    if (my_new_rank < 0)
        fatal("Comm::subgroup: calling rank %d is not a member", rank_);

    int ctx = mach_->contextFor(globals);
    int new_size = static_cast<int>(globals.size());
    auto group = std::make_shared<const std::vector<int>>(
        std::move(globals));
    return Comm(*mach_, my_new_rank, new_size, std::move(group), ctx);
}

msg::SendAwaiter
Comm::send(int dst, int tag, Bytes bytes, msg::PayloadPtr payload) const
{
    int g = globalRank(dst);
    if (auto *h = mach_->commHook())
        h->onSend(globalRank(rank_), g, tag, bytes, false);
    return transport().send(g, tag, ptpContext(ctx_id_), bytes,
                            std::move(payload));
}

msg::RecvAwaiter
Comm::recv(int src, int tag) const
{
    int g = src == msg::kAnySource ? src : globalRank(src);
    if (auto *h = mach_->commHook())
        h->onRecv(globalRank(rank_), g, tag, false);
    return transport().recv(g, tag, ptpContext(ctx_id_));
}

msg::Request
Comm::isend(int dst, int tag, Bytes bytes, msg::PayloadPtr payload) const
{
    int g = globalRank(dst);
    if (auto *h = mach_->commHook())
        h->onSend(globalRank(rank_), g, tag, bytes, true);
    return transport().isend(g, tag, ptpContext(ctx_id_), bytes,
                             std::move(payload));
}

msg::Request
Comm::irecv(int src, int tag) const
{
    int g = src == msg::kAnySource ? src : globalRank(src);
    if (auto *h = mach_->commHook())
        h->onRecv(globalRank(rank_), g, tag, true);
    return transport().irecv(g, tag, ptpContext(ctx_id_));
}

msg::WaitAwaiter
Comm::wait(msg::Request req) const
{
    if (auto *h = mach_->commHook())
        h->onWait(globalRank(rank_));
    return transport().wait(std::move(req));
}

msg::RecvAwaiter
Comm::sendrecv(int dst, int send_tag, Bytes bytes, int src, int recv_tag,
               msg::PayloadPtr payload) const
{
    int gdst = globalRank(dst);
    int gsrc = globalRank(src);
    if (auto *h = mach_->commHook())
        h->onSendrecv(globalRank(rank_), gdst, send_tag, bytes, gsrc,
                      recv_tag);
    return transport().sendrecv(gdst, send_tag, bytes, gsrc, recv_tag,
                                ptpContext(ctx_id_), std::move(payload));
}

sim::Task<void>
Comm::compute(Time t) const
{
    if (auto *h = mach_->commHook())
        h->onCompute(globalRank(rank_), t);
    msg::Transport &tp = transport();
    Time start = mach_->sim().now();
    co_await tp.busy(t);
    if (tp.trace() && tp.trace()->enabled())
        tp.trace()->record(sim::Span{globalRank(rank_),
                                     sim::SpanKind::Compute, start,
                                     mach_->sim().now(), 0, -1, {}});
}

void
Comm::hookCollective(Coll op, Bytes m, int root, Algo algo,
                     const std::vector<Bytes> *counts) const
{
    if (auto *h = mach_->commHook())
        h->onCollective(globalRank(rank_), op, m, root, algo, counts,
                        group_.get());
}

CollCtx
Comm::makeCtx(Coll op, Algo &algo, Bytes m, Combiner combiner)
{
    const machine::MachineConfig &cfg = mach_->config();
    algo = tuning::resolveAlgo(cfg, op, size_, m, algo);

    CollCtx ctx;
    ctx.mach = mach_;
    ctx.tp = &transport();
    ctx.rank = rank_;
    ctx.size = size_;
    ctx.group = group_;
    ctx.context = collContext(ctx_id_);
    ctx.tag = coll_seq_++;
    ctx.costs = cfg.costsFor(op);
    ctx.ov = msg::CostOverride{ctx.costs.send_overhead_override,
                               ctx.costs.recv_overhead_override};
    ctx.reduce_bw = cfg.reduce_bandwidth_mbs;
    ctx.combiner = std::move(combiner);
    if (auto *mm = mach_->metrics())
        ctx.om = &mm->coll[static_cast<std::size_t>(op)];
    return ctx;
}

// ---- per-operation cores ----------------------------------------------
// The single place each collective assembles its context and calls
// its Impl; the public size-only and *Data forms both forward here.

sim::Task<msg::PayloadPtr>
Comm::bcastCore(Bytes m, int root, Algo algo, msg::PayloadPtr data)
{
    hookCollective(Coll::Bcast, m, root, algo);
    CollCtx ctx = makeCtx(Coll::Bcast, algo, m, {});
    stats::CollOpMetrics *om = ctx.om;
    const Time t0 = mach_->sim().now();
    msg::PayloadPtr out = co_await bcastImpl(ctx, algo, m, root, std::move(data));
    if (om)
        finishColl(*mach_, globalRank(rank_), *om, t0);
    co_return out;
}

sim::Task<msg::PayloadPtr>
Comm::gatherCore(Bytes m, int root, Algo algo, msg::PayloadPtr mine)
{
    hookCollective(Coll::Gather, m, root, algo);
    CollCtx ctx = makeCtx(Coll::Gather, algo, m, {});
    stats::CollOpMetrics *om = ctx.om;
    const Time t0 = mach_->sim().now();
    msg::PayloadPtr out = co_await gatherImpl(ctx, algo, m, root, std::move(mine));
    if (om)
        finishColl(*mach_, globalRank(rank_), *om, t0);
    co_return out;
}

sim::Task<msg::PayloadPtr>
Comm::scatterCore(Bytes m, int root, Algo algo, msg::PayloadPtr all)
{
    hookCollective(Coll::Scatter, m, root, algo);
    CollCtx ctx = makeCtx(Coll::Scatter, algo, m, {});
    stats::CollOpMetrics *om = ctx.om;
    const Time t0 = mach_->sim().now();
    msg::PayloadPtr out = co_await scatterImpl(ctx, algo, m, root, std::move(all));
    if (om)
        finishColl(*mach_, globalRank(rank_), *om, t0);
    co_return out;
}

sim::Task<msg::PayloadPtr>
Comm::gathervCore(std::vector<Bytes> counts, int root, Algo algo,
                  msg::PayloadPtr mine)
{
    hookCollective(Coll::Gather, 0, root, algo, &counts);
    // gatherv's only algorithm is Linear; Default (and Auto) mean
    // that, not the machine's (possibly tree-shaped) gather choice.
    if (algo == Algo::Default || algo == Algo::Auto)
        algo = Algo::Linear;
    CollCtx ctx = makeCtx(Coll::Gather, algo, 0, {});
    stats::CollOpMetrics *om = ctx.om;
    const Time t0 = mach_->sim().now();
    msg::PayloadPtr out = co_await gathervImpl(ctx, algo, counts, root,
                                   std::move(mine));
    if (om)
        finishColl(*mach_, globalRank(rank_), *om, t0);
    co_return out;
}

sim::Task<msg::PayloadPtr>
Comm::scattervCore(std::vector<Bytes> counts, int root, Algo algo,
                   msg::PayloadPtr all)
{
    hookCollective(Coll::Scatter, 0, root, algo, &counts);
    if (algo == Algo::Default || algo == Algo::Auto)
        algo = Algo::Linear;
    CollCtx ctx = makeCtx(Coll::Scatter, algo, 0, {});
    stats::CollOpMetrics *om = ctx.om;
    const Time t0 = mach_->sim().now();
    msg::PayloadPtr out = co_await scattervImpl(ctx, algo, counts, root,
                                    std::move(all));
    if (om)
        finishColl(*mach_, globalRank(rank_), *om, t0);
    co_return out;
}

sim::Task<msg::PayloadPtr>
Comm::allgatherCore(Bytes m, Algo algo, msg::PayloadPtr mine)
{
    hookCollective(Coll::Allgather, m, -1, algo);
    CollCtx ctx = makeCtx(Coll::Allgather, algo, m, {});
    stats::CollOpMetrics *om = ctx.om;
    const Time t0 = mach_->sim().now();
    msg::PayloadPtr out = co_await allgatherImpl(ctx, algo, m, std::move(mine));
    if (om)
        finishColl(*mach_, globalRank(rank_), *om, t0);
    co_return out;
}

sim::Task<msg::PayloadPtr>
Comm::alltoallCore(Bytes m, Algo algo, msg::PayloadPtr mine)
{
    hookCollective(Coll::Alltoall, m, -1, algo);
    CollCtx ctx = makeCtx(Coll::Alltoall, algo, m, {});
    stats::CollOpMetrics *om = ctx.om;
    const Time t0 = mach_->sim().now();
    msg::PayloadPtr out = co_await alltoallImpl(ctx, algo, m, std::move(mine));
    if (om)
        finishColl(*mach_, globalRank(rank_), *om, t0);
    co_return out;
}

sim::Task<msg::PayloadPtr>
Comm::reduceCore(Bytes m, int root, Algo algo, Combiner combiner,
                 msg::PayloadPtr mine)
{
    hookCollective(Coll::Reduce, m, root, algo);
    CollCtx ctx = makeCtx(Coll::Reduce, algo, m, std::move(combiner));
    stats::CollOpMetrics *om = ctx.om;
    const Time t0 = mach_->sim().now();
    msg::PayloadPtr out = co_await reduceImpl(ctx, algo, m, root, std::move(mine));
    if (om)
        finishColl(*mach_, globalRank(rank_), *om, t0);
    co_return out;
}

sim::Task<msg::PayloadPtr>
Comm::allreduceCore(Bytes m, Algo algo, Combiner combiner,
                    msg::PayloadPtr mine)
{
    hookCollective(Coll::Allreduce, m, -1, algo);
    CollCtx ctx = makeCtx(Coll::Allreduce, algo, m, std::move(combiner));
    stats::CollOpMetrics *om = ctx.om;
    const Time t0 = mach_->sim().now();
    msg::PayloadPtr out = co_await allreduceImpl(ctx, algo, m, std::move(mine));
    if (om)
        finishColl(*mach_, globalRank(rank_), *om, t0);
    co_return out;
}

sim::Task<msg::PayloadPtr>
Comm::reduceScatterCore(Bytes m, Algo algo, Combiner combiner,
                        msg::PayloadPtr mine)
{
    hookCollective(Coll::ReduceScatter, m, -1, algo);
    CollCtx ctx = makeCtx(Coll::ReduceScatter, algo, m,
                          std::move(combiner));
    stats::CollOpMetrics *om = ctx.om;
    const Time t0 = mach_->sim().now();
    msg::PayloadPtr out = co_await reduceScatterImpl(ctx, algo, m, std::move(mine));
    if (om)
        finishColl(*mach_, globalRank(rank_), *om, t0);
    co_return out;
}

sim::Task<msg::PayloadPtr>
Comm::scanCore(Bytes m, Algo algo, Combiner combiner,
               msg::PayloadPtr mine)
{
    hookCollective(Coll::Scan, m, -1, algo);
    CollCtx ctx = makeCtx(Coll::Scan, algo, m, std::move(combiner));
    stats::CollOpMetrics *om = ctx.om;
    const Time t0 = mach_->sim().now();
    msg::PayloadPtr out = co_await scanImpl(ctx, algo, m, std::move(mine));
    if (om)
        finishColl(*mach_, globalRank(rank_), *om, t0);
    co_return out;
}

// ---- size-only front-ends ---------------------------------------------
// Plain functions: each returns its Core for the caller to await.

CollAwaiter
Comm::barrier(Algo algo)
{
    hookCollective(Coll::Barrier, 0, -1, algo);
    CollCtx ctx = makeCtx(Coll::Barrier, algo, 0, {});
    return CollAwaiter(std::make_unique<BarrierRounds>(ctx, algo));
}

CollAwaiter
Comm::bcast(Bytes m, int root, Algo algo)
{
    return CollAwaiter(bcastCore(m, root, algo, nullptr));
}

CollAwaiter
Comm::gather(Bytes m, int root, Algo algo)
{
    return CollAwaiter(gatherCore(m, root, algo, nullptr));
}

CollAwaiter
Comm::scatter(Bytes m, int root, Algo algo)
{
    return CollAwaiter(scatterCore(m, root, algo, nullptr));
}

CollAwaiter
Comm::allgather(Bytes m, Algo algo)
{
    return CollAwaiter(allgatherCore(m, algo, nullptr));
}

CollAwaiter
Comm::gatherv(const std::vector<Bytes> &counts, int root, Algo algo)
{
    return CollAwaiter(gathervCore(counts, root, algo, nullptr));
}

CollAwaiter
Comm::scatterv(const std::vector<Bytes> &counts, int root, Algo algo)
{
    return CollAwaiter(scattervCore(counts, root, algo, nullptr));
}

CollAwaiter
Comm::alltoall(Bytes m, Algo algo)
{
    return CollAwaiter(alltoallCore(m, algo, nullptr));
}

CollAwaiter
Comm::reduce(Bytes m, int root, Algo algo)
{
    return CollAwaiter(reduceCore(m, root, algo, {}, nullptr));
}

CollAwaiter
Comm::allreduce(Bytes m, Algo algo)
{
    return CollAwaiter(allreduceCore(m, algo, {}, nullptr));
}

CollAwaiter
Comm::reduceScatter(Bytes m, Algo algo)
{
    return CollAwaiter(reduceScatterCore(m, algo, {}, nullptr));
}

CollAwaiter
Comm::scan(Bytes m, Algo algo)
{
    return CollAwaiter(scanCore(m, algo, {}, nullptr));
}

} // namespace ccsim::mpi
