/**
 * @file
 * Comm: the MPI-style communicator and the library's public API.
 *
 * One Comm object exists per participating rank (exactly like an
 * MPI_Comm handle inside one process).  Rank programs are C++20
 * coroutines:
 *
 * @code
 *     sim::Task<void> program(machine::Machine &m, int rank) {
 *         mpi::Comm comm(m, rank);
 *         co_await comm.barrier();
 *         co_await comm.bcast(1024, 0);           // size-only
 *         auto v = co_await comm.allreduceData<float>(
 *             {1.0f, 2.0f}, mpi::ReduceOp::Sum);  // data-carrying
 *     }
 * @endcode
 *
 * Size-only collectives move no payload bytes (the simulator charges
 * the time a real payload would take); the *Data variants carry and
 * transform real element buffers so results can be checked.
 *
 * MPI semantics respected: collective calls must be made by every
 * rank of the communicator in the same order; tags/contexts keep
 * distinct calls and distinct communicators from interfering.
 */

#ifndef CCSIM_MPI_COMM_HH
#define CCSIM_MPI_COMM_HH

#include <memory>
#include <vector>

#include "machine/machine.hh"
#include "mpi/coll_ctx.hh"
#include "mpi/collectives.hh"
#include "mpi/datatype.hh"
#include "mpi/reduce_op.hh"
#include "msg/transport.hh"
#include "sim/task.hh"

namespace ccsim::mpi {

using machine::Algo;
using machine::Coll;

/**
 * What every size-only collective returns: the call, already set up;
 * co_await it at once.  A barrier is a BarrierRounds state that is
 * already running (it started at the call, as a coroutine started at
 * its co_await), so awaiting it costs no frame.  Any other collective
 * is its *Core coroutine itself, started by the co_await, so no
 * frame sits between the caller and the Core.
 */
class [[nodiscard]] CollAwaiter
{
  public:
    explicit CollAwaiter(sim::Task<msg::PayloadPtr> core)
        : core_(std::move(core))
    {
    }

    explicit CollAwaiter(std::unique_ptr<BarrierRounds> barrier)
        : barrier_(std::move(barrier))
    {
    }

    bool
    await_ready() const noexcept
    {
        return barrier_ && barrier_->done();
    }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> caller)
    {
        if (barrier_) {
            barrier_->park(caller);
            return std::noop_coroutine();
        }
        return coreAwaiter().await_suspend(caller);
    }

    void
    await_resume() const
    {
        if (!barrier_)
            coreAwaiter().await_resume(); // rethrows; drops the payload
        else if (std::exception_ptr e = barrier_->error())
            std::rethrow_exception(e);
    }

  private:
    sim::Task<msg::PayloadPtr>::Awaiter
    coreAwaiter() const
    {
        return {core_.handle()};
    }

    sim::Task<msg::PayloadPtr> core_;
    std::unique_ptr<BarrierRounds> barrier_;
};

/** Per-rank communicator handle. */
class Comm
{
  public:
    /** World communicator for @p rank on @p mach. */
    Comm(machine::Machine &mach, int rank);

    /** This rank within the communicator. */
    int rank() const { return rank_; }

    /** Communicator size. */
    int size() const { return size_; }

    /** Global node id of communicator rank @p r. */
    int globalRank(int r) const;

    machine::Machine &machine() const { return *mach_; }

    /** The underlying transport endpoint of this rank. */
    msg::Transport &transport() const;

    /**
     * Derive a sub-communicator from the given *communicator* ranks
     * (strictly increasing is not required; order defines new rank
     * numbering).  The calling rank must be a member.  Deterministic:
     * every member derives the same context without communication.
     */
    Comm subgroup(const std::vector<int> &members) const;

    // ---- point-to-point ------------------------------------------------

    msg::SendAwaiter send(int dst, int tag, Bytes bytes,
                          msg::PayloadPtr payload = nullptr) const;
    msg::RecvAwaiter recv(int src, int tag) const;
    msg::Request isend(int dst, int tag, Bytes bytes,
                       msg::PayloadPtr payload = nullptr) const;
    msg::Request irecv(int src, int tag) const;
    msg::WaitAwaiter wait(msg::Request req) const;
    msg::RecvAwaiter sendrecv(int dst, int send_tag, Bytes bytes, int src,
                              int recv_tag,
                              msg::PayloadPtr payload = nullptr) const;

    /** Occupy this rank's CPU for @p t (models local computation). */
    sim::Task<void> compute(Time t) const;

    // ---- collectives, size-only (benchmark form) -----------------------
    // m is the paper's "message length": bytes exchanged per node
    // pair (per-operand bytes for reduce/scan).

    // Every size-only method is its *Data sibling with a null
    // payload: both run one private *Core per operation, so timing
    // and tag allocation cannot diverge between the two forms.  The
    // size-only form returns that Core (wrapped in a CollAwaiter)
    // instead of awaiting it, so it adds no coroutine frame; the
    // barrier, which has no *Data form, runs as BarrierRounds.

    // The default argument is Algo::Auto: resolved through the
    // machine's selection table when one is attached (see
    // tuning::resolveAlgo), and identical to Algo::Default — the
    // machine's configured choice — when none is.  Explicit
    // algorithms always pass through untouched.

    CollAwaiter barrier(Algo algo = Algo::Auto);
    CollAwaiter bcast(Bytes m, int root = 0,
                      Algo algo = Algo::Auto);
    CollAwaiter gather(Bytes m, int root = 0,
                       Algo algo = Algo::Auto);
    CollAwaiter scatter(Bytes m, int root = 0,
                        Algo algo = Algo::Auto);
    CollAwaiter allgather(Bytes m, Algo algo = Algo::Auto);
    CollAwaiter gatherv(const std::vector<Bytes> &counts,
                        int root = 0, Algo algo = Algo::Auto);
    CollAwaiter scatterv(const std::vector<Bytes> &counts,
                         int root = 0, Algo algo = Algo::Auto);
    CollAwaiter alltoall(Bytes m, Algo algo = Algo::Auto);
    CollAwaiter reduce(Bytes m, int root = 0,
                       Algo algo = Algo::Auto);
    CollAwaiter allreduce(Bytes m, Algo algo = Algo::Auto);
    CollAwaiter reduceScatter(Bytes m, Algo algo = Algo::Auto);
    CollAwaiter scan(Bytes m, Algo algo = Algo::Auto);

    // ---- collectives, data-carrying ------------------------------------

    /** Broadcast root's vector; every rank returns it.  All ranks
     *  pass a vector of the broadcast length (contents matter only
     *  at the root). */
    template <typename T>
    sim::Task<std::vector<T>>
    bcastData(std::vector<T> v, int root = 0, Algo algo = Algo::Auto)
    {
        Bytes m = byteSize(v);
        msg::PayloadPtr data =
            rank_ == root ? msg::makePayload(v) : nullptr;
        msg::PayloadPtr out =
            co_await bcastCore(m, root, algo, std::move(data));
        co_return msg::payloadAs<T>(out);
    }

    /** Gather everyone's vector at the root (rank-order concat).
     *  Non-roots return an empty vector. */
    template <typename T>
    sim::Task<std::vector<T>>
    gatherData(const std::vector<T> &mine, int root = 0,
               Algo algo = Algo::Auto)
    {
        msg::PayloadPtr out = co_await gatherCore(
            byteSize(mine), root, algo, msg::makePayload(mine));
        co_return msg::payloadAs<T>(out);
    }

    /** Scatter root's p*count vector; every rank returns its count
     *  elements.  Non-roots may pass an empty vector. */
    template <typename T>
    sim::Task<std::vector<T>>
    scatterData(const std::vector<T> &all, int count, int root = 0,
                Algo algo = Algo::Auto)
    {
        Bytes m = static_cast<Bytes>(count) *
                  static_cast<Bytes>(sizeof(T));
        msg::PayloadPtr data =
            rank_ == root ? msg::makePayload(all) : nullptr;
        msg::PayloadPtr out =
            co_await scatterCore(m, root, algo, std::move(data));
        co_return msg::payloadAs<T>(out);
    }

    /** gatherv: ragged gather; rank i contributes counts[i]
     *  elements; root returns the concatenation, others empty. */
    template <typename T>
    sim::Task<std::vector<T>>
    gathervData(const std::vector<T> &mine,
                const std::vector<int> &counts, int root = 0,
                Algo algo = Algo::Auto)
    {
        msg::PayloadPtr out = co_await gathervCore(
            toByteCounts<T>(counts), root, algo,
            msg::makePayload(mine));
        co_return msg::payloadAs<T>(out);
    }

    /** scatterv: ragged scatter; rank i returns counts[i] elements
     *  of root's concatenated buffer. */
    template <typename T>
    sim::Task<std::vector<T>>
    scattervData(const std::vector<T> &all,
                 const std::vector<int> &counts, int root = 0,
                 Algo algo = Algo::Auto)
    {
        msg::PayloadPtr data =
            rank_ == root ? msg::makePayload(all) : nullptr;
        msg::PayloadPtr out = co_await scattervCore(
            toByteCounts<T>(counts), root, algo, std::move(data));
        co_return msg::payloadAs<T>(out);
    }

    /** Allgather: everyone returns the rank-order concatenation. */
    template <typename T>
    sim::Task<std::vector<T>>
    allgatherData(const std::vector<T> &mine, Algo algo = Algo::Auto)
    {
        msg::PayloadPtr out = co_await allgatherCore(
            byteSize(mine), algo, msg::makePayload(mine));
        co_return msg::payloadAs<T>(out);
    }

    /** Total exchange: pass p blocks of count elements (block i to
     *  rank i); returns p blocks (block i from rank i). */
    template <typename T>
    sim::Task<std::vector<T>>
    alltoallData(const std::vector<T> &mine, Algo algo = Algo::Auto)
    {
        if (mine.size() % static_cast<size_t>(size_) != 0)
            fatal("alltoallData: %zu elements not divisible by %d "
                  "ranks", mine.size(), size_);
        Bytes m = byteSize(mine) / size_;
        msg::PayloadPtr out =
            co_await alltoallCore(m, algo, msg::makePayload(mine));
        co_return msg::payloadAs<T>(out);
    }

    /** Elementwise reduction to the root; non-roots return empty. */
    template <typename T>
    sim::Task<std::vector<T>>
    reduceData(const std::vector<T> &mine, ReduceOp op, int root = 0,
               Algo algo = Algo::Auto)
    {
        msg::PayloadPtr out = co_await reduceCore(
            byteSize(mine), root, algo,
            makeCombiner(op, datatypeOf<T>()), msg::makePayload(mine));
        co_return msg::payloadAs<T>(out);
    }

    /** Elementwise reduction; everyone returns the result. */
    template <typename T>
    sim::Task<std::vector<T>>
    allreduceData(const std::vector<T> &mine, ReduceOp op,
                  Algo algo = Algo::Auto)
    {
        msg::PayloadPtr out = co_await allreduceCore(
            byteSize(mine), algo, makeCombiner(op, datatypeOf<T>()),
            msg::makePayload(mine));
        co_return msg::payloadAs<T>(out);
    }

    /** Reduce-scatter: pass p blocks of count elements; returns
     *  block rank() of the elementwise fold. */
    template <typename T>
    sim::Task<std::vector<T>>
    reduceScatterData(const std::vector<T> &mine, ReduceOp op,
                      Algo algo = Algo::Auto)
    {
        if (mine.size() % static_cast<size_t>(size_) != 0)
            fatal("reduceScatterData: %zu elements not divisible by "
                  "%d ranks", mine.size(), size_);
        Bytes m = byteSize(mine) / size_;
        msg::PayloadPtr out = co_await reduceScatterCore(
            m, algo, makeCombiner(op, datatypeOf<T>()),
            msg::makePayload(mine));
        co_return msg::payloadAs<T>(out);
    }

    /** Inclusive prefix reduction in rank order. */
    template <typename T>
    sim::Task<std::vector<T>>
    scanData(const std::vector<T> &mine, ReduceOp op,
             Algo algo = Algo::Auto)
    {
        msg::PayloadPtr out = co_await scanCore(
            byteSize(mine), algo, makeCombiner(op, datatypeOf<T>()),
            msg::makePayload(mine));
        co_return msg::payloadAs<T>(out);
    }

  private:
    Comm(machine::Machine &mach, int rank, int size,
         std::shared_ptr<const std::vector<int>> group, int ctx_id);

    /** Resolve Algo::Auto / Algo::Default (via tuning::resolveAlgo,
     *  which needs the message length @p m for the table lookup) and
     *  assemble the per-call context. */
    CollCtx makeCtx(Coll op, Algo &algo, Bytes m, Combiner combiner);

    /** Report a collective to the machine's CommHook (if any) with
     *  its arguments as requested, before algorithm resolution. */
    void hookCollective(Coll op, Bytes m, int root, Algo algo,
                        const std::vector<Bytes> *counts = nullptr) const;

    // One Core per collective: context assembly + Impl dispatch.
    // Both public forms (size-only, *Data) land here, so a null and a
    // real payload take byte-identical simulated time.
    sim::Task<msg::PayloadPtr> bcastCore(Bytes m, int root, Algo algo,
                                         msg::PayloadPtr data);
    sim::Task<msg::PayloadPtr> gatherCore(Bytes m, int root, Algo algo,
                                          msg::PayloadPtr mine);
    sim::Task<msg::PayloadPtr> scatterCore(Bytes m, int root, Algo algo,
                                           msg::PayloadPtr all);
    sim::Task<msg::PayloadPtr> gathervCore(std::vector<Bytes> counts,
                                           int root, Algo algo,
                                           msg::PayloadPtr mine);
    sim::Task<msg::PayloadPtr> scattervCore(std::vector<Bytes> counts,
                                            int root, Algo algo,
                                            msg::PayloadPtr all);
    sim::Task<msg::PayloadPtr> allgatherCore(Bytes m, Algo algo,
                                             msg::PayloadPtr mine);
    sim::Task<msg::PayloadPtr> alltoallCore(Bytes m, Algo algo,
                                            msg::PayloadPtr mine);
    sim::Task<msg::PayloadPtr> reduceCore(Bytes m, int root, Algo algo,
                                          Combiner combiner,
                                          msg::PayloadPtr mine);
    sim::Task<msg::PayloadPtr> allreduceCore(Bytes m, Algo algo,
                                             Combiner combiner,
                                             msg::PayloadPtr mine);
    sim::Task<msg::PayloadPtr> reduceScatterCore(Bytes m, Algo algo,
                                                 Combiner combiner,
                                                 msg::PayloadPtr mine);
    sim::Task<msg::PayloadPtr> scanCore(Bytes m, Algo algo,
                                        Combiner combiner,
                                        msg::PayloadPtr mine);

    template <typename T>
    static std::vector<Bytes>
    toByteCounts(const std::vector<int> &counts)
    {
        std::vector<Bytes> out;
        out.reserve(counts.size());
        for (int c : counts)
            out.push_back(static_cast<Bytes>(c) *
                          static_cast<Bytes>(sizeof(T)));
        return out;
    }

    template <typename T>
    static Bytes
    byteSize(const std::vector<T> &v)
    {
        return static_cast<Bytes>(v.size()) *
               static_cast<Bytes>(sizeof(T));
    }

    machine::Machine *mach_;
    int rank_;
    int size_;
    std::shared_ptr<const std::vector<int>> group_; // null = world
    int ctx_id_;
    int coll_seq_ = 0;
};

} // namespace ccsim::mpi

#endif // CCSIM_MPI_COMM_HH
