/**
 * @file
 * Collective-algorithm entry points.
 *
 * Each operation offers several algorithms (selected by Algo); the
 * Comm front-end resolves Algo::Default to the machine's calibrated
 * choice.  All functions are rank-local coroutines: every rank of
 * the communicator calls the same function with matching arguments,
 * exactly like MPI.
 *
 * Payload semantics (all null-safe; null in size-only mode):
 *  - bcast:     root passes the m-byte message, all ranks return it;
 *  - gather:    each rank passes its m-byte block, root returns the
 *               p*m concatenation in rank order, others null;
 *  - scatter:   root passes p*m bytes, every rank returns its block;
 *  - allgather: each passes m bytes, all return the concatenation;
 *  - alltoall:  each passes p*m bytes (block i to rank i), all
 *               return p*m (block i from rank i);
 *  - reduce:    each passes m bytes, root returns the elementwise
 *               fold, others null;
 *  - allreduce: like reduce but everyone returns the fold;
 *  - scan:      inclusive prefix fold in rank order.
 *
 * Every entry point takes the caller's CollCtx by reference, so the
 * context lives once, in the caller's frame, however deep the
 * algorithm nests.  The returned task must therefore be co_awaited
 * while that context is alive, and must never be handed to
 * Simulator::spawn: a root outlives the frame it was built in.
 *
 * The barrier is the exception: it moves no data, so each algorithm
 * is a short list of steps and runs as BarrierRounds, a state machine
 * on one pooled block, with no coroutine at all.
 */

#ifndef CCSIM_MPI_COLLECTIVES_HH
#define CCSIM_MPI_COLLECTIVES_HH

#include <cstdint>
#include <exception>

#include "machine/collective_types.hh"
#include "machine/hw_barrier.hh"
#include "mpi/coll_ctx.hh"
#include "sim/pool.hh"

namespace ccsim::mpi {

/**
 * One rank's barrier, run as steps on a few words of pooled state
 * instead of a coroutine per layer.  Every software algorithm
 * (linear, binomial tree, dissemination) is a sequence of steps: an
 * optional stage charge, then a zero-byte send, receive or sendrecv
 * with communicator peers; the hardware tree is a single arrival.
 * Each step waits on the awaiters a coroutine would co_await
 * (BusyAwaiter, the send/recv OpAwaiter, the hardware Arrival),
 * parking this state's Continuation where a coroutine would park its
 * handle, so the events, their times and their order are those of
 * the coroutine form.
 *
 * The state is a frame-pool block, like a coroutine frame, owned by
 * the CollAwaiter that Comm::barrier returns.  It starts running in
 * the constructor (the entry charge), and when its last step
 * completes it resumes the parked caller inline, as a finished
 * coroutine returns to its caller.  Only the calling Comm must stay
 * alive meanwhile; the CollCtx it was built from need not.
 */
class BarrierRounds
{
  public:
    /** Start the barrier of @p ctx with @p algo (already resolved
     *  from Auto/Default); fatal() on an algorithm barrier lacks. */
    BarrierRounds(const CollCtx &ctx, machine::Algo algo);

    BarrierRounds(const BarrierRounds &) = delete;
    BarrierRounds &operator=(const BarrierRounds &) = delete;

    static void *
    operator new(std::size_t n)
    {
        return sim::framePool().allocate(n);
    }

    static void
    operator delete(void *p, std::size_t n) noexcept
    {
        sim::framePool().release(p, n);
    }

    /** True once the last step has completed (or one failed). */
    bool done() const { return at_ == At::Done; }

    /** Resume @p k inline when the barrier completes. */
    void park(sim::Continuation k) { waiter_ = k; }

    /** The failure that ended the barrier, or null. */
    std::exception_ptr error() const { return exc_; }

  private:
    /** Where run() picks up. */
    enum class At : std::uint8_t {
        Next,     //!< plan the next step
        Post,     //!< stage charged: post the step's send/receive
        Wait,     //!< the step's send/receive has completed
        Released, //!< the hardware tree has released this rank
        Done
    };

    /** "No peer" in a step (distinct from msg::kAnySource). */
    static constexpr int kNoPeer = -2;

    static void resume(void *self);

    /** Continue until parked or finished; then resume the waiter. */
    void run();

    /** Run steps until one parks (false) or the last is done (true). */
    bool advance();

    /** Plan the next step into stage_, to_ and from_ (false: none). */
    bool next();

    int global(int r) const
    {
        return group_ ? (*group_)[static_cast<std::size_t>(r)] : r;
    }

    sim::Continuation self() { return {&BarrierRounds::resume, this}; }

    /** The barrier's metrics group (null: collection off). */
    stats::CollOpMetrics *
    om() const
    {
        stats::MachineMetrics *mm = mach_->metrics();
        return mm ? &mm->coll[static_cast<std::size_t>(machine::Coll::Barrier)]
                  : nullptr;
    }

    sim::Continuation waiter_;
    machine::Machine *mach_;
    msg::Transport *tp_;
    const std::vector<int> *group_; //!< null = world (owned by the Comm)
    const machine::CollCosts *costs_; //!< the machine's barrier costs
    Time t0_;
    msg::OpAwaiter op_;                       //!< the step in flight
    machine::HardwareBarrier::Arrival arrival_; //!< hardware tree only
    std::exception_ptr exc_;
    int rank_;
    int size_;
    int tag_;
    int context_;
    int mask_ = 1; //!< the plan's cursor (a mask, or a peer count)
    int to_ = kNoPeer;
    int from_ = kNoPeer;
    machine::Algo algo_;
    std::uint8_t phase_ = 0; //!< the plan's phase
    bool stage_ = false;     //!< the planned step charges a stage
    At at_ = At::Next;
};

sim::Task<msg::PayloadPtr> bcastImpl(const CollCtx &ctx, machine::Algo algo,
                                     Bytes m, int root,
                                     msg::PayloadPtr data);

sim::Task<msg::PayloadPtr> gatherImpl(const CollCtx &ctx, machine::Algo algo,
                                      Bytes m, int root,
                                      msg::PayloadPtr mine);

sim::Task<msg::PayloadPtr> scatterImpl(const CollCtx &ctx, machine::Algo algo,
                                       Bytes m, int root,
                                       msg::PayloadPtr all);

/** gatherv: rank i contributes counts[i] bytes; root returns the
 *  concatenation in rank order.  @p algo keeps the signature uniform
 *  with gatherImpl, but only Linear is implemented (the era's MPICH
 *  did the same — trees do not compose with ragged counts); anything
 *  else is fatal(). */
sim::Task<msg::PayloadPtr> gathervImpl(const CollCtx &ctx, machine::Algo algo,
                                       const std::vector<Bytes> &counts,
                                       int root, msg::PayloadPtr mine);

/** scatterv: root holds sum(counts) bytes; rank i returns its
 *  counts[i]-byte block.  Linear only, like gathervImpl. */
sim::Task<msg::PayloadPtr> scattervImpl(
    const CollCtx &ctx, machine::Algo algo, const std::vector<Bytes> &counts,
    int root, msg::PayloadPtr all);

sim::Task<msg::PayloadPtr> allgatherImpl(const CollCtx &ctx, machine::Algo algo,
                                         Bytes m, msg::PayloadPtr mine);

sim::Task<msg::PayloadPtr> alltoallImpl(const CollCtx &ctx, machine::Algo algo,
                                        Bytes m, msg::PayloadPtr mine);

sim::Task<msg::PayloadPtr> reduceImpl(const CollCtx &ctx, machine::Algo algo,
                                      Bytes m, int root,
                                      msg::PayloadPtr mine);

sim::Task<msg::PayloadPtr> allreduceImpl(const CollCtx &ctx, machine::Algo algo,
                                         Bytes m, msg::PayloadPtr mine);

/** reduce-scatter: each rank passes p blocks of m bytes; block i of
 *  the elementwise fold lands at rank i. */
sim::Task<msg::PayloadPtr> reduceScatterImpl(const CollCtx &ctx,
                                             machine::Algo algo,
                                             Bytes m,
                                             msg::PayloadPtr mine);

sim::Task<msg::PayloadPtr> scanImpl(const CollCtx &ctx, machine::Algo algo,
                                    Bytes m, msg::PayloadPtr mine);

} // namespace ccsim::mpi

#endif // CCSIM_MPI_COLLECTIVES_HH
