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
 */

#ifndef CCSIM_MPI_COLLECTIVES_HH
#define CCSIM_MPI_COLLECTIVES_HH

#include "machine/collective_types.hh"
#include "mpi/coll_ctx.hh"

namespace ccsim::mpi {

sim::Task<void> barrierImpl(const CollCtx &ctx, machine::Algo algo);

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
