/**
 * @file
 * Transport: one node's message-passing endpoint.
 *
 * Implements MPI point-to-point semantics over the simulated
 * network: envelope matching on (source, tag, context) with FIFO
 * non-overtaking per pair, an unexpected-message queue, and two wire
 * protocols:
 *
 *  - eager: the payload is pushed immediately; the receiver copies
 *    it out of system buffers (per-byte copy cost on both sides);
 *  - rendezvous (above the eager threshold): RTS -> CTS handshake,
 *    then the payload lands directly in the user buffer (no receive
 *    copy) — this is why long-message behaviour differs so sharply
 *    from short-message behaviour on the real machines.
 *
 * Three pieces of mid-90s hardware are modelled explicitly because
 * the paper attributes its headline results to them:
 *
 *  - a message COPROCESSOR (Intel Paragon's i860 MP): a fraction of
 *    the injection copy runs off the main processor, shrinking the
 *    per-message gap for pipelined long-message traffic;
 *  - a BLOCK TRANSFER ENGINE (Cray T3D's BLT): transfers at or above
 *    the BLT threshold replace both memory copies with a one-off
 *    descriptor-setup cost and stream at full link rate;
 *  - per-message SOFTWARE overhead (send/receive), the dominant term
 *    in every startup latency the paper measures.
 *
 * All software costs serialize on the owning node's CPU timeline, so
 * a root gathering from 63 children pays 63 receive overheads
 * back-to-back, exactly like the real thing.
 *
 * One eager implementation serves send, isend, recv, irecv and
 * sendrecv.  It runs as a chain of steps on a pooled ReqState: each
 * step is run inline or from the one event a coroutine blocked at
 * that point would have been resumed by, so the events, their times
 * and their order are those of a coroutine per operation, without
 * the frames.  The rendezvous handshake and the lossy-wire protocol
 * stay root coroutines behind the same entry points.
 */

#ifndef CCSIM_MSG_TRANSPORT_HH
#define CCSIM_MSG_TRANSPORT_HH

#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault_injector.hh"
#include "msg/message.hh"
#include "net/network.hh"
#include "sim/pool.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"
#include "sim/trace.hh"
#include "stats/metrics.hh"
#include "util/units.hh"

namespace ccsim::msg {

/** Wildcard tag for receives (matches any tag). */
constexpr int kAnyTag = -1;

/** Software/protocol parameters of a node's messaging system. */
struct TransportParams
{
    /** CPU cost to initiate any send (the o_s of LogP). */
    Time send_overhead = 0;

    /** CPU cost to complete any receive (the o_r of LogP). */
    Time recv_overhead = 0;

    /** Memory-copy bandwidth into/out of system buffers, MB/s. */
    double copy_bandwidth_mbs = 400.0;

    /** Payloads strictly larger than this go rendezvous. */
    Bytes eager_threshold = 4 * KiB;

    /** Extra CPU cost per side for the rendezvous handshake. */
    Time rendezvous_overhead = 0;

    /** Fraction [0,1] of the injection copy offloaded to a message
     *  coprocessor (0 = none, Paragon ~0.9). */
    double coprocessor_overlap = 0.0;

    /** Block-transfer engine present (T3D). */
    bool blt_enabled = false;

    /** Rendezvous payloads at or above this use the BLT. */
    Bytes blt_threshold = 16 * KiB;

    /** BLT descriptor setup cost (sender CPU). */
    Time blt_setup = 0;
};

class Fabric;

/**
 * Per-call software-overhead override.  Vendor MPI implementations
 * sometimes bypass the normal messaging layers inside specific
 * collectives (e.g.\ the Paragon NX scan fast path); a collective
 * passes an override to model that.  Negative fields keep the
 * machine defaults.
 */
struct CostOverride
{
    Time send = -1;
    Time recv = -1;
};

/**
 * Completion state of one point-to-point operation, pooled by the
 * issuing Transport.  The eager protocol runs as callbacks that carry
 * a PoolPtr to this slot from one step to the next, so an operation
 * in flight costs one slot, not a chain of coroutine frames.  The
 * slot is kept within one 128-byte frame-pool block: a barrier rank
 * holds two of them in flight.
 */
struct ReqState
{
    /** Finish the operation and resume its waiter, if any: a caller
     *  blocked in send/recv/sendrecv inline, as a finished coroutine
     *  returns to its caller; one parked by a wait from one event at
     *  now, as a trigger wakes its waiters. */
    void complete(sim::Simulator &sim);

    /** Park @p k until completion, to be resumed from an event (a
     *  wait on a Request, or a sendrecv waiting for its send half).
     *  A request has one waiter at a time, as in MPI. */
    void
    wakeByEvent(sim::Continuation k)
    {
        if (waiter)
            panic("ReqState: a request is already being waited on");
        waiter = k;
        by_event = true;
    }

    /** Receives: the matched message.  Sends: the outgoing envelope
     *  until completion, then empty (the payload moved onto the
     *  wire). */
    Message msg;
    std::exception_ptr exc;
    /** Who complete() resumes: a coroutine or a frame-free state
     *  machine; empty while nobody waits. */
    sim::Continuation waiter;
    /** sendrecv only: the send half, which its caller waits for too. */
    sim::PoolPtr<ReqState> pair;
    Time span_start = 0; //!< when the operation started (trace span)
    Time o_recv = 0;     //!< receive-completion overhead (receives)
    bool fired = false;    //!< the operation has completed (or failed)
    bool by_event = false; //!< waiter is resumed from an event at now
};

/**
 * Handle for a nonblocking send/receive.  The state slot is pooled
 * by the issuing Transport, so a Request must not outlive its
 * Machine.
 */
struct Request
{
    sim::PoolPtr<ReqState> state;

    /** True once the operation has completed (or failed). */
    bool test() const { return state && state->fired; }
};

/**
 * What Transport::busy returns: the CPU timeline has already been
 * advanced when this is built, so awaiting it only lets simulated
 * time catch up.  Ready when the end time is not in the future;
 * otherwise the caller is resumed by one event at the end time.  No
 * coroutine frame is created.
 */
class [[nodiscard]] BusyAwaiter
{
  public:
    BusyAwaiter(sim::Simulator &sim, Time end) : sim_(&sim), end_(end) {}

    bool await_ready() const noexcept { return end_ <= sim_->now(); }

    void
    await_suspend(sim::Continuation k) const
    {
        sim_->resumeAt(end_, k);
    }

    void await_resume() const noexcept {}

  private:
    sim::Simulator *sim_;
    Time end_;
};

/**
 * What Transport::wait returns: parks the caller until the request
 * completes (ready at once if it has), resumed from one event at the
 * completion, then rethrows the operation's failure or hands back its
 * message (an empty Message for sends).  No coroutine frame is
 * created.
 */
class [[nodiscard]] WaitAwaiter
{
  public:
    explicit WaitAwaiter(Request req) : req_(std::move(req)) {}

    bool await_ready() const noexcept { return req_.state->fired; }

    void
    await_suspend(sim::Continuation k)
    {
        req_.state->wakeByEvent(k);
    }

    Message
    await_resume()
    {
        ReqState &st = *req_.state;
        if (st.exc)
            std::rethrow_exception(st.exc);
        return std::move(st.msg);
    }

  private:
    Request req_;
};

/**
 * What the blocking operations return.  The operation is already
 * under way when this is built (it started at the call, as a
 * coroutine started at its co_await); awaiting it blocks until it
 * completes.  A completion resumes the caller directly, with no
 * event, as a finished coroutine returns to its caller.  A sendrecv
 * whose receive finishes before its send then waits for the send as
 * a wait() on it would, resumed from one event.  No coroutine frame
 * is created.
 */
class OpAwaiter
{
  public:
    OpAwaiter() = default;

    explicit OpAwaiter(sim::PoolPtr<ReqState> st) : st_(std::move(st)) {}

    bool
    await_ready() const noexcept
    {
        const ReqState &st = *st_;
        return st.fired && (st.exc || !st.pair || st.pair->fired);
    }

    void
    await_suspend(sim::Continuation k)
    {
        if (!st_->fired)
            st_->waiter = k;
        else
            st_->pair->wakeByEvent(k);
    }

    /** The operation's failure, else its send half's, else null. */
    std::exception_ptr
    error() const
    {
        if (st_->exc)
            return st_->exc;
        return st_->pair ? st_->pair->exc : nullptr;
    }

  protected:
    void
    rethrow() const
    {
        if (std::exception_ptr e = error())
            std::rethrow_exception(e);
    }

    sim::PoolPtr<ReqState> st_;
};

/** Transport::send's awaiter: completes with nothing. */
class [[nodiscard]] SendAwaiter : public OpAwaiter
{
  public:
    using OpAwaiter::OpAwaiter;

    void await_resume() const { rethrow(); }
};

/** Transport::recv's and sendrecv's awaiter: yields the message. */
class [[nodiscard]] RecvAwaiter : public OpAwaiter
{
  public:
    using OpAwaiter::OpAwaiter;

    Message
    await_resume()
    {
        rethrow();
        return std::move(st_->msg);
    }
};

/** One node's messaging endpoint. */
class Transport
{
  public:
    /** @p fi (optional) injects faults: software overheads are
     *  scaled by the node's straggler factor, and when the fault
     *  spec makes message loss possible every wire payload runs the
     *  acknowledged timeout/retransmit protocol (see transmitWire).
     *  @p tm (optional) is the machine-wide transport metrics group;
     *  null means no collection and no overhead. */
    Transport(sim::Simulator &sim, net::Network &net, Fabric &fabric,
              int node, const TransportParams &params,
              sim::Trace *trace = nullptr,
              fault::FaultInjector *fi = nullptr,
              stats::TransportMetrics *tm = nullptr);

    Transport(const Transport &) = delete;
    Transport &operator=(const Transport &) = delete;

    /** This endpoint's node id. */
    int node() const { return node_; }

    const TransportParams &params() const { return params_; }

    /**
     * Blocking send.  Completes when the local resources are free to
     * reuse (eager: after local injection; rendezvous: after the
     * receiver's CTS and the data injection).  Self-sends are
     * buffered locally and never deadlock.  The send starts at the
     * call; co_await the result (at once) to block until it is done.
     */
    SendAwaiter send(int dst, int tag, int context, Bytes bytes,
                     PayloadPtr payload = nullptr, CostOverride ov = {});

    /**
     * Blocking receive matching (@p src | kAnySource,
     * @p tag | kAnyTag, @p context).  co_await the result (at once)
     * for the matched message.
     */
    RecvAwaiter recv(int src, int tag, int context, CostOverride ov = {});

    /** Nonblocking send; pair with wait(). */
    Request isend(int dst, int tag, int context, Bytes bytes,
                  PayloadPtr payload = nullptr, CostOverride ov = {});

    /** Nonblocking receive; pair with wait(). */
    Request irecv(int src, int tag, int context, CostOverride ov = {});

    /**
     * Wait for a request; returns the message for receives (an empty
     * Message for sends) and rethrows any failure.
     */
    WaitAwaiter wait(Request req);

    /**
     * Combined send + receive, both in flight at once (the primitive
     * that keeps pairwise/ring/recursive-doubling exchanges from
     * deadlocking under the rendezvous protocol).
     */
    RecvAwaiter sendrecv(int dst, int send_tag, Bytes bytes, int src,
                         int recv_tag, int context,
                         PayloadPtr payload = nullptr, CostOverride ov = {});

    /**
     * Occupy this node's CPU for @p cost (scaled on a straggler
     * node), serialized after any earlier software activity on the
     * node.  The CPU timeline advances at the call; co_await the
     * result to block until the work is done.  Exposed so collectives
     * can charge reduction arithmetic and per-call entry costs.
     */
    BusyAwaiter busy(Time cost) { return BusyAwaiter(sim_, charge(cost)); }

    /** Messages sent (including self-sends). */
    std::uint64_t sendsStarted() const { return sends_; }

    /** Messages received (matched and completed). */
    std::uint64_t recvsCompleted() const { return recvs_; }

    /** Payload bytes sent. */
    Bytes bytesSent() const { return bytes_sent_; }

    /** Trace sink (may be null / disabled). */
    sim::Trace *trace() const { return trace_; }

  private:
    friend class Fabric;

    /** Rendezvous handshake state, shared sender <-> receiver. */
    struct Handshake
    {
        explicit Handshake(sim::Simulator &s) : cts(s), data(s) {}

        sim::Trigger cts;  // fired at the sender when CTS arrives
        sim::Trigger data; // fired at the receiver at data arrival
        Message msg;       // filled by the sender for the data phase
    };

    using HandshakePtr = sim::PoolPtr<Handshake>;

    /** An RTS awaiting a matching receive. */
    struct Rts
    {
        int src = 0;
        int tag = 0;
        int context = 0;
        Bytes bytes = 0;
        PayloadPtr payload;
        HandshakePtr hs;
        std::uint64_t seq = 0;
    };

    /** A posted receive awaiting a matching arrival. */
    struct PendingRecv
    {
        int src = 0;
        int tag = 0;
        int context = 0;
        sim::PoolPtr<ReqState> st;
    };

    using ReqPtr = sim::PoolPtr<ReqState>;
    /** One step of the eager protocol, run on an operation's state. */
    using Step = void (Transport::*)(ReqPtr);

    bool matches(int want_src, int want_tag, int want_ctx,
                 int src, int tag, int ctx) const;

    /** Eager payload (or self-send) arrival at this node. */
    void deliverEager(Message m);

    /** RTS arrival at this node. */
    void deliverRts(Rts rts);

    /** Advance the CPU timeline by @p cost (scaled on a straggler
     *  node); returns when the charged work ends. */
    Time charge(Time cost);

    /** Run @p step on @p st at @p end: inline when that is now,
     *  else from one event at @p end (the event a co_await on
     *  busy() would schedule). */
    void then(Time end, ReqPtr st, Step step);

    /** Start a send or receive; both throw on bad arguments. */
    ReqPtr startSend(int dst, int tag, int context, Bytes bytes,
                     PayloadPtr payload, CostOverride ov);
    ReqPtr startRecv(int src, int tag, int context, CostOverride ov);

    // The eager protocol's steps.
    void deliverSelf(ReqPtr st); //!< self-send: buffered local copy
    void injectEager(ReqPtr st); //!< push the payload on the wire
    void sendDone(ReqPtr st);
    void copyOut(ReqPtr st);     //!< matched: charge the receive copy
    void recvDone(ReqPtr st);

    /** Sender side of the rendezvous protocol, a root task. */
    sim::Task<void> sendRendezvous(ReqPtr st, Time o_send);

    /** Receiver side of the rendezvous protocol, a root task; with
     *  @p wake set it first waits for one event at now, as a posted
     *  receive woken by the RTS does. */
    sim::Task<void> recvRendezvous(ReqPtr st, Rts rts, bool wake);

    /** Inject one wire message; returns its arrival time at dst. */
    Time injectAt(int dst, Bytes bytes, Time when);

    /** injectAt plus any drawn delay-fault penalty. */
    Time wireArrival(int dst, Bytes bytes, Time when);

    /**
     * Dispatch one wire message (eager payload, RTS, or rendezvous
     * data), transmitted no earlier than @p when; @p deliver is
     * invoked exactly once with the final arrival time and must
     * schedule the actual delivery itself.
     *
     * Without an injector this is injectAt + deliver, unchanged
     * timing, and the continuation is invoked directly — no type
     * erasure, no allocation.  With message loss possible it spawns
     * the reliableDeliver protocol coroutine instead (erasing
     * @p deliver into a sim::DeliverFn); with delay faults only, the
     * penalty is added to the arrival time inline.
     */
    template <typename F>
    void
    transmitWire(int dst, Bytes bytes, Time when, F &&deliver)
    {
        if (lossy_) {
            sim_.spawn(reliableDeliver(
                dst, bytes, when, sim::DeliverFn(std::forward<F>(deliver))));
            return;
        }
        deliver(wireArrival(dst, bytes, when));
    }

    /**
     * The acknowledged wire protocol used when faults can lose
     * messages.  Each attempt occupies the route (a lost worm still
     * held the wires), then either delivers and waits for a zero-byte
     * ack on the reverse route, or — on a black-holed link or a drop
     * draw — retransmits after an exponentially backed-off timeout in
     * simulated time.  Raises fault::FaultError through the
     * simulator's run loop once spec.retry_budget retransmissions
     * have failed.  Control traffic (acks, rendezvous CTS) is modelled
     * as reliable; a real protocol would piggyback sequence numbers,
     * which changes nothing observable at collective granularity.
     */
    sim::Task<void> reliableDeliver(int dst, Bytes bytes, Time when,
                                    sim::DeliverFn deliver);

    /** Record a span if tracing is enabled. */
    void
    traceSpan(sim::SpanKind kind, Time start, Bytes bytes, int peer)
    {
        if (trace_ && trace_->enabled())
            trace_->record(sim::Span{node_, kind, start, sim_.now(),
                                     bytes, peer, {}});
    }

    sim::Simulator &sim_;
    net::Network &net_;
    Fabric &fabric_;
    int node_;
    TransportParams params_;
    sim::Trace *trace_ = nullptr;
    fault::FaultInjector *fi_ = nullptr;
    stats::TransportMetrics *tm_ = nullptr;
    bool lossy_ = false; //!< fi_ present and message loss possible

    Time cpu_free_ = 0;   // node CPU timeline
    Time copro_free_ = 0; // message coprocessor / DMA timeline

    std::uint64_t arrival_seq_ = 0;
    // Match queues are short (a handful of entries, FIFO-scanned) —
    // pooled vectors beat deques here: no chunk-map allocation per
    // endpoint, and erase-from-middle on a few entries is a trivial
    // move.  Posted receives hold slots of this node's pools below,
    // a queued RTS a slot of its sender's, so ~Fabric empties those
    // two queues on every node before any Transport goes.
    std::vector<Message, sim::PoolAlloc<Message>> unexpected_;
    std::vector<Rts, sim::PoolAlloc<Rts>> pending_rts_;
    std::vector<PendingRecv, sim::PoolAlloc<PendingRecv>> pending_recvs_;

    /** Slot pools for the per-operation completion objects. */
    sim::Pool<ReqState> req_pool_;
    sim::Pool<Handshake> hs_pool_;

    std::uint64_t sends_ = 0;
    std::uint64_t recvs_ = 0;
    Bytes bytes_sent_ = 0;

  public:
    /** Completion-slot pool counters (for metrics assembly). */
    sim::PoolCounters
    poolCounters() const
    {
        sim::PoolCounters out = req_pool_.counters();
        const sim::PoolCounters &h = hs_pool_.counters();
        out.reuses += h.reuses;
        out.allocs += h.allocs;
        out.oversize += h.oversize;
        return out;
    }
};

/**
 * Owns the Transport of every node on one machine.  Destroy the
 * Simulator first (Machine does): a program it still holds, blocked in
 * send, recv, sendrecv or wait, owns a pooled slot of one of these
 * Transports.
 */
class Fabric
{
  public:
    /** Build @p n transports sharing one network and parameter set;
     *  @p trace (optional) receives activity spans from every node;
     *  @p fi (optional) threads fault injection into every endpoint;
     *  @p tm (optional) collects transport metrics across all nodes. */
    Fabric(sim::Simulator &sim, net::Network &net, int n,
           const TransportParams &params, sim::Trace *trace = nullptr,
           fault::FaultInjector *fi = nullptr,
           stats::TransportMetrics *tm = nullptr);

    ~Fabric();

    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;

    /** Endpoint of node @p i. */
    Transport &node(int i);

    /** Number of endpoints. */
    int size() const { return n_; }

  private:
    /** Endpoints live in one contiguous slab (placement-new): a
     *  single allocation per machine instead of one per node, and
     *  neighbouring ranks share cache lines during sweeps. */
    Transport *slab_ = nullptr;
    int n_ = 0;
};

} // namespace ccsim::msg

#endif // CCSIM_MSG_TRANSPORT_HH
