#include "msg/transport.hh"

#include <algorithm>
#include <cmath>
#include <new>

#include "util/logging.hh"

namespace ccsim::msg {

namespace {

/** Fraction of a duration, rounded to the picosecond. */
Time
scaleTime(Time t, double f)
{
    return static_cast<Time>(std::llround(static_cast<double>(t) * f));
}

} // namespace

Transport::Transport(sim::Simulator &sim, net::Network &net, Fabric &fabric,
                     int node, const TransportParams &params,
                     sim::Trace *trace, fault::FaultInjector *fi,
                     stats::TransportMetrics *tm)
    : sim_(sim), net_(net), fabric_(fabric), node_(node),
      params_(params), trace_(trace), fi_(fi), tm_(tm),
      lossy_(fi != nullptr && fi->spec().lossPossible())
{
    if (params_.send_overhead < 0 || params_.recv_overhead < 0 ||
        params_.rendezvous_overhead < 0 || params_.blt_setup < 0)
        fatal("Transport: negative software overhead");
    if (params_.copy_bandwidth_mbs <= 0)
        fatal("Transport: copy bandwidth must be positive, got %g",
              params_.copy_bandwidth_mbs);
    if (params_.eager_threshold < 0 || params_.blt_threshold < 0)
        fatal("Transport: negative protocol threshold");
    if (params_.coprocessor_overlap < 0 || params_.coprocessor_overlap > 1)
        fatal("Transport: coprocessor overlap %g outside [0,1]",
              params_.coprocessor_overlap);
}

Time
Transport::charge(Time cost)
{
    if (cost < 0)
        panic("Transport::busy: negative cost");
    if (fi_)
        cost = fi_->scaleCpu(node_, cost); // straggler injection
    cpu_free_ = std::max(sim_.now(), cpu_free_) + cost;
    return cpu_free_;
}

void
Transport::then(Time end, ReqPtr st, Step step)
{
    if (end <= sim_.now()) {
        (this->*step)(std::move(st));
        return;
    }
    sim_.scheduleAt(end, [this, st = std::move(st), step]() mutable {
        (this->*step)(std::move(st));
    });
}

void
ReqState::complete(sim::Simulator &sim)
{
    fired = true;
    sim::Continuation k = std::exchange(waiter, {});
    if (!k)
        return;
    if (by_event)
        sim.resumeNow(k);
    else if (pair && !pair->fired && !exc)
        pair->wakeByEvent(k);
    else
        k();
}

bool
Transport::matches(int want_src, int want_tag, int want_ctx,
                   int src, int tag, int ctx) const
{
    return want_ctx == ctx &&
           (want_src == kAnySource || want_src == src) &&
           (want_tag == kAnyTag || want_tag == tag);
}

Time
Transport::injectAt(int dst, Bytes bytes, Time when)
{
    return net_.transfer(node_, dst, bytes, when);
}

Time
Transport::wireArrival(int dst, Bytes bytes, Time when)
{
    Time arrival = injectAt(dst, bytes, when);
    if (fi_) {
        Time penalty = fi_->drawDelayPenalty();
        if (penalty > 0) {
            fi_->recordDelay(node_, dst, when, bytes);
            arrival += penalty;
        }
    }
    return arrival;
}

sim::Task<void>
Transport::reliableDeliver(int dst, Bytes bytes, Time when,
                           sim::DeliverFn deliver)
{
    const fault::FaultSpec &spec = fi_->spec();
    const fault::RecoveryPolicy policy = spec.policy;
    // fail_fast stops at the base budget; the recovering policies
    // are granted escalation_budget further rounds before giving up
    // (retry_escalate) or absorbing (degrade).
    const int max_attempts =
        policy == fault::RecoveryPolicy::FailFast
            ? spec.retry_budget
            : spec.retry_budget + spec.escalation_budget;
    Time timeout = spec.retry_timeout;
    for (int attempt = 0;; ++attempt) {
        Time xmit = std::max(when, sim_.now());
        net::LinkId hole =
            fi_->blackholedOnRoute(net_.topology(), node_, dst, xmit);

        // degrade: the first copy probes the direct route; once a
        // black hole has eaten it, retransmissions detour via the
        // cached fallback node (when one exists).
        int via = -1;
        if (hole >= 0 && attempt > 0 &&
            policy == fault::RecoveryPolicy::Degrade)
            via = fi_->fallbackVia(node_, dst, net_);

        bool lost;
        Time arrival;
        if (via >= 0) {
            lost = fi_->drawDrop(); // the detour is still lossy
            arrival = net_.transferVia(node_, via, dst, bytes, xmit);
        } else {
            lost = hole >= 0 || fi_->drawDrop();
            // The worm occupies the route either way; a lost message
            // held the wires up to the failure point.
            arrival = injectAt(dst, bytes, xmit);
        }

        if (!lost) {
            Time penalty = fi_->drawDelayPenalty();
            if (penalty > 0) {
                fi_->recordDelay(node_, dst, xmit, bytes);
                arrival += penalty;
            }
            if (via >= 0)
                fi_->recordReroute(node_, via, dst, xmit, bytes);
            deliver(arrival);
            // Zero-byte ack on the reverse route; the protocol
            // engine is done when it lands.  A detoured delivery
            // acks over the same detour (the direct reverse route
            // would cross the hole's neighbourhood again).
            Time acked =
                via >= 0
                    ? net_.transferVia(dst, via, node_, 0, arrival)
                    : net_.transfer(dst, node_, 0, arrival);
            if (acked > sim_.now())
                co_await sim_.delay(acked - sim_.now());
            co_return;
        }

        fi_->recordDrop(node_, dst, via >= 0 ? -1 : hole, xmit, bytes,
                        attempt);
        if (attempt >= max_attempts) {
            if (policy == fault::RecoveryPolicy::Degrade) {
                // The backstop: degrade never fails a run.  A message
                // that can be neither delivered nor detoured is
                // absorbed — handed over out-of-band after one final
                // escalated timeout, at full price in the report.
                Time done = xmit + timeout;
                fi_->recordAbsorb(node_, dst, hole, xmit, bytes,
                                  attempt + 1, timeout);
                deliver(done);
                if (done > sim_.now())
                    co_await sim_.delay(done - sim_.now());
                co_return;
            }
            fi_->failExhausted(node_, dst, hole, xmit, bytes,
                               attempt + 1);
        }

        // Ack-timeout expiry, then exponential backoff.
        Time resend_at = xmit + timeout;
        if (resend_at > sim_.now())
            co_await sim_.delay(resend_at - sim_.now());
        if (attempt >= spec.retry_budget)
            fi_->recordEscalation(node_, dst, sim_.now(), bytes,
                                  attempt + 1, timeout);
        timeout = scaleTime(timeout, spec.retry_backoff);
        fi_->recordRetransmit(node_, dst, sim_.now(), bytes,
                              attempt + 1);
        when = sim_.now();
    }
}

Transport::ReqPtr
Transport::startSend(int dst, int tag, int context, Bytes bytes,
                     PayloadPtr payload, CostOverride ov)
{
    const Time o_send =
        ov.send >= 0 ? ov.send : params_.send_overhead;
    if (dst < 0 || dst >= fabric_.size())
        panic("Transport::send: destination %d out of range", dst);
    if (bytes < 0)
        panic("Transport::send: negative size");
    if (payload && static_cast<Bytes>(payload->size()) != bytes)
        panic("Transport::send: payload size %zu != declared %lld",
              payload->size(), static_cast<long long>(bytes));

    ReqPtr st = req_pool_.make();
    ++sends_;
    bytes_sent_ += bytes;
    st->span_start = sim_.now();
    st->msg =
        Message{node_, dst, tag, context, bytes, std::move(payload), 0, 0};

    if (tm_)
        tm_->msg_bytes.add(static_cast<double>(bytes));

    if (dst == node_) {
        // Buffered local delivery: full copy on the sending side,
        // nothing touches the network.
        if (tm_)
            tm_->self_sends.add();
        then(charge(o_send + transferTime(bytes, params_.copy_bandwidth_mbs)),
             st, &Transport::deliverSelf);
    } else if (bytes <= params_.eager_threshold) {
        if (tm_)
            tm_->eager_sends.add();
        then(charge(o_send), st, &Transport::injectEager);
    } else {
        if (tm_)
            tm_->rdv_sends.add();
        sim_.spawn(sendRendezvous(st, o_send));
    }
    return st;
}

void
Transport::deliverSelf(ReqPtr st)
{
    Message &m = st->msg;
    m.arrival = sim_.now();
    const Bytes bytes = m.bytes;
    deliverEager(std::move(m));
    st->msg = {};
    traceSpan(sim::SpanKind::Send, st->span_start, bytes, node_);
    st->complete(sim_);
}

void
Transport::injectEager(ReqPtr st)
{
    // The injection copy runs on the coprocessor/DMA timeline; the
    // main CPU is held only for its (1 - overlap) share.
    Message &m = st->msg;
    const int dst = m.dst;
    const Bytes bytes = m.bytes;
    const Time copy = transferTime(bytes, params_.copy_bandwidth_mbs);
    Time copy_start = std::max(sim_.now(), copro_free_);
    Time inject_done = copy_start + copy;
    copro_free_ = inject_done;
    if (tm_)
        tm_->inject_backlog_us.observe(toMicros(inject_done - sim_.now()));
    Transport *peer = &fabric_.node(dst);
    transmitWire(dst, bytes, inject_done,
                 [this, peer, m = std::move(m)](Time arrival) mutable {
                     m.arrival = arrival;
                     sim_.scheduleAt(arrival,
                                     [peer, m = std::move(m)]() mutable {
                                         peer->deliverEager(std::move(m));
                                     });
                 });
    // The moved-from envelope keeps dst and bytes for the trace span.
    then(charge(scaleTime(copy, 1.0 - params_.coprocessor_overlap)),
         std::move(st), &Transport::sendDone);
}

void
Transport::sendDone(ReqPtr st)
{
    traceSpan(sim::SpanKind::Send, st->span_start, st->msg.bytes,
              st->msg.dst);
    st->msg = {};
    st->complete(sim_);
}

sim::Task<void>
Transport::sendRendezvous(ReqPtr st, Time o_send)
{
    // RTS -> CTS -> DATA.
    const int dst = st->msg.dst;
    const Bytes bytes = st->msg.bytes;
    try {
        Transport *peer = &fabric_.node(dst);
        const Time copy = transferTime(bytes, params_.copy_bandwidth_mbs);
        co_await busy(o_send + params_.rendezvous_overhead);
        HandshakePtr hs = hs_pool_.make(sim_);
        Rts rts{node_, st->msg.tag, st->msg.context, bytes,
                st->msg.payload, hs, 0};
        transmitWire(dst, 0, sim_.now(),
                     [this, peer, rts = std::move(rts)](Time arrival) mutable {
                         sim_.scheduleAt(arrival,
                                         [peer, rts = std::move(rts)]() mutable {
                                             peer->deliverRts(std::move(rts));
                                         });
                     });

        co_await hs->cts.wait();

        bool use_blt = params_.blt_enabled && bytes >= params_.blt_threshold;
        auto fire_data = [this, hs](Time arrival) {
            hs->msg.arrival = arrival;
            sim_.scheduleAt(arrival, [hs] { hs->data.fire(); });
        };
        if (use_blt) {
            // Block-transfer engine: descriptor setup instead of a
            // memory copy; the engine streams straight from user
            // memory.
            if (tm_)
                tm_->blt_sends.add();
            co_await busy(params_.blt_setup);
            hs->msg = std::move(st->msg);
            transmitWire(dst, bytes, sim_.now(), fire_data);
        } else {
            Time copy_start = std::max(sim_.now(), copro_free_);
            Time inject_done = copy_start + copy;
            copro_free_ = inject_done;
            if (tm_)
                tm_->inject_backlog_us.observe(
                    toMicros(inject_done - sim_.now()));
            hs->msg = std::move(st->msg);
            transmitWire(dst, bytes, inject_done, fire_data);
            co_await busy(
                scaleTime(copy, 1.0 - params_.coprocessor_overlap));
        }
        traceSpan(sim::SpanKind::Send, st->span_start, bytes, dst);
    } catch (...) {
        st->exc = std::current_exception();
    }
    st->msg = {};
    st->complete(sim_);
}

Transport::ReqPtr
Transport::startRecv(int src, int tag, int context, CostOverride ov)
{
    if (src != kAnySource && (src < 0 || src >= fabric_.size()))
        panic("Transport::recv: source %d out of range", src);
    ReqPtr st = req_pool_.make();
    st->o_recv = ov.recv >= 0 ? ov.recv : params_.recv_overhead;
    st->span_start = sim_.now();

    // Earliest matching arrival across the eager and RTS queues.
    auto eit = unexpected_.end();
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
        if (matches(src, tag, context, it->src, it->tag, it->context)) {
            eit = it;
            break;
        }
    }
    auto rit = pending_rts_.end();
    for (auto it = pending_rts_.begin(); it != pending_rts_.end(); ++it) {
        if (matches(src, tag, context, it->src, it->tag, it->context)) {
            rit = it;
            break;
        }
    }

    bool have_eager = eit != unexpected_.end();
    bool have_rts = rit != pending_rts_.end();
    if (have_eager && have_rts) {
        // Non-overtaking: take whichever arrived first.
        if (eit->seq < rit->seq)
            have_rts = false;
        else
            have_eager = false;
    }

    if (have_eager) {
        st->msg = std::move(*eit);
        unexpected_.erase(eit);
        copyOut(st);
    } else if (have_rts) {
        Rts rts = std::move(*rit);
        pending_rts_.erase(rit);
        sim_.spawn(recvRendezvous(st, std::move(rts), false));
    } else {
        // Nothing has arrived yet: post until a matching delivery.
        pending_recvs_.push_back(PendingRecv{src, tag, context, st});
        if (tm_)
            tm_->pending_recv_hw.observe(
                static_cast<double>(pending_recvs_.size()));
    }
    return st;
}

void
Transport::copyOut(ReqPtr st)
{
    const Time cost =
        st->o_recv + transferTime(st->msg.bytes, params_.copy_bandwidth_mbs);
    then(charge(cost), std::move(st), &Transport::recvDone);
}

void
Transport::recvDone(ReqPtr st)
{
    ++recvs_;
    if (tm_)
        tm_->recvs.add();
    traceSpan(sim::SpanKind::Recv, st->span_start, st->msg.bytes,
              st->msg.src);
    st->complete(sim_);
}

sim::Task<void>
Transport::recvRendezvous(ReqPtr st, Rts rts, bool wake)
{
    try {
        if (wake)
            co_await sim::suspendWith(
                [this](std::coroutine_handle<> h) { sim_.resumeNow(h); });
        // Process the RTS and return the clear-to-send.
        co_await busy(params_.rendezvous_overhead);
        Time cts_arrival = injectAt(rts.src, 0, sim_.now());
        sim_.scheduleAt(cts_arrival, [hs = rts.hs] { hs->cts.fire(); });

        co_await rts.hs->data.wait();
        // Direct deposit into the user buffer: completion cost only.
        co_await busy(st->o_recv);
        ++recvs_;
        if (tm_)
            tm_->recvs.add();
        st->msg = std::move(rts.hs->msg);
        traceSpan(sim::SpanKind::Recv, st->span_start, st->msg.bytes,
                  st->msg.src);
    } catch (...) {
        st->exc = std::current_exception();
    }
    st->complete(sim_);
}

void
Transport::deliverEager(Message m)
{
    m.seq = arrival_seq_++;
    for (auto it = pending_recvs_.begin(); it != pending_recvs_.end();
         ++it) {
        if (matches(it->src, it->tag, it->context, m.src, m.tag,
                    m.context)) {
            ReqPtr st = std::move(it->st);
            pending_recvs_.erase(it);
            st->msg = std::move(m);
            // The posted receive proceeds from one event at now.
            sim_.scheduleNow([this, st = std::move(st)]() mutable {
                copyOut(std::move(st));
            });
            return;
        }
    }
    unexpected_.push_back(std::move(m));
    if (tm_)
        tm_->unexpected_hw.observe(
            static_cast<double>(unexpected_.size()));
}

void
Transport::deliverRts(Rts rts)
{
    rts.seq = arrival_seq_++;
    for (auto it = pending_recvs_.begin(); it != pending_recvs_.end();
         ++it) {
        if (matches(it->src, it->tag, it->context, rts.src, rts.tag,
                    rts.context)) {
            ReqPtr st = std::move(it->st);
            pending_recvs_.erase(it);
            sim_.spawn(recvRendezvous(std::move(st), std::move(rts), true));
            return;
        }
    }
    pending_rts_.push_back(std::move(rts));
    if (tm_)
        tm_->pending_rts_hw.observe(
            static_cast<double>(pending_rts_.size()));
}

SendAwaiter
Transport::send(int dst, int tag, int context, Bytes bytes,
                PayloadPtr payload, CostOverride ov)
{
    return SendAwaiter(
        startSend(dst, tag, context, bytes, std::move(payload), ov));
}

RecvAwaiter
Transport::recv(int src, int tag, int context, CostOverride ov)
{
    return RecvAwaiter(startRecv(src, tag, context, ov));
}

Request
Transport::isend(int dst, int tag, int context, Bytes bytes,
                 PayloadPtr payload, CostOverride ov)
{
    try {
        return Request{
            startSend(dst, tag, context, bytes, std::move(payload), ov)};
    } catch (...) {
        // A bad argument fails the request, not the caller.
        ReqPtr st = req_pool_.make();
        st->exc = std::current_exception();
        st->fired = true;
        return Request{std::move(st)};
    }
}

Request
Transport::irecv(int src, int tag, int context, CostOverride ov)
{
    try {
        return Request{startRecv(src, tag, context, ov)};
    } catch (...) {
        ReqPtr st = req_pool_.make();
        st->exc = std::current_exception();
        st->fired = true;
        return Request{std::move(st)};
    }
}

WaitAwaiter
Transport::wait(Request req)
{
    if (!req.state)
        panic("Transport::wait: empty request");
    return WaitAwaiter(std::move(req));
}

RecvAwaiter
Transport::sendrecv(int dst, int send_tag, Bytes bytes, int src,
                    int recv_tag, int context, PayloadPtr payload,
                    CostOverride ov)
{
    Request sreq = isend(dst, send_tag, context, bytes, std::move(payload),
                         ov);
    ReqPtr st = startRecv(src, recv_tag, context, ov);
    st->pair = std::move(sreq.state);
    return RecvAwaiter(std::move(st));
}

Fabric::Fabric(sim::Simulator &sim, net::Network &net, int n,
               const TransportParams &params, sim::Trace *trace,
               fault::FaultInjector *fi, stats::TransportMetrics *tm)
{
    if (n < 1)
        fatal("Fabric: need at least one node, got %d", n);
    if (n > net.topology().numNodes())
        fatal("Fabric: %d nodes exceed the %d-node topology", n,
              net.topology().numNodes());
    slab_ = static_cast<Transport *>(::operator new(
        sizeof(Transport) * static_cast<std::size_t>(n),
        std::align_val_t{alignof(Transport)}));
    for (int i = 0; i < n; ++i) {
        // Transport's constructor only fatal()s (no throw), so a
        // partial slab never needs unwinding.
        new (slab_ + i)
            Transport(sim, net, *this, i, params, trace, fi, tm);
        n_ = i + 1;
    }
}

Fabric::~Fabric()
{
    // A run that ended early (a fault, a deadlock) can leave an RTS
    // queued at its receiver, pinning a handshake slot of the sender's
    // pool.  Empty every match queue before any pool goes, so each
    // slot returns to a live pool.
    for (int i = 0; i < n_; ++i) {
        slab_[i].pending_rts_.clear();
        slab_[i].pending_recvs_.clear();
    }
    for (int i = n_; i-- > 0;)
        slab_[i].~Transport();
    ::operator delete(slab_, std::align_val_t{alignof(Transport)});
    // The fabric is the last frame-pool user a Machine destroys (its
    // simulator goes first), so the run is over: hand the blocks the
    // pool parked beyond its reserve back to the heap.
    sim::framePool().trim();
}

Transport &
Fabric::node(int i)
{
    if (i < 0 || i >= size())
        panic("Fabric::node: %d out of range [0, %d)", i, size());
    return slab_[i];
}

} // namespace ccsim::msg
