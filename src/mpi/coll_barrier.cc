/**
 * @file
 * Barrier algorithms: linear (fan-in + release), binomial tree,
 * dissemination, and the T3D hardware barrier tree.  Each is a plan of
 * steps that BarrierRounds (collectives.hh) runs on its pooled state;
 * none of them is a coroutine.
 */

#include <utility>

#include "machine/machine.hh"
#include "mpi/collectives.hh"
#include "util/logging.hh"

namespace ccsim::mpi {

using machine::Algo;

BarrierRounds::BarrierRounds(const CollCtx &ctx, Algo algo)
    : mach_(ctx.mach), tp_(ctx.tp), group_(ctx.group.get()),
      costs_(&ctx.mach->config().costsFor(machine::Coll::Barrier)),
      t0_(ctx.mach->sim().now()), rank_(ctx.rank), size_(ctx.size),
      tag_(ctx.tag), context_(ctx.context), algo_(algo)
{
    // One rank only pays the entry cost: a dissemination barrier runs
    // no rounds at p = 1.  The hardware tree spans the whole machine;
    // a sub-communicator falls back to the software barrier.
    if (size_ == 1 ||
        (algo_ == Algo::Hardware && size_ != mach_->size()))
        algo_ = Algo::Dissemination;
    if (algo_ != Algo::Linear && algo_ != Algo::Binomial &&
        algo_ != Algo::Dissemination && algo_ != Algo::Hardware)
        fatal("barrier: unsupported algorithm '%s'",
              machine::algoName(algo_).c_str());

    // Every algorithm starts with the collective entry cost.
    msg::BusyAwaiter entry = ctx.entry();
    if (entry.await_ready())
        run();
    else
        entry.await_suspend(self());
}

void
BarrierRounds::resume(void *self)
{
    static_cast<BarrierRounds *>(self)->run();
}

void
BarrierRounds::run()
{
    try {
        if (!advance())
            return; // parked on a charge, a message or the hardware tree
        if (stats::CollOpMetrics *m = om())
            finishColl(*mach_, global(rank_), *m, t0_);
    } catch (...) {
        exc_ = std::current_exception();
    }
    at_ = At::Done;
    op_ = {};
    if (sim::Continuation k = std::exchange(waiter_, {}))
        k(); // last: the resumed caller may destroy this state
}

bool
BarrierRounds::advance()
{
    for (;;) {
        switch (at_) {
          case At::Next:
            if (algo_ == Algo::Hardware) {
                machine::HardwareBarrier *hw = mach_->hwBarrier();
                if (!hw)
                    fatal("hardware barrier requested on '%s', which "
                          "has none", mach_->config().name.c_str());
                arrival_ = hw->arrive(global(rank_));
                at_ = At::Released;
                if (!arrival_.await_ready()) {
                    arrival_.await_suspend(self());
                    return false;
                }
                break;
            }
            if (!next())
                return true;
            at_ = At::Post;
            if (stage_) {
                if (stats::CollOpMetrics *m = om())
                    m->stages.add();
                msg::BusyAwaiter charge =
                    tp_->busy(CollCtx::stageCost(*costs_, 0));
                if (!charge.await_ready()) {
                    charge.await_suspend(self());
                    return false;
                }
            }
            break;
          case At::Post: {
            const msg::CostOverride ov{costs_->send_overhead_override,
                                       costs_->recv_overhead_override};
            stats::CollOpMetrics *m = om();
            if (to_ != kNoPeer && m)
                m->msgs.add();
            if (to_ != kNoPeer && from_ != kNoPeer)
                op_ = tp_->sendrecv(global(to_), tag_, 0, global(from_),
                                    tag_, context_, nullptr, ov);
            else if (to_ != kNoPeer)
                op_ = tp_->send(global(to_), tag_, context_, 0, nullptr,
                                ov);
            else
                op_ = tp_->recv(from_ == msg::kAnySource ? from_
                                                         : global(from_),
                                tag_, context_, ov);
            at_ = At::Wait;
            if (!op_.await_ready()) {
                op_.await_suspend(self());
                return false;
            }
            break;
          }
          case At::Wait:
            if (std::exception_ptr e = op_.error())
                std::rethrow_exception(e);
            op_ = {};
            at_ = At::Next;
            break;
          case At::Released:
            arrival_.await_resume();
            return true;
          case At::Done:
            return true;
        }
    }
}

bool
BarrierRounds::next()
{
    const int p = size_;
    const int r = rank_;
    to_ = from_ = kNoPeer;
    stage_ = true;
    switch (algo_) {
      case Algo::Linear:
        // Everyone reports to rank 0, which then releases everyone;
        // the release is awaited without a stage charge.
        if (r != 0) {
            if (phase_ == 0) {
                to_ = 0;
            } else if (phase_ == 1) {
                from_ = 0;
                stage_ = false;
            } else {
                return false;
            }
            ++phase_;
            return true;
        }
        if (mask_ == p && phase_ == 0) { // every report is in: release
            phase_ = 1;
            mask_ = 1;
        }
        if (mask_ == p)
            return false;
        if (phase_ == 0)
            from_ = msg::kAnySource;
        else
            to_ = mask_;
        ++mask_;
        return true;

      case Algo::Binomial:
        // Binomial fan-in to rank 0: receive from each child, then
        // report to the parent (the rank without its lowest set bit).
        if (phase_ == 0) {
            while (mask_ < p) {
                const int mask = mask_;
                if (r & mask) {
                    to_ = r - mask;
                    phase_ = 1;
                    mask_ = 1;
                    return true;
                }
                mask_ <<= 1;
                if ((r | mask) < p) {
                    from_ = r | mask;
                    return true;
                }
            }
            phase_ = 1;
            mask_ = 1;
        }
        // Release: a binomial broadcast of a zero-byte token, whose
        // receive pays no stage charge.
        if (phase_ == 1) {
            phase_ = 2;
            while (mask_ < p) {
                if (r & mask_) {
                    from_ = r - mask_;
                    stage_ = false;
                    mask_ >>= 1;
                    return true;
                }
                mask_ <<= 1;
            }
            mask_ >>= 1;
        }
        while (mask_ > 0) {
            const int mask = mask_;
            mask_ >>= 1;
            if (r + mask < p) {
                to_ = r + mask;
                return true;
            }
        }
        return false;

      case Algo::Dissemination:
        // ceil(log2 p) rounds; in round k every rank signals
        // (rank + 2^k) and waits for (rank - 2^k).  What MPICH used.
        if (mask_ >= p)
            return false;
        to_ = (r + mask_) % p;
        from_ = ((r - mask_) % p + p) % p;
        mask_ <<= 1;
        return true;

      default:
        panic("BarrierRounds: no plan for '%s'",
              machine::algoName(algo_).c_str());
    }
}

} // namespace ccsim::mpi
