#include "sim/partition.hh"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/prof.hh"
#include "sim/cancel.hh"
#include "sim/log.hh"

namespace memnet
{

namespace
{

/** Tick addition that saturates at kTickMax instead of wrapping. */
Tick
satAdd(Tick a, Tick b)
{
    return a >= kTickMax - b ? kTickMax : a + b;
}

} // namespace

const char *
partitionSyncName(PartitionSync s)
{
    return s == PartitionSync::Barrier ? "barrier" : "lax";
}

bool
parsePartitionSync(const std::string &name, PartitionSync *out)
{
    if (name == "barrier") {
        *out = PartitionSync::Barrier;
        return true;
    }
    if (name == "lax") {
        *out = PartitionSync::Lax;
        return true;
    }
    return false;
}

MailboxMatrix::MailboxMatrix(int parts)
    : parts_(parts),
      boxes_(static_cast<std::size_t>(parts) * parts)
{
}

void
MailboxMatrix::send(int src, int dst, BoundaryMessage msg)
{
    Box &b = box(src, dst);
    std::lock_guard<std::mutex> lock(b.mu);
    // The ctr makes remote keys unique and deterministic: per-box
    // counters follow the sender's program order, which is fixed by
    // simulated time, and the src-rank bits keep two sources' messages
    // distinct at the same destination.
    msg.key.ctr = EventKey::kRemoteCtrBit |
                  (static_cast<std::uint64_t>(src) << 48) | b.nextCtr++;
    b.msgs.push_back(msg);
}

void
MailboxMatrix::drain(int dst, std::vector<BoundaryMessage> &out)
{
    for (int src = 0; src < parts_; ++src) {
        Box &b = box(src, dst);
        std::lock_guard<std::mutex> lock(b.mu);
        out.insert(out.end(), b.msgs.begin(), b.msgs.end());
        b.msgs.clear();
    }
}

bool
SpinBarrier::wait(std::uint64_t *waitNs)
{
    const std::uint64_t gen =
        generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        parties_) {
        // Reset before the generation bump: waiters only release on the
        // bump (acquire), so the zero is visible before anyone can
        // re-enter for the next generation.
        arrived_.store(0, std::memory_order_relaxed);
        generation_.fetch_add(1, std::memory_order_release);
        return !abort_->load(std::memory_order_relaxed);
    }
    const auto t0 = std::chrono::steady_clock::now();
    bool ok = true;
    std::uint64_t spins = 0;
    while (generation_.load(std::memory_order_acquire) == gen) {
        if (abort_->load(std::memory_order_relaxed)) {
            ok = false;
            break;
        }
        // Spin briefly for the parallel-hardware case, then yield every
        // iteration: once the peers are descheduled (oversubscribed or
        // single-core hosts) further spinning only burns the timeslice
        // the releasing thread needs.
        if (++spins > 256)
            std::this_thread::yield();
    }
    if (waitNs) {
        *waitNs += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
    }
    return ok && !abort_->load(std::memory_order_relaxed);
}

PartitionRunner::PartitionRunner(std::vector<EventQueue *> queues,
                                 std::vector<Tick> lookaheadPs,
                                 ApplyFn apply, PartitionSync sync,
                                 Tick laxWindowPs)
    : queues_(std::move(queues)),
      look_(std::move(lookaheadPs)),
      apply_(std::move(apply)),
      sync_(sync),
      laxWindow_(laxWindowPs),
      mail_(static_cast<int>(queues_.size())),
      barrier_(static_cast<int>(queues_.size()), abort_)
{
    const std::size_t p = queues_.size();
    memnet_assert(p >= 2, "a partitioned run needs >= 2 partitions");
    memnet_assert(look_.size() == p * p,
                  "lookahead matrix must be partitions^2");
    for (std::size_t src = 0; src < p; ++src) {
        for (std::size_t dst = 0; dst < p; ++dst) {
            const Tick l = look_[src * p + dst];
            memnet_assert(src == dst || l > 0,
                          "cross-partition edge ", src, " -> ", dst,
                          " has zero lookahead; conservative sync "
                          "would deadlock");
        }
    }
    if (sync_ == PartitionSync::Lax)
        memnet_assert(laxWindow_ > 0, "lax window must be positive");
    horizons_ =
        std::make_unique<std::atomic<Tick>[]>(p);
    eff_.resize(p);
    scratch_.resize(p);
    errors_.resize(p);
    lane_.resize(p);
}

Tick
PartitionRunner::nextSyncPoint(Tick after, Tick limit, Tick grid) const
{
    if (grid <= 0)
        return limit;
    const Tick next = satAdd(after - after % grid, grid);
    return std::min(next, limit);
}

void
PartitionRunner::drainInbox(int dst, Tick floor)
{
    std::vector<BoundaryMessage> &buf = scratch_[dst];
    mail_.drain(dst, buf);
    for (BoundaryMessage &m : buf) {
        if (m.key.when < floor)
            m.key.when = floor;
        apply_(dst, m);
    }
    buf.clear();
}

void
PartitionRunner::mergedStep(Tick s)
{
    // Fire everything due exactly at the sync point in global compound-
    // key order. Events fired here may schedule further same-tick local
    // events (the rescan picks them up); messages they send are due at
    // least one lookahead later, so the step itself never delivers.
    for (;;) {
        int best = -1;
        EventKey bestKey{};
        for (std::size_t i = 0; i < queues_.size(); ++i) {
            const EventKey k = queues_[i]->frontKey();
            if (k.when > s)
                continue;
            if (best < 0 || k < bestKey) {
                best = static_cast<int>(i);
                bestKey = k;
            }
        }
        if (best < 0)
            break;
        queues_[static_cast<std::size_t>(best)]->fireFront();
    }
    for (EventQueue *q : queues_)
        q->advanceTo(s);
    for (int dst = 0; dst < partitions(); ++dst)
        drainInbox(dst, 0);
}

void
PartitionRunner::coordinate(Tick limit, Tick grid)
{
    // Every worker is parked between the two barriers, so the
    // coordinator owns all queues: apply the previous window's sends
    // first (every one of them is in a mailbox — the entry barrier
    // ordered the windows before this call), making each queue's
    // nextTick() an exact progress bound. Draining from a worker's own
    // loop instead would race a slower peer still mid-window.
    for (int dst = 0; dst < partitions(); ++dst)
        drainInbox(dst, 0);

    const std::size_t p = queues_.size();
    Tick minHead = kTickMax;
    for (EventQueue *q : queues_)
        minHead = std::min(minHead, q->nextTick());

    // Every partition has reached the sync point: execute it (and any
    // further empty grid points) as merged tick-steps.
    while (minHead >= syncPoint_) {
        mergedStep(syncPoint_);
        if (syncPoint_ == limit) {
            done_.store(true, std::memory_order_relaxed);
            return;
        }
        syncPoint_ = nextSyncPoint(syncPoint_, limit, grid);
        minHead = kTickMax;
        for (EventQueue *q : queues_)
            minHead = std::min(minHead, q->nextTick());
    }

    // Earliest-effect bounds, relaxed to a fixed point: eff_[q] lower-
    // bounds the tick of *any* future firing on q — its own queue head,
    // or an event induced by a message chain relayed through other
    // partitions (src fires no earlier than eff_[src], so anything it
    // sends dst lands no earlier than eff_[src] + L). A raw nextTick()
    // is not such a bound: a drained-empty partition reports kTickMax
    // yet wakes as soon as a peer's response reaches it, and a horizon
    // granted from kTickMax would let that peer race past the reply
    // the woken partition is about to send. Edge weights are positive,
    // so P - 1 relaxation sweeps reach the fixed point.
    for (std::size_t q = 0; q < p; ++q)
        eff_[q] = queues_[q]->nextTick();
    for (bool changed = true; changed;) {
        changed = false;
        for (std::size_t src = 0; src < p; ++src) {
            for (std::size_t dst = 0; dst < p; ++dst) {
                if (src == dst)
                    continue;
                const Tick l = lookahead(static_cast<int>(src),
                                         static_cast<int>(dst));
                if (l == kTickMax)
                    continue;
                const Tick via = satAdd(eff_[src], l);
                if (via < eff_[dst]) {
                    eff_[dst] = via;
                    changed = true;
                }
            }
        }
    }

    // Conservative horizons: dst may dispatch strictly before the
    // earliest tick any incoming edge could still deliver at, clamped
    // to the sync point so events *at* it stay with the merged step.
    // The minimum-head partition always gets a horizon past its head
    // (eff_[src] >= minHead and L > 0), so windows make progress.
    for (std::size_t dst = 0; dst < p; ++dst) {
        Tick h = syncPoint_;
        for (std::size_t src = 0; src < p; ++src) {
            if (src == dst)
                continue;
            const Tick l = lookahead(static_cast<int>(src),
                                     static_cast<int>(dst));
            if (l == kTickMax)
                continue;
            h = std::min(h, satAdd(eff_[src], l));
        }
        horizons_[dst].store(h, std::memory_order_relaxed);
    }
}

void
PartitionRunner::runBarrierMode(int rank, Tick limit, Tick grid)
{
    EventQueue &eq = *queues_[static_cast<std::size_t>(rank)];
    PartitionLaneStats &st = lane_[static_cast<std::size_t>(rank)];
    if (rank == 0)
        syncPoint_ = nextSyncPoint(eq.now(), limit, grid);
    for (;;) {
        if (!barrier_.wait(&st.barrierWaitNs))
            return;
        if (rank == 0)
            coordinate(limit, grid);
        if (!barrier_.wait(&st.barrierWaitNs))
            return;
        if (done_.load(std::memory_order_relaxed))
            return;
        eq.runUntilBefore(
            horizons_[static_cast<std::size_t>(rank)].load(
                std::memory_order_relaxed));
        ++st.windows;
    }
}

void
PartitionRunner::runLaxMode(int rank, Tick limit)
{
    EventQueue &eq = *queues_[static_cast<std::size_t>(rank)];
    PartitionLaneStats &st = lane_[static_cast<std::size_t>(rank)];
    // Every rank sees the same window sequence (queues enter a phase
    // at a common now()), so the drains below always cover exactly the
    // completed windows — that, not the bump floor, is what keeps lax
    // runs deterministic from run to run.
    Tick w = eq.now();
    for (;;) {
        // Entry barrier: the previous window is complete on every
        // rank, so all of its sends are in the mailboxes and no rank
        // is producing new ones while the drains run.
        if (!barrier_.wait(&st.barrierWaitNs))
            return;
        // Deliveries the sender outran are bumped to this window's
        // start — the approximation lax mode trades for speed. On the
        // final pass (w == limit) the bump parks them at the limit,
        // still scheduled, so a following phase resumes with nothing
        // lost.
        drainInbox(rank, w);
        if (!barrier_.wait(&st.barrierWaitNs))
            return;
        if (w >= limit)
            return;
        const Tick next = std::min(limit, satAdd(w, laxWindow_));
        if (next == limit)
            eq.runUntil(limit);
        else
            eq.runUntilBefore(next);
        ++st.windows;
        w = next;
    }
}

void
PartitionRunner::workerBody(int rank, Tick limit, Tick grid)
{
    // One scope per lane per phase, covering windows and barrier waits
    // alike (runUntilBefore carries no eq/dispatch scope — per-window
    // clock reads would distort the loop). Lane 0 nests under the
    // caller's sim/measure; the other lanes are thread roots.
    MEMNET_PROF_SCOPE("part/worker");
    try {
        if (sync_ == PartitionSync::Barrier)
            runBarrierMode(rank, limit, grid);
        else
            runLaxMode(rank, limit);
    } catch (...) {
        errors_[static_cast<std::size_t>(rank)] =
            std::current_exception();
        abort_.store(true, std::memory_order_release);
    }
}

void
PartitionRunner::runUntil(Tick limit, Tick epochGridPs)
{
    const int p = partitions();
    abort_.store(false, std::memory_order_relaxed);
    done_.store(false, std::memory_order_relaxed);
    std::fill(errors_.begin(), errors_.end(), nullptr);

    // Workers inherit the calling thread's cooperative stop flag, so a
    // ParallelRunner watchdog cancellation reaches every partition: the
    // first worker to observe it throws CancelledError, flips the abort
    // flag, and the barriers release the rest within one poll interval.
    const std::atomic<bool> *cancel = cancelFlag();

    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(p) - 1);
    for (int r = 1; r < p; ++r) {
        workers.emplace_back([this, r, limit, epochGridPs, cancel] {
            ScopedCancelFlag scoped(cancel);
            workerBody(r, limit, epochGridPs);
        });
    }
    workerBody(0, limit, epochGridPs);
    for (std::thread &t : workers)
        t.join();

    for (std::exception_ptr &e : errors_) {
        if (e)
            std::rethrow_exception(e);
    }
}

} // namespace memnet
