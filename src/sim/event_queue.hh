/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives the whole system. Components own re-armable
 * Event subclasses (no per-firing allocation on the hot path); ad-hoc
 * one-shot work can be scheduled with a callable via schedule().
 *
 * Events at the same tick fire in scheduling order (FIFO), which keeps
 * runs deterministic for a fixed seed. The FIFO order is realized with a
 * compound key (see EventKey) rather than a single global sequence
 * number so the partitioned kernel (sim/partition.hh) can reproduce the
 * serial firing order across several queues.
 *
 * The queue is an exact calendar queue (Brown, CACM 1988) with two
 * containers:
 *
 *  - a wheel of kBuckets = 2048 time buckets, each kBucketWidth = 2^10
 *    ps (1.024 ns) wide, covering the kHorizon = 2.097 us after now().
 *    Each bucket is an intrusive circular list kept in firing order, and
 *    a 2048-bit occupancy bitmap finds the first non-empty bucket from
 *    now();
 *  - a far set for events past the horizon (management epochs, long
 *    timers): a 4-ary min-heap, indexed through each event so removal
 *    and rekeying stay O(log n) however many timers land there.
 *
 * The front is the lesser of the wheel head and the far-set head.
 * Nothing migrates between the containers as time advances: an event
 * stays where it was inserted until it fires or is descheduled, and the
 * wheel stays exact because every wheel event lies within one horizon
 * of now().
 *
 * Why these sizes: most events are link tx-done/deliver, vault and core
 * events due 1-8 ns ahead, and a busy run fires about four events per
 * simulated ns. A 1 ns bucket holds a few of them, so an insert walks
 * under one list node from the tail on average (4 ns buckets walked
 * about three). The longest ROO sleep threshold is 2048 ns; a 2.097 us
 * horizon keeps every sleep timer, the most rescheduled event in the
 * model, in the wheel, and only epochs and rare long timers reach the
 * far set (about 100 of 2.7 M inserts on the paper's big aware run).
 * The 2048 head pointers are 16 KiB per queue, a quarter of a size that
 * measurably slowed system construction.
 *
 * Both containers order by the compound EventKey and nothing else, so
 * the firing order is the total EventKey order by construction, on
 * serial and partition queues alike. schedule, deschedule, reschedule
 * and pop are O(1) in the wheel apart from the short in-bucket walk,
 * and O(log n) in the far set, which holds a few events.
 */

#ifndef MEMNET_SIM_EVENT_QUEUE_HH
#define MEMNET_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/log.hh"
#include "sim/types.hh"

namespace memnet
{

class EventQueue;

/**
 * Total firing order of an event, portable across queues.
 *
 * Serially, same-tick FIFO order could be kept with one global sequence
 * number; a partitioned run has no global counter, so the order is
 * decomposed into pieces each partition can compute locally:
 *
 *  - when:   the firing tick;
 *  - sched:  the queue's now() at the schedule()/reschedule() call;
 *  - parent: the sched of the event that was firing when this one was
 *            scheduled (kTickInvalid when scheduled outside the
 *            dispatch loop, i.e. during construction);
 *  - ctr:    a per-queue monotone counter breaking remaining ties.
 *
 * On a single queue, lexicographic (when, sched, parent, ctr) order is
 * exactly the legacy (when, seq) FIFO order: sched is monotone
 * non-decreasing in seq (time never goes backwards), events firing at
 * one tick fire in seq order so their scheds — the parents of what they
 * schedule — are also non-decreasing in seq, and ctr is seq itself.
 * Cross-partition messages carry the (sched, parent) their serial
 * counterpart would have had, which is what lets the deterministic
 * partitioned mode replay the serial interleaving (sim/partition.hh);
 * their ctr sorts after all local events (kRemoteCtrBit) — full
 * (when, sched, parent) collisions across a partition boundary are the
 * one place the parallel order may deviate from the serial one, which
 * the differential tests bound.
 */
struct EventKey
{
    Tick when = 0;
    Tick sched = 0;
    Tick parent = kTickInvalid;
    std::uint64_t ctr = 0;

    /** Set on message ctrs so remote ties sort after local events. */
    static constexpr std::uint64_t kRemoteCtrBit = 1ULL << 63;

    bool
    operator<(const EventKey &o) const
    {
        if (when != o.when)
            return when < o.when;
        if (sched != o.sched)
            return sched < o.sched;
        if (parent != o.parent)
            return parent < o.parent;
        return ctr < o.ctr;
    }
};

/**
 * Base class for schedulable events. An Event may be scheduled on at most
 * one queue at a time; descheduling and rescheduling are supported.
 */
class Event
{
  public:
    /**
     * An event still sitting in a queue removes itself on destruction,
     * so tearing down a component mid-run (a Network rebuilt on a live
     * queue, a manager destroyed before its EventQueue) never leaves a
     * dangling pointer in the queue.
     */
    virtual ~Event();

    /** Invoked when simulated time reaches the scheduled tick. */
    virtual void fire() = 0;

    /** @return true while the event sits in a queue. */
    bool scheduled() const { return _scheduled; }

    /** @return the tick this event is (or was last) scheduled for. */
    Tick when() const { return _when; }

  protected:
    /**
     * See OneShotEvent. Queue teardown reads it to tell its own pending
     * one-shots apart from component-owned re-armable events.
     */
    bool _oneShot = false;

  private:
    friend class EventQueue;

    bool _scheduled = false;
    Tick _when = kTickInvalid;
    /** Tick the schedule()/reschedule() call was made at. */
    Tick _schedTick = 0;
    /** _schedTick of the event firing when this one was scheduled. */
    Tick _parentTick = kTickInvalid;
    /** Per-queue tie-break counter (the legacy sequence number). */
    std::uint64_t _seq = 0;
    /** Slot in the owning queue's far-set heap (when _next is null). */
    std::uint32_t _farSlot = 0;
    /** Bucket-list neighbours in the wheel; _next is null in the far set. */
    Event *_prev = nullptr;
    Event *_next = nullptr;
    /** The queue holding this event while scheduled. */
    EventQueue *_queue = nullptr;
};

/** Event wrapping an arbitrary callable; fires once then deletes itself. */
template <typename F>
class OneShotEvent : public Event
{
  public:
    explicit OneShotEvent(F f) : func(std::move(f)) { _oneShot = true; }

    void
    fire() override
    {
        F local(std::move(func));
        delete this;
        local();
    }

  private:
    F func;
};

/** Event calling a member function of its owner; re-armable. */
template <typename T, void (T::*Method)()>
class MemberEvent : public Event
{
  public:
    explicit MemberEvent(T *owner) : obj(owner) {}

    void fire() override { (obj->*Method)(); }

  private:
    T *obj;
};

/**
 * The central time-ordered queue of pending events.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /** log2 of the wheel's bucket width in ticks. */
    static constexpr unsigned kBucketShift = 10;
    /** Wheel bucket width: 1.024 ns. */
    static constexpr Tick kBucketWidth = Tick{1} << kBucketShift;
    /** Buckets in the wheel. */
    static constexpr std::size_t kBuckets = 2048;
    /**
     * Wheel span, 2.097 us. An event goes to the far set when its bucket
     * lies kBuckets or more buckets past now()'s.
     */
    static constexpr Tick kHorizon = kBucketWidth * Tick{kBuckets};

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule an event at an absolute tick (>= now()).
     * @param ev event to arm; must not already be scheduled.
     * @param when absolute firing tick.
     */
    void
    schedule(Event *ev, Tick when)
    {
        memnet_assert(!ev->_scheduled, "event double-scheduled");
        memnet_assert(when >= _now,
                      "event scheduled in the past: ", when, " < ", _now);
        ev->_scheduled = true;
        ev->_queue = this;
        restamp(ev, when);
        add(ev);
    }

    /**
     * Schedule with an explicit firing key instead of the natural local
     * one. Used by the partitioned kernel to apply cross-partition
     * messages with the key their serial counterpart would have carried;
     * never needed on the serial path.
     */
    void
    scheduleWithKey(Event *ev, const EventKey &key)
    {
        memnet_assert(!ev->_scheduled, "event double-scheduled");
        memnet_assert(key.when >= _now, "message applied in the past: ",
                      key.when, " < ", _now);
        ev->_scheduled = true;
        ev->_when = key.when;
        ev->_schedTick = key.sched;
        ev->_parentTick = key.parent;
        ev->_seq = key.ctr;
        ev->_queue = this;
        add(ev);
    }

    /** Schedule a one-shot callable at an absolute tick. */
    template <typename F>
    void
    schedule(Tick when, F &&f)
    {
        schedule(new OneShotEvent<std::decay_t<F>>(std::forward<F>(f)),
                 when);
    }

    /**
     * Remove a scheduled event from the queue. It is unlinked
     * immediately; the event can be destroyed or rescheduled freely
     * afterwards.
     */
    void
    deschedule(Event *ev)
    {
        memnet_assert(ev->_scheduled, "descheduling unscheduled event");
        remove(ev);
        ev->_scheduled = false;
        ++_descheduledTotal;
    }

    /**
     * (Re)schedule, descheduling first if needed. Keeps the legacy FIFO
     * contract: the move consumes a fresh sequence number, exactly as
     * deschedule()+schedule() always did, but counts as one schedule and
     * no deschedule.
     */
    void
    reschedule(Event *ev, Tick when)
    {
        if (!ev->_scheduled) {
            schedule(ev, when);
            return;
        }
        memnet_assert(when >= _now,
                      "event scheduled in the past: ", when, " < ", _now);
        if (!ev->_next && isFar(when)) {
            // Far set to far set: rekey in place, one sift instead of a
            // removal plus an insertion.
            restamp(ev, when);
            ++_scheduledTotal;
            const std::size_t i = ev->_farSlot;
            farSiftUp(i);
            if (ev->_farSlot == i)
                farSiftDown(i);
            return;
        }
        remove(ev);
        restamp(ev, when);
        add(ev);
    }

    /**
     * Run until the queue empties or simulated time would exceed @p limit.
     * Events exactly at @p limit are executed.
     * @return number of events fired.
     */
    std::uint64_t runUntil(Tick limit);

    /**
     * Run events strictly before @p limit (the partitioned kernel's
     * window dispatch: events exactly at a window horizon belong to the
     * next window or to a merged tick-step). Unlike runUntil, now() is
     * left at the last fired event — messages due at or after @p limit
     * may still be applied before time formally advances.
     */
    std::uint64_t runUntilBefore(Tick limit);

    /** Run everything. */
    std::uint64_t run() { return runUntil(kTickMax); }

    /**
     * Fire exactly the front event (merged tick-step dispatch). The
     * caller has already checked the front's key; the same per-dispatch
     * bookkeeping as runUntil applies.
     */
    void fireFront();

    /**
     * The front event's firing key, or a key with when == kTickMax for
     * an empty queue (so min-scans can treat empty as "never").
     */
    EventKey
    frontKey() const
    {
        const Event *ev = front();
        if (!ev)
            return EventKey{kTickMax, 0, kTickInvalid, 0};
        return EventKey{ev->_when, ev->_schedTick, ev->_parentTick,
                        ev->_seq};
    }

    /** Earliest pending tick (kTickMax when empty). */
    Tick
    nextTick() const
    {
        const Event *ev = front();
        return ev ? ev->_when : kTickMax;
    }

    /**
     * Advance now() to @p t without dispatching (must not skip pending
     * events). The partitioned coordinator uses this at sync points so
     * phase-boundary accounting (resetStats, collectEnergy) sees the
     * same now() the serial runUntil(limit) would have left.
     */
    void
    advanceTo(Tick t)
    {
        memnet_assert(t >= _now, "advanceTo went backwards");
        memnet_assert(t <= nextTick(), "advanceTo skipped events");
        _now = t;
    }

    /**
     * The _schedTick of the event currently firing (kTickInvalid outside
     * the dispatch loop). Cross-partition messages capture this as the
     * parent component of their key.
     */
    Tick currentParentSched() const { return _curParentSched; }

    /** Number of scheduled events. */
    std::uint64_t pending() const { return _size; }

    /** Total number of events ever fired. */
    std::uint64_t fired() const { return _fired; }

    /** Total number of schedule() calls ever made (incl. reschedules). */
    std::uint64_t scheduledTotal() const { return _scheduledTotal; }

    /** Total number of deschedule() calls ever made. */
    std::uint64_t descheduledTotal() const { return _descheduledTotal; }

    /** High-water mark of pending() over the queue's lifetime. */
    std::uint64_t peakPending() const { return _peakDepth; }

    /** Buckets in the dispatch-time depth histogram. */
    static constexpr std::size_t kDepthBuckets = 33;

    /**
     * Histogram of queue depth sampled at every dispatch: bucket b counts
     * dispatches that found bit_width(pending) == b, i.e. bucket 1 is a
     * single pending event, bucket 11 is 1024..2047, and the last bucket
     * absorbs anything deeper. All deterministic — no wall clock.
     */
    const std::array<std::uint64_t, kDepthBuckets> &
    depthHistogram() const
    {
        return _depthHist;
    }

    /** Length of one dispatch-rate window in ticks. */
    Tick dispatchWindowPs() const { return _dispatchWindowPs; }

    /**
     * Set the dispatch-rate window length. Only meaningful before the
     * first event fires; @p window must be positive.
     */
    void
    setDispatchWindow(Tick window)
    {
        memnet_assert(window > 0, "dispatch window must be positive");
        _dispatchWindowPs = window;
    }

    /**
     * Events fired per completed sim-time window of dispatchWindowPs()
     * ticks, in order from tick 0. The window containing now() is still
     * open and not included.
     */
    const std::vector<std::uint64_t> &
    dispatchWindows() const
    {
        return _dispatchWindows;
    }

  private:
    static constexpr std::size_t kWords = kBuckets / 64;
    /** Children per far-set heap node: short sift paths. */
    static constexpr std::size_t kFarAry = 4;
    static_assert(kBuckets % 64 == 0 && std::has_single_bit(kBuckets),
                  "the wheel is a power-of-two number of bitmap words");

    /** Absolute bucket number of tick @p t (not yet wrapped). */
    static Tick slotOf(Tick t) { return t >> kBucketShift; }

    static std::size_t
    bucketOf(Tick t)
    {
        return static_cast<std::size_t>(slotOf(t)) & (kBuckets - 1);
    }

    /**
     * Strict firing order: earlier tick first, FIFO within a tick (the
     * compound key reproduces the legacy sequence-number order exactly;
     * see EventKey).
     */
    static bool
    before(const Event *a, const Event *b)
    {
        if (a->_when != b->_when)
            return a->_when < b->_when;
        if (a->_schedTick != b->_schedTick)
            return a->_schedTick < b->_schedTick;
        if (a->_parentTick != b->_parentTick)
            return a->_parentTick < b->_parentTick;
        return a->_seq < b->_seq;
    }

    /** @return true if an event due at @p when belongs in the far set. */
    bool
    isFar(Tick when) const
    {
        return slotOf(when) - slotOf(_now) >= Tick{kBuckets};
    }

    /** Give @p ev the natural local key for firing at @p when. */
    void
    restamp(Event *ev, Tick when)
    {
        ev->_when = when;
        ev->_schedTick = _now;
        ev->_parentTick = _curParentSched;
        ev->_seq = nextSeq++;
    }

    /** Insert a keyed event into the wheel or the far set. */
    void
    add(Event *ev)
    {
        ++_scheduledTotal;
        if (++_size > _peakDepth)
            _peakDepth = _size;
        if (isFar(ev->_when)) {
            ev->_next = nullptr;
            _far.push_back(ev);
            farSiftUp(_far.size() - 1);
            return;
        }
        const std::size_t b = bucketOf(ev->_when);
        Event *head = _bucket[b];
        if (!head) {
            ev->_prev = ev->_next = ev;
            _bucket[b] = ev;
            _occupied[b / 64] |= std::uint64_t{1} << (b % 64);
            return;
        }
        // Walk back from the tail: a new event almost always sorts last.
        Event *at = head->_prev;
        while (before(ev, at)) {
            if (at == head) {
                _bucket[b] = ev; // new head; the tail link is the same
                at = head->_prev;
                break;
            }
            at = at->_prev;
        }
        ev->_prev = at;
        ev->_next = at->_next;
        at->_next->_prev = ev;
        at->_next = ev;
    }

    /** Unlink a scheduled event from whichever container holds it. */
    void
    remove(Event *ev)
    {
        --_size;
        if (!ev->_next) {
            const std::size_t i = ev->_farSlot;
            Event *last = _far.back();
            _far.pop_back();
            if (last == ev)
                return;
            farPlace(last, i);
            if (i > 0 && before(last, _far[(i - 1) / kFarAry]))
                farSiftUp(i);
            else
                farSiftDown(i);
            return;
        }
        const std::size_t b = bucketOf(ev->_when);
        if (ev->_next == ev) {
            _bucket[b] = nullptr;
            _occupied[b / 64] &= ~(std::uint64_t{1} << (b % 64));
            return;
        }
        ev->_prev->_next = ev->_next;
        ev->_next->_prev = ev->_prev;
        if (_bucket[b] == ev)
            _bucket[b] = ev->_next;
    }

    /**
     * Head of the first non-empty bucket at or after now()'s, scanning
     * the occupancy bitmap circularly. Every wheel event lies within one
     * horizon of now(), so the first hit is the earliest wheel slot.
     */
    Event *
    wheelFront() const
    {
        if (_size == _far.size())
            return nullptr;
        const std::size_t start = bucketOf(_now);
        std::size_t w = start / 64;
        std::uint64_t bits =
            _occupied[w] & (~std::uint64_t{0} << (start % 64));
        // kWords + 1 probes: the start word is revisited for its low
        // bits, which hold the slots one lap ahead.
        for (std::size_t i = 0; i <= kWords; ++i) {
            if (bits) {
                const auto bit =
                    static_cast<std::size_t>(std::countr_zero(bits));
                return _bucket[w * 64 + bit];
            }
            w = (w + 1) & (kWords - 1);
            bits = _occupied[w];
        }
        return nullptr;
    }

    /** The earliest pending event, or null when the queue is empty. */
    Event *
    front() const
    {
        Event *w = wheelFront();
        if (_far.empty())
            return w;
        Event *f = _far.front();
        return !w || before(f, w) ? f : w;
    }

    void
    farPlace(Event *ev, std::size_t i)
    {
        _far[i] = ev;
        ev->_farSlot = static_cast<std::uint32_t>(i);
    }

    void
    farSiftUp(std::size_t i)
    {
        Event *ev = _far[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / kFarAry;
            if (!before(ev, _far[parent]))
                break;
            farPlace(_far[parent], i);
            i = parent;
        }
        farPlace(ev, i);
    }

    void
    farSiftDown(std::size_t i)
    {
        Event *ev = _far[i];
        const std::size_t n = _far.size();
        for (;;) {
            const std::size_t first = i * kFarAry + 1;
            if (first >= n)
                break;
            std::size_t child = first;
            const std::size_t last = std::min(first + kFarAry, n);
            for (std::size_t c = first + 1; c < last; ++c) {
                if (before(_far[c], _far[child]))
                    child = c;
            }
            if (!before(_far[child], ev))
                break;
            farPlace(_far[child], i);
            i = child;
        }
        farPlace(ev, i);
    }

    /** Pop @p ev (the front), advance time, and fire it. */
    void dispatch(Event *ev);

    /** Heads of the wheel's bucket lists, indexed by bucketOf(when). */
    std::array<Event *, kBuckets> _bucket{};
    /** Bit b set iff _bucket[b] is non-empty. */
    std::array<std::uint64_t, kWords> _occupied{};
    /** Events past the horizon at insert time: a 4-ary min-heap. */
    std::vector<Event *> _far;
    std::size_t _size = 0;
    Tick _now = 0;
    /** _schedTick of the event being fired (kTickInvalid outside). */
    Tick _curParentSched = kTickInvalid;
    std::uint64_t nextSeq = 0;
    std::uint64_t _fired = 0;
    std::uint64_t _scheduledTotal = 0;
    std::uint64_t _descheduledTotal = 0;
    std::uint64_t _peakDepth = 0;
    std::array<std::uint64_t, kDepthBuckets> _depthHist{};
    Tick _dispatchWindowPs = us(100);
    Tick _windowStart = 0;
    std::uint64_t _windowFired = 0;
    std::vector<std::uint64_t> _dispatchWindows;
};

inline Event::~Event()
{
    if (_scheduled)
        _queue->deschedule(this);
}

} // namespace memnet

#endif // MEMNET_SIM_EVENT_QUEUE_HH
