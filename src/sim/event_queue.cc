#include "sim/event_queue.hh"

#include <algorithm>
#include <sstream>

#include "obs/prof.hh"
#include "sim/cancel.hh"

namespace memnet
{

namespace
{

/**
 * Build the hang diagnostics and throw. Captures the event-queue
 * health counters at the cancellation point plus, when the host-side
 * profiler is live, the three hottest phases by inclusive time — the
 * failure manifest records all of it for post-mortem triage.
 */
[[noreturn]] void
throwCancelled(const EventQueue &eq)
{
    std::ostringstream os;
    os << "simulation cancelled by watchdog at t=" << eq.now()
       << " ps: fired=" << eq.fired()
       << " pending=" << eq.pending()
       << " peak_depth=" << eq.peakPending()
       << " scheduled=" << eq.scheduledTotal()
       << " descheduled=" << eq.descheduledTotal();
    if (prof::enabled()) {
        std::vector<prof::ProfPhase> phases =
            prof::flatten(prof::snapshot());
        std::sort(phases.begin(), phases.end(),
                  [](const prof::ProfPhase &a, const prof::ProfPhase &b) {
                      return a.ns > b.ns;
                  });
        os << "; top phases:";
        int shown = 0;
        for (const prof::ProfPhase &p : phases) {
            os << ' ' << p.path << '='
               << static_cast<double>(p.ns) / 1e6 << "ms";
            if (++shown == 3)
                break;
        }
    }
    throw CancelledError(os.str());
}

} // namespace

EventQueue::~EventQueue()
{
    // Events deschedule themselves on destruction, so every pointer
    // still queued here is a live event and safe to touch. Unhook them
    // all first (their later destruction must not come back to the dead
    // queue), then reclaim the pending one-shot callables scheduled via
    // schedule(Tick, F), which are the queue's own.
    std::vector<Event *> pendingEvents = _far;
    for (Event *head : _bucket) {
        if (!head)
            continue;
        Event *ev = head;
        do {
            pendingEvents.push_back(ev);
            ev = ev->_next;
        } while (ev != head);
    }
    for (Event *ev : pendingEvents)
        ev->_scheduled = false;
    for (Event *ev : pendingEvents) {
        if (ev->_oneShot)
            delete ev;
    }
}

void
EventQueue::dispatch(Event *ev)
{
    memnet_assert(ev->_when >= _now, "time went backwards");

    // Depth histogram: sample pending() as the dispatch finds it.
    const std::size_t bucket = std::min<std::size_t>(
        std::bit_width(_size), kDepthBuckets - 1);
    ++_depthHist[bucket];

    // Close every dispatch-rate window the queue jumped over. A
    // sparse tail (one event eons ahead) would fill unbounded zero
    // windows, so past a generous cap the window grid realigns to
    // the event instead of recording the gap.
    if (ev->_when - _windowStart >= _dispatchWindowPs) {
        std::uint64_t gap =
            static_cast<std::uint64_t>(ev->_when - _windowStart) /
            static_cast<std::uint64_t>(_dispatchWindowPs);
        if (gap > 1u << 16) {
            _windowStart = ev->_when - ev->_when % _dispatchWindowPs;
            _windowFired = 0;
        } else {
            while (gap--) {
                _dispatchWindows.push_back(_windowFired);
                _windowFired = 0;
                _windowStart += _dispatchWindowPs;
            }
        }
    }
    ++_windowFired;

    // Capture the parent component before fire(), which may reschedule
    // the event and restamp its key.
    const Tick sched = ev->_schedTick;
    remove(ev);
    _now = ev->_when;
    ev->_scheduled = false;
    ++_fired;
    _curParentSched = sched;
    ev->fire();
    _curParentSched = kTickInvalid;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    // One scope per runUntil call, not per event: the per-dispatch cost
    // of two clock reads would distort the very loop being measured.
    MEMNET_PROF_SCOPE("eq/dispatch");
    // Hoisted: a run without an installed stop flag (the overwhelmingly
    // common case) pays one null test per dispatch, nothing more.
    const std::atomic<bool> *cancel = cancelFlag();
    std::uint64_t n = 0;
    // The front is found once per dispatch and handed to dispatch().
    while (Event *ev = front()) {
        if (cancel && (n & kCancelPollMask) == 0 &&
            cancel->load(std::memory_order_relaxed))
            throwCancelled(*this);
        if (ev->_when > limit)
            break;
        dispatch(ev);
        ++n;
    }
    if (_now < limit && limit != kTickMax)
        _now = limit;
    return n;
}

std::uint64_t
EventQueue::runUntilBefore(Tick limit)
{
    // No prof scope here: the partitioned window loop calls this once
    // per window (hundreds of thousands of times per run) and attributes
    // the whole loop from the worker instead. The stop-flag poll at
    // n == 0 guarantees at least one poll per window, so partitioned
    // runs observe a watchdog cancellation within one window.
    const std::atomic<bool> *cancel = cancelFlag();
    std::uint64_t n = 0;
    while (Event *ev = front()) {
        if (cancel && (n & kCancelPollMask) == 0 &&
            cancel->load(std::memory_order_relaxed))
            throwCancelled(*this);
        if (ev->_when >= limit)
            break;
        dispatch(ev);
        ++n;
    }
    return n;
}

void
EventQueue::fireFront()
{
    Event *ev = front();
    memnet_assert(ev, "fireFront on an empty queue");
    dispatch(ev);
}

} // namespace memnet
