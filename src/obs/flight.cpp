#include "obs/flight.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"

namespace anvil {
namespace obs {

FlightRecorder::FlightRecorder(rtl::Sim &sim, Options opts)
    : _sim(sim), _opts(std::move(opts))
{
    if (_opts.pre > kMaxFlightWindow || _opts.post > kMaxFlightWindow)
        throw std::invalid_argument(
            "flight window over " + std::to_string(kMaxFlightWindow) +
            " cycles");
    const rtl::Netlist &nl = _sim.netlist();
    std::vector<std::string> signals = _opts.signals;
    if (signals.empty())
        for (const auto &[name, sig] : nl.signals())
            signals.push_back(name);

    _net_slot.assign(nl.nets().size(), -1);
    _net_mask.assign((nl.nets().size() + 63) / 64, 0);
    for (const auto &name : signals) {
        std::string flat = nl.resolveName("", name);
        auto it = nl.signals().find(flat);
        if (it == nl.signals().end())
            throw std::invalid_argument("no such signal: " + name);
        if (it->second.width < 1)
            continue;   // VCD cannot represent zero-width vars
        Traced t;
        t.name = flat;
        t.id = rtl::VcdWriter::idCode(_traced.size());
        t.net = it->second.net;
        t.width = it->second.width;
        t.words = (t.width + 63) / 64;
        t.is_reg = it->second.kind == rtl::NetSignal::Kind::Reg;
        t.fed = !nl.net(t.net).lazy;
        HotSlot h;
        h.words = t.words;
        h.net = t.net;
        if (t.fed) {
            size_t ni = static_cast<size_t>(t.net);
            h.dup_next = _net_slot[ni];
            _net_slot[ni] = static_cast<int32_t>(_traced.size());
            _net_mask[ni >> 6] |= uint64_t(1) << (ni & 63);
        }
        _hot.push_back(h);
        _traced.push_back(std::move(t));
    }
    for (size_t slot = 0; slot < _traced.size(); slot++)
        if (!_traced[slot].fed)
            _unfed.push_back(slot);

    _last_w0.assign(_traced.size(), 0);
    _last.reserve(_traced.size());
    _base.reserve(_traced.size());
    for (const Traced &t : _traced) {
        _last.emplace_back(t.width);
        _base.emplace_back(t.width);
    }

    // The window spans at most pre + post + 1 cycles and records
    // exist only for cycles with changes, so this capacity guarantees
    // eviction never touches a record inside an open window.
    _ring.resize(static_cast<size_t>(_opts.pre + _opts.post + 2));

    std::vector<rtl::VcdVarDecl> vars;
    vars.reserve(_traced.size());
    for (const Traced &t : _traced)
        vars.push_back({t.name, t.id, t.width, t.is_reg});
    std::ostringstream hdr;
    rtl::writeVcdHeader(hdr, _sim.topName(), vars);
    _header = hdr.str();
}

FlightRecorder::~FlightRecorder() = default;

void
FlightRecorder::addTrigger(const std::string &name, Trigger counter)
{
    TriggerSlot slot;
    slot.name = name;
    slot.fn = std::move(counter);
    // Start from the counter's current value: failures that predate
    // the recorder do not fire it.
    slot.seen = slot.fn ? slot.fn() : 0;
    _triggers.push_back(std::move(slot));
}

void
FlightRecorder::onAttach(ChangeFeed &feed)
{
    // Whole-frame subscription: the recorder filters the raw changed
    // list through _net_slot itself, so the feed never builds a
    // per-cycle subset copy for it.
    feed.subscribeAll(*this);
}

void
FlightRecorder::beginCycle(uint64_t cycle)
{
    if (!_started) {
        _started = true;
        _first_cycle = cycle;
    }
    _last_cycle = cycle;
    _cur = nullptr;
}

/** Fold the oldest record into the base snapshot and retire it. */
void
FlightRecorder::evictOldest()
{
    CycleRec &rec = _ring[_head];
    size_t w = 0;
    for (uint32_t slot : rec.slots) {
        const Traced &t = _traced[slot];
        BitVec &b = _base[slot];
        if (t.width <= 64)
            b.setUint64(rec.words[w]);
        else
            b.setWords(rec.words.data() + w, t.words);
        w += static_cast<size_t>(t.words);
    }
    rec.slots.clear();
    rec.words.clear();
    _head = (_head + 1) % _ring.size();
    _count--;
}

void
FlightRecorder::captureSlot(size_t slot, const BitVec &v)
{
    int words = _hot[slot].words;
    if (words == 1) {
        // Narrow fast path: compare-and-copy through the raw-word
        // shadow, no BitVec call crosses a translation unit.
        uint64_t w = v.toUint64();
        if (w == _last_w0[slot])
            return;
        _last_w0[slot] = w;
        if (!_cur) {
            if (_count == _ring.size())
                evictOldest();
            _cur = &_ring[(_head + _count) % _ring.size()];
            _cur->cycle = _last_cycle;
            _count++;
        }
        _cur->slots.push_back(static_cast<uint32_t>(slot));
        _cur->words.push_back(w);
        _captured_words++;
        return;
    }
    if (v == _last[slot])
        return;
    _last[slot] = v;
    if (!_cur) {
        if (_count == _ring.size())
            evictOldest();
        _cur = &_ring[(_head + _count) % _ring.size()];
        _cur->cycle = _last_cycle;
        _count++;
    }
    _cur->slots.push_back(static_cast<uint32_t>(slot));
    for (int k = 0; k < words; k++)
        _cur->words.push_back(v.word(k));
    _captured_words += static_cast<uint64_t>(words);
}

void
FlightRecorder::endCycle(uint64_t cycle)
{
    // Eviction is purely capacity-driven (captureSlot): any window
    // holds at most pre + post + 1 change records, strictly fewer
    // than the ring's capacity, so the evicted record is always
    // older than every open or future window's start.
    pollTriggers(cycle);
    if (_armed && cycle >= _dump_at)
        flushDump(cycle);
}

void
FlightRecorder::pollTriggers(uint64_t cycle)
{
    for (TriggerSlot &tr : _triggers) {
        if (!tr.fn)
            continue;
        uint64_t n = tr.fn();
        if (n <= tr.seen)
            continue;
        tr.seen = n;
        if (!_armed) {
            _armed = true;
            _armed_trigger = tr.name;
            _armed_cycle = cycle;
            _dump_at = cycle + _opts.post;
        } else {
            // Coalesce into the open window; its end extends so the
            // newest trigger still gets `post` cycles of context.
            _dump_at = std::max(_dump_at, cycle + _opts.post);
        }
    }
}

void
FlightRecorder::applyRec(const CycleRec &rec,
                         std::vector<BitVec> &vals) const
{
    size_t w = 0;
    for (uint32_t slot : rec.slots) {
        const Traced &t = _traced[slot];
        BitVec &b = vals[slot];
        if (t.width <= 64)
            b.setUint64(rec.words[w]);
        else
            b.setWords(rec.words.data() + w, t.words);
        w += static_cast<size_t>(t.words);
    }
}

void
FlightRecorder::flushDump(uint64_t to)
{
    DumpInfo info;
    info.index = static_cast<int>(_dumps.size());
    info.trigger = _armed_trigger;
    info.trigger_cycle = _armed_cycle;
    uint64_t from = _armed_cycle > _opts.pre
        ? _armed_cycle - _opts.pre
        : 0;
    if (from < _first_cycle)
        from = _first_cycle;
    info.from = from;
    info.to = to;

    std::ostringstream os;
    os << _header;

    // Checkpoint at `from`: the base snapshot advanced through every
    // record at or before the window start — exactly the values a
    // VcdWriter primed at `from` would have read.
    std::vector<BitVec> vals = _base;
    size_t i = 0;
    for (; i < _count; i++) {
        const CycleRec &rec = _ring[(_head + i) % _ring.size()];
        if (rec.cycle > from)
            break;
        applyRec(rec, vals);
    }
    os << "#" << from << "\n$dumpvars\n";
    for (size_t slot = 0; slot < _traced.size(); slot++)
        rtl::writeVcdValue(os, _traced[slot].id,
                           _traced[slot].width, vals[slot]);
    os << "$end\n";

    // Per-cycle deltas through the end of the window.  Records hold
    // capture (arrival) order; emission re-sorts each into
    // declaration order, matching the writer — the sort runs only
    // here, on a dump, never on the per-cycle hot path.
    std::vector<std::pair<uint32_t, uint32_t>> order;
    for (; i < _count; i++) {
        const CycleRec &rec = _ring[(_head + i) % _ring.size()];
        if (rec.cycle > to)
            break;
        os << "#" << rec.cycle << "\n";
        order.clear();
        order.reserve(rec.slots.size());
        uint32_t w = 0;
        for (uint32_t slot : rec.slots) {
            order.emplace_back(slot, w);
            w += static_cast<uint32_t>(_traced[slot].words);
        }
        std::sort(order.begin(), order.end());
        for (const auto &[slot, off] : order) {
            const Traced &t = _traced[slot];
            BitVec v(t.width);
            if (t.width <= 64)
                v.setUint64(rec.words[off]);
            else
                v.setWords(rec.words.data() + off, t.words);
            rtl::writeVcdValue(os, t.id, t.width, v);
        }
    }

    if (_sink)
        info.path = _sink(info, os.str());
    _dumps.push_back(std::move(info));
    _armed = false;
}

void
FlightRecorder::onPrime(rtl::Sim &sim, uint64_t cycle)
{
    beginCycle(cycle);
    // Full scan: first sample, skipped cycles, late pokes.  The
    // change-compare against _last keeps the records minimal either
    // way; the base snapshot (zeros before the first sample) covers
    // whatever never changes.
    for (size_t slot = 0; slot < _traced.size(); slot++)
        captureSlot(slot, sim.value(_traced[slot].net));
    endCycle(cycle);
}

void
FlightRecorder::onCycle(rtl::Sim &sim, uint64_t cycle,
                        const std::vector<rtl::NetId> &changed)
{
    beginCycle(cycle);
    // Mirror VcdWriter::onCycle's capture set: the traced subset of
    // the raw frame list (subscribeAll delivers it unfiltered — ids
    // past _net_slot are post-construction nodes, skipped) plus
    // every un-fed (lazy) slot re-read each cycle.  Capture order is
    // arrival order — flushDump re-sorts each record into
    // declaration order — and fed values come straight out of the
    // frame's value table (sample() already swept), so the per-cycle
    // cost is a compare + memcpy per actually-changed traced net.
    for (rtl::NetId id : changed) {
        size_t ni = static_cast<size_t>(id);
        if (ni >= _net_slot.size() ||
            !((_net_mask[ni >> 6] >> (ni & 63)) & 1))
            continue;
        for (int32_t slot = _net_slot[ni]; slot >= 0;
             slot = _hot[static_cast<size_t>(slot)].dup_next)
            captureSlot(static_cast<size_t>(slot),
                        sim.frameValue(
                            _hot[static_cast<size_t>(slot)].net));
    }
    for (size_t slot : _unfed)
        captureSlot(slot, sim.value(_traced[slot].net));
    endCycle(cycle);
}

void
FlightRecorder::onFinish(rtl::Sim &sim)
{
    (void)sim;
    // A window opened near the end of the run flushes with whatever
    // post-context the run had left (trigger on the final cycle).
    if (_armed)
        flushDump(_last_cycle);
}

void
FlightRecorder::exportMetrics(MetricsRegistry &reg) const
{
    reg.counter("flight.dumps") +=
        static_cast<uint64_t>(_dumps.size());
    reg.counter("flight.ring_records") +=
        static_cast<uint64_t>(_count);
    reg.counter("flight.capture_words") += _captured_words;
}

} // namespace obs
} // namespace anvil
