#include "rtl/interp.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace anvil {
namespace rtl {

const char *
sweepModeName(SweepMode mode)
{
    switch (mode) {
      case SweepMode::Full: return "full";
      case SweepMode::Dirty: return "dirty";
    }
    return "?";
}

uint64_t
monotonicNanos()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

const char *
simPhaseName(SimPhase phase)
{
    switch (phase) {
      case SimPhase::Sweep: return "sweep";
      case SimPhase::KernelEval: return "kernel";
      case SimPhase::Commit: return "commit";
    }
    return "?";
}

BitVec
applyUnop(Op op, const BitVec &a)
{
    switch (op) {
      case Op::Not:
        return ~a;
      case Op::RedOr:
        return BitVec(1, a.any() ? 1 : 0);
      case Op::RedAnd:
        return BitVec(1, a == BitVec::ones(a.width()) ? 1 : 0);
      default:
        throw std::logic_error("bad unary op");
    }
}

BitVec
applyBinop(Op op, const BitVec &a, const BitVec &b, int width)
{
    auto ra = a.resize(width);
    auto rb = b.resize(width);
    switch (op) {
      case Op::And: return ra & rb;
      case Op::Or: return ra | rb;
      case Op::Xor: return ra ^ rb;
      case Op::Add: return ra + rb;
      case Op::Sub: return ra - rb;
      case Op::Mul: return ra * rb;
      case Op::Eq: return BitVec(1, a == b ? 1 : 0);
      case Op::Ne: return BitVec(1, a != b ? 1 : 0);
      case Op::Lt: return BitVec(1, a.ult(b) ? 1 : 0);
      case Op::Le: return BitVec(1, a.ule(b) ? 1 : 0);
      case Op::Gt: return BitVec(1, b.ult(a) ? 1 : 0);
      case Op::Ge: return BitVec(1, b.ule(a) ? 1 : 0);
      case Op::Shl: {
        // A shift amount at or beyond the width clears the value;
        // do not feed huge amounts into the word shifter.
        uint64_t sh = rb.toUint64();
        if (sh >= static_cast<uint64_t>(width))
            return BitVec(width);
        return ra << static_cast<int>(sh);
      }
      case Op::Shr: {
        uint64_t sh = rb.toUint64();
        if (sh >= static_cast<uint64_t>(width))
            return BitVec(width);
        return ra >> static_cast<int>(sh);
      }
      default:
        throw std::logic_error("bad binary op");
    }
}

namespace {

/** Mask of the valid bits in the top word of a `width`-bit value. */
uint64_t
topMask(int width)
{
    int r = width & 63;
    return width <= 0 ? 0 : r ? (1ull << r) - 1 : ~0ull;
}

/** Word k of an n-word value; words past its end read as zero. */
uint64_t
wordAt(const uint64_t *w, size_t n, size_t k)
{
    return k < n ? w[k] : 0;
}

/** Bits that differ between two n-word values. */
uint64_t
flips(const uint64_t *a, const uint64_t *b, size_t n)
{
    uint64_t f = 0;
    for (size_t k = 0; k < n; k++)
        f += static_cast<uint64_t>(__builtin_popcountll(a[k] ^ b[k]));
    return f;
}

/** 64 bits of an n-word value starting at bit `bit`, which may be
 *  negative; bits outside the value read as zero. */
uint64_t
bitsAt(const uint64_t *w, size_t n, int64_t bit)
{
    int64_t k = bit >= 0 ? bit / 64 : -((63 - bit) / 64);   // floor
    int sh = static_cast<int>(bit - k * 64);
    auto at = [&](int64_t i) {
        return i >= 0 ? wordAt(w, n, static_cast<size_t>(i)) : 0;
    };
    return sh ? (at(k) >> sh) | (at(k + 1) << (64 - sh)) : at(k);
}

} // namespace

Sim::Sim(std::shared_ptr<const Module> top)
    : Sim(std::move(top), nullptr)
{
}

Sim::Sim(std::shared_ptr<const Module> top,
         std::shared_ptr<const Netlist> netlist)
    : _top(std::move(top)),
      _nl_own(netlist ? nullptr : std::make_shared<Netlist>(*_top)),
      _nl_hold(netlist ? std::move(netlist)
                       : std::shared_ptr<const Netlist>(_nl_own)),
      _nl(*_nl_hold)
{
    size_t nets = _nl.nets().size();
    growRuntimeArrays();
    _reg_next.assign(_frame_words, 0);
    _wire_last.assign(_frame_words, 0);
    for (NetId w : _nl.wireNets())
        _is_wire[static_cast<size_t>(w)] = 1;
    _buckets.resize(_nl.levelCount());
    _level_of.reserve(nets);
    for (const Net &n : _nl.nets())
        _level_of.push_back(n.level);
    _stats.strict_nodes = _nl.order().size();
    _stats.mode = _mode;

    // Enable-net -> update-indices CSR for the clock edge (counting
    // sort, so each enable's updates stay in declaration order and
    // last-wins semantics are preserved).
    const auto &updates = _nl.updates();
    _upd_begin.assign(nets + 1, 0);
    for (const auto &u : updates)
        _upd_begin[static_cast<size_t>(u.enable) + 1]++;
    for (size_t i = 1; i < _upd_begin.size(); i++)
        _upd_begin[i] += _upd_begin[i - 1];
    _upd_list.resize(updates.size());
    {
        std::vector<int32_t> fill(_upd_begin.begin(),
                                  _upd_begin.end() - 1);
        for (size_t u = 0; u < updates.size(); u++)
            _upd_list[static_cast<size_t>(
                fill[static_cast<size_t>(updates[u].enable)]++)] =
                static_cast<int32_t>(u);
    }
    _armed.assign(updates.size(), 0);
    _reg_touched.assign(_nl.regs().size(), 0);
}

Sim::~Sim()
{
    if (_kctx)
        _kernel.abi->destroy(_kctx);
}

void
Sim::setSweepMode(SweepMode mode)
{
    _mode = mode;
    _stats.mode = _mode;
    // Re-sweep the whole table once so the new mode starts from a
    // fully consistent frame regardless of pending dirty state.
    _need_full = true;
    _dirty = true;
}

const SweepStats &
Sim::sweepStats() const
{
    if (_kctx) {
        // The kernel schedules internally (worklists + its own dense
        // fallback); surface its counters alongside the host's.
        AnvilKernelStats ks;
        _kernel.abi->stats(_kctx, &ks);
        _stats.kernel_dense_frames = ks.dense_frames;
        _stats.kernel_fallback_switches = ks.fallback_switches;
    }
    return _stats;
}

void
Sim::setEvalCounting(bool on)
{
    _eval_counting = on;
    if (on && _eval_count.size() < _nl.nets().size())
        _eval_count.resize(_nl.nets().size(), 0);
}

std::vector<uint64_t>
Sim::kernelLevelEvals() const
{
    std::vector<uint64_t> out;
    if (_kctx && _kernel.abi->level_count) {
        out.resize(_kernel.abi->level_count, 0);
        _kernel.abi->level_stats(_kctx, out.data());
    }
    return out;
}

const NetSignal *
Sim::findSignal(const std::string &flat) const
{
    auto it = _nl.signals().find(flat);
    return it == _nl.signals().end() ? nullptr : &it->second;
}

void
Sim::recordChange(NetId id)
{
    size_t i = static_cast<size_t>(id);
    if (_change_mark[i] == _frame_id)
        return;
    _change_mark[i] = _frame_id;
    _frame_changed.push_back(id);
}

/** A source's words moved: queue its cone for the next sweep (the
 *  attached kernel's worklists too). */
void
Sim::seedSource(NetId id)
{
    _seeds.push_back(id);
    _poke_tick++;
    if (_kctx)
        _kernel.abi->poke(_kctx, static_cast<int32_t>(id));
}

/** Write `v`, resized to the source's width, into its frame words;
 *  record and seed it if the value moved. */
void
Sim::pokeSource(NetId id, const BitVec &v)
{
    int width = _nl.net(id).width;
    uint32_t nw = Netlist::wordsFor(width);
    uint64_t *w = words(id), moved = 0;
    for (uint32_t k = 0; k < nw; k++) {
        uint64_t x = v.word(static_cast<int>(k)) &
            (k + 1 == nw ? topMask(width) : ~0ull);
        moved |= x ^ w[k];
        w[k] = x;
    }
    if (!moved)
        return;
    recordChange(id);
    seedSource(id);
    _dirty = true;
}

const char *
kernelMismatch(const AnvilKernel *abi, const Netlist &nl)
{
    if (!abi)
        return "no kernel";
    if (abi->version != ANVIL_KERNEL_VERSION)
        return "kernel version mismatch";
    if (abi->design_hash != designHash(nl) ||
        abi->net_count != nl.nets().size())
        return "kernel design hash mismatch";
    if (abi->state_words != nl.stateWords())
        return "kernel frame layout mismatch";
    return nullptr;
}

bool
Sim::attachKernel(const KernelRef &kernel)
{
    if (kernelMismatch(kernel.abi, _nl))
        return false;
    void *ctx = kernel.abi->create();
    if (!ctx)
        return false;
    // Lend the frame: net 0 sits at word 0, so the context's state
    // block starts at net_ptr(ctx, 0) and has the same layout (a
    // design without nets has no state to lend).  The sources changed
    // since the last sweep are queued in the kernel exactly as they
    // are in _seeds, and _need_full carries over, so the next sweep
    // reports the interpreter's changes, no resync.
    if (!_nl.nets().empty()) {
        uint64_t *block = kernel.abi->net_ptr(ctx, 0);
        std::copy(_frame, _frame + _frame_words, block);
        _frame = block;
        std::vector<uint64_t>().swap(_own);
    }
    for (NetId s : _seeds)
        kernel.abi->poke(ctx, static_cast<int32_t>(s));
    if (_kctx)
        _kernel.abi->destroy(_kctx);
    _kernel = kernel;
    _kctx = ctx;
    _kchanged.assign(_nl.nets().size(), 0);
    return true;
}

/**
 * Sweep by calling into the attached kernel.  The kernel runs the
 * same levelized event-driven schedule (exact per-level worklists,
 * change-cutting, its own dense-fallback hysteresis) over the lent
 * frame; its exact changed-net list feeds the frame bookkeeping.
 */
void
Sim::sweepKernel()
{
    bool full = _need_full || _mode == SweepMode::Full;
    uint64_t n = 0;
    uint64_t ev = full
        ? _kernel.abi->eval_full(_kctx, _kchanged.data(), &n)
        : _kernel.abi->eval(_kctx, _kchanged.data(), &n);
    _frame_evals += ev;
    _seeds.clear();
    _need_full = false;
    for (uint64_t k = 0; k < n; k++)
        recordChange(_kchanged[static_cast<size_t>(k)]);
}

/** Mark the strict consumers of a changed net for re-evaluation. */
void
Sim::pushConsumers(NetId id)
{
    const auto &fb = _nl.fanoutBegin();
    // Nets appended after construction (evalTop) are lazy and have
    // no CSR entry.
    if (static_cast<size_t>(id) + 1 >= fb.size())
        return;
    const auto &fo = _nl.fanout();
    for (int32_t k = fb[static_cast<size_t>(id)];
         k < fb[static_cast<size_t>(id) + 1]; k++) {
        NetId c = fo[static_cast<size_t>(k)];
        size_t ci = static_cast<size_t>(c);
        if (_dirty_mark[ci] == _sweep_id)
            continue;
        _dirty_mark[ci] = _sweep_id;
        _buckets[static_cast<size_t>(_level_of[ci])].push_back(c);
    }
}

void
Sim::setInput(const std::string &name, const BitVec &v)
{
    const NetSignal *sig = findSignal(name);
    if (!sig || sig->kind != NetSignal::Kind::Input)
        throw std::invalid_argument("no such input: " + name);
    pokeSource(sig->net, v);
}

void
Sim::setInput(const std::string &name, uint64_t v)
{
    setInput(name, BitVec(64, v));
}

/** Copy `src` zero-extended or truncated to `width` bits into dst. */
void
Sim::resizeInto(uint64_t *dst, int width, NetId src) const
{
    const uint64_t *s = words(src);
    size_t ns = Netlist::wordsFor(_nl.net(src).width);
    size_t nd = Netlist::wordsFor(width);
    for (size_t k = 0; k < nd; k++)
        dst[k] = wordAt(s, ns, k);
    dst[nd - 1] &= topMask(width);
}

/** Move the wide result in _scratch into the net's words; returns
 *  whether the value changed. */
bool
Sim::storeScratch(NetId id)
{
    uint64_t *w = words(id);
    size_t nw = Netlist::wordsFor(_nl.net(id).width);
    if (std::equal(w, w + nw, _scratch.data()))
        return false;
    std::copy(_scratch.data(), _scratch.data() + nw, w);
    return true;
}

BitVec
Sim::load(NetId id) const
{
    BitVec v(_nl.net(id).width);
    v.setWords(words(id), v.words());
    return v;
}

/**
 * Compute one strict node from its already-computed operands.
 * Returns whether the node's value actually changed — the signal the
 * dirty sweep uses to cut propagation and the changed-net list uses
 * to feed observers.
 */
bool
Sim::computeNet(NetId id)
{
    const Net &n = _nl.net(id);

    // Attribution hook (setEvalCounting).  Nets appended after
    // counting was enabled (evalTop) are skipped.
    if (_eval_counting &&
        static_cast<size_t>(id) < _eval_count.size())
        _eval_count[static_cast<size_t>(id)]++;

    if (!n.fast) {
        if (n.kind == Net::Kind::BadRef)
            throw std::invalid_argument("no such signal: " +
                                        _nl.nameOf(id));
        // Zero-width values are the empty bit string: permanently
        // zero, as in the compiled kernel.
        if (n.width <= 0 || !computeWide(n))
            return false;
        return storeScratch(id);
    }

    // u64 lane: every involved value fits one word, and frame words
    // are normalized, so an operand's word 0 is its whole value.
    auto val = [this](NetId o) { return *words(o); };
    uint64_t *out = words(id);
    uint64_t old = *out;
    uint64_t r = 0;
    switch (n.kind) {
      case Net::Kind::Copy:
        r = val(n.a);
        break;
      case Net::Kind::Unop: {
        uint64_t a = val(n.a);
        switch (n.op) {
          case Op::Not: r = ~a; break;
          case Op::RedOr: r = a != 0; break;
          case Op::RedAnd: r = a == _nl.net(n.a).mask; break;
          default: throw std::logic_error("bad unary op");
        }
        break;
      }
      case Net::Kind::Binop: {
        uint64_t a = val(n.a);
        uint64_t b = val(n.b);
        uint64_t m = n.mask;
        switch (n.op) {
          case Op::And: r = a & b; break;
          case Op::Or: r = a | b; break;
          case Op::Xor: r = a ^ b; break;
          case Op::Add: r = (a & m) + (b & m); break;
          case Op::Sub: r = (a & m) - (b & m); break;
          case Op::Mul: r = (a & m) * (b & m); break;
          case Op::Eq: r = a == b; break;
          case Op::Ne: r = a != b; break;
          case Op::Lt: r = a < b; break;
          case Op::Le: r = a <= b; break;
          case Op::Gt: r = a > b; break;
          case Op::Ge: r = a >= b; break;
          case Op::Shl: {
            uint64_t sh = b & m;
            r = sh >= static_cast<uint64_t>(n.width)
                ? 0 : (a & m) << sh;
            break;
          }
          case Op::Shr: {
            uint64_t sh = b & m;
            r = sh >= static_cast<uint64_t>(n.width)
                ? 0 : (a & m) >> sh;
            break;
          }
          default: throw std::logic_error("bad binary op");
        }
        break;
      }
      case Net::Kind::Mux:
        r = val(n.a) != 0 ? val(n.b) : val(n.c);
        break;
      case Net::Kind::Slice: {
        uint64_t a = val(n.a);
        if (n.lo >= 0)
            r = n.lo >= 64 ? 0 : a >> n.lo;
        else
            // Bits below index 0 read as zero: a left shift.
            r = -n.lo >= 64 ? 0 : a << -n.lo;
        break;
      }
      case Net::Kind::Concat: {
        int sh = 0;
        // cargs are hi-first; assemble from the low end.
        for (auto it = n.cargs.rbegin(); it != n.cargs.rend(); ++it) {
            r |= val(*it) << sh;
            sh += _nl.net(*it).width;
            if (sh >= 64)
                break;
        }
        break;
      }
      case Net::Kind::Rom: {
        uint64_t addr = val(n.a);
        r = addr < n.rom->size() ? (*n.rom)[addr].toUint64() : 0;
        break;
      }
      default:
        return false;   // sources are never in the sweep order
    }
    *out = r & n.mask;
    return *out != old;
}

/**
 * The wide lane: compute a node whose value or operands exceed one
 * word into _scratch (normalized to the node's width).  Moves,
 * selects and bitwise operators work on the frame words directly;
 * the other operators go through BitVec.  Returns false for sources,
 * which are never computed.
 */
bool
Sim::computeWide(const Net &n)
{
    uint64_t *s = _scratch.data();
    size_t nd = Netlist::wordsFor(n.width);
    auto nwords = [this](NetId o) {
        return static_cast<size_t>(Netlist::wordsFor(_nl.net(o).width));
    };
    switch (n.kind) {
      case Net::Kind::Copy:
        resizeInto(s, n.width, n.a);
        return true;
      case Net::Kind::Mux:
        resizeInto(s, n.width, anyBit(n.a) ? n.b : n.c);
        return true;
      case Net::Kind::Slice:
        for (size_t k = 0; k < nd; k++)
            s[k] = bitsAt(words(n.a), nwords(n.a),
                          n.lo + 64 * static_cast<int64_t>(k));
        break;
      case Net::Kind::Concat: {
        std::fill(s, s + nd, 0);
        size_t pos = 0;   // cargs are hi-first; fill from bit 0 up
        for (auto it = n.cargs.rbegin();
             it != n.cargs.rend() && pos < nd * 64; ++it) {
            const uint64_t *p = words(*it);
            for (size_t k = 0; k < nwords(*it); k++) {
                size_t at = pos + 64 * k, wi = at / 64, sh = at % 64;
                if (wi < nd)
                    s[wi] |= p[k] << sh;
                if (sh && wi + 1 < nd)
                    s[wi + 1] |= p[k] >> (64 - sh);
            }
            pos += static_cast<size_t>(std::max(_nl.net(*it).width, 0));
        }
        break;
      }
      case Net::Kind::Rom: {
        uint64_t addr = *words(n.a);
        for (size_t k = 0; k < nd; k++)
            s[k] = addr < n.rom->size()
                ? (*n.rom)[addr].word(static_cast<int>(k)) : 0;
        break;
      }
      case Net::Kind::Binop:
        if (n.op == Op::And || n.op == Op::Or || n.op == Op::Xor) {
            const uint64_t *a = words(n.a), *b = words(n.b);
            for (size_t k = 0; k < nd; k++) {
                uint64_t x = wordAt(a, nwords(n.a), k);
                uint64_t y = wordAt(b, nwords(n.b), k);
                s[k] = n.op == Op::And ? x & y
                    : n.op == Op::Or   ? x | y
                                       : x ^ y;
            }
            break;
        }
        [[fallthrough]];
      case Net::Kind::Unop: {
        BitVec r = n.kind == Net::Kind::Unop
            ? applyUnop(n.op, load(n.a))
            : applyBinop(n.op, load(n.a), load(n.b), n.width);
        for (size_t k = 0; k < nd; k++)
            s[k] = r.word(static_cast<int>(k));
        break;
      }
      default:
        return false;   // sources are never in the sweep order
    }
    s[nd - 1] &= topMask(n.width);
    return true;
}

/**
 * Evaluate a lazy node recursively, reproducing the reference
 * interpreter's order of effects: mux branches short-circuit,
 * unresolved references fault only when reached, and re-entering a
 * named wire raises the combinational-loop error.
 */
void
Sim::evalLazy(NetId id)
{
    size_t i = static_cast<size_t>(id);
    const Net &n = _nl.net(id);
    if (!n.lazy || _lazy_gen[i] == _gen)
        return;
    switch (n.kind) {
      case Net::Kind::Const:
      case Net::Kind::Input:
      case Net::Kind::Reg:
        _lazy_gen[i] = _gen;
        return;
      case Net::Kind::BadRef:
        throw std::invalid_argument("no such signal: " +
                                    _nl.nameOf(id));
      default:
        break;
    }

    // Loop detection guards named wire roots, as in the reference
    // interpreter (cycles can only close through named wires).
    bool guard =
        n.kind == Net::Kind::Copy && !_nl.nameOf(id).empty();
    if (guard) {
        if (_visiting[i])
            throw std::runtime_error("combinational loop through " +
                                     _nl.nameOf(id));
        _visiting[i] = 1;
    }

    if (n.kind == Net::Kind::Mux) {
        evalLazy(n.a);
        NetId src = anyBit(n.a) ? n.b : n.c;
        evalLazy(src);
        resizeInto(_scratch.data(), n.width, src);
        if (storeScratch(id))
            recordChange(id);
    } else {
        Netlist::forEachOperand(n, [this](NetId o) { evalLazy(o); });
        if (computeNet(id))
            recordChange(id);
    }

    if (guard)
        _visiting[i] = 0;
    _lazy_gen[i] = _gen;
}

/** Dense fallback: recompute every strict node in levelized order. */
void
Sim::sweepFull()
{
    const auto &order = _nl.order();
    for (NetId id : order)
        if (computeNet(id))
            recordChange(id);
    _frame_evals += order.size();
    _seeds.clear();
    _need_full = false;
}

/**
 * Event-driven sweep: seed the per-level worklists with the strict
 * consumers of every source that changed since the last sweep, then
 * walk levels bottom-up re-evaluating only marked nodes.  A node
 * whose value is unchanged does not propagate, so the cost is the
 * size of the *changing* cone, not the design.
 */
void
Sim::sweepDirty()
{
    _sweep_id++;
    for (NetId s : _seeds)
        pushConsumers(s);
    _seeds.clear();

    for (size_t l = 0; l < _buckets.size(); l++) {
        auto &bucket = _buckets[l];
        if (bucket.empty())
            continue;
        _frame_evals += bucket.size();
        for (NetId id : bucket)
            if (computeNet(id)) {
                recordChange(id);
                pushConsumers(id);
            }
        bucket.clear();
    }
}

/**
 * Recompute strict combinational values if anything changed.  Strict
 * nodes are acyclic and fully resolved, so this never faults; lazy
 * nodes are evaluated on demand (peek/evalTop touch only the
 * requested cone, matching the reference interpreter's fault
 * behaviour) or in bulk by step().
 */
void
Sim::sweep()
{
    if (!_dirty)
        return;
    _gen++;
    uint64_t t0 = _telemetry ? monotonicNanos() : 0;
    if (_kctx) {
        sweepKernel();
        _stats.kernel_frames++;
        _dirty = false;
        if (_telemetry)
            _telemetry->simPhase(SimPhase::KernelEval, _cycle, t0,
                                 monotonicNanos());
        return;
    }
    if (_mode == SweepMode::Full || _need_full)
        sweepFull();
    else if (_prefer_dense)
        // Adaptive fallback: on frames where most of the design is
        // switching anyway (see rollFrame), worklist bookkeeping
        // costs more than it saves — run the dense path, which
        // produces the same values and the same changed-net feed.
        sweepFull();
    else
        sweepDirty();
    _dirty = false;
    if (_telemetry)
        _telemetry->simPhase(SimPhase::Sweep, _cycle, t0,
                             monotonicNanos());
}

const std::vector<NetId> &
Sim::changedNets()
{
    sweep();
    return _frame_changed;
}

/** Close the per-cycle activity window: stats, then a fresh frame. */
void
Sim::rollFrame()
{
    _stats.cycles++;
    _stats.nodes_evaluated += _frame_evals;
    _stats.peak_nodes = std::max(_stats.peak_nodes, _frame_evals);
    uint64_t changed = _frame_changed.size();
    _stats.nets_changed += changed;
    _stats.peak_changed = std::max(_stats.peak_changed, changed);
    // Hysteresis for the adaptive dense fallback: enter when more
    // than half the strict table changed this frame, leave once the
    // fraction drops below 40%.
    uint64_t strict = _stats.strict_nodes;
    if (strict > 0) {
        if (changed * 2 > strict) {
            if (!_prefer_dense)
                _stats.dense_fallback_switches++;
            _prefer_dense = true;
        } else if (changed * 5 < strict * 2) {
            _prefer_dense = false;
        }
    }
    _frame_evals = 0;
    _frame_changed.clear();
    _frame_id++;
    _poke_at_roll = _poke_tick;
}

BitVec
Sim::peek(const std::string &name)
{
    std::string flat = _nl.resolveName("", name);
    const NetSignal *sig = findSignal(flat);
    if (!sig)
        throw std::invalid_argument("no such signal: " + flat);
    return value(sig->net);
}

void
Sim::step(int n)
{
    const auto &regs = _nl.regs();
    const auto &updates = _nl.updates();
    for (int it = 0; it < n; it++) {
        sweep();
        // The edge evaluates every wire (like the reference
        // interpreter's evalAll), so cyclic or unresolved regions
        // fault here even when unpeeked.
        for (NetId id : _nl.lazyRoots())
            evalLazy(id);

        uint64_t commit_t0 = _telemetry ? monotonicNanos() : 0;

        // Keep the armed-update set fresh from this frame's
        // changed-net delta (a full enable scan only on the first
        // cycle): an enable net that is not in the list kept its
        // value, so its updates kept their armed state.
        if (!_armed_primed) {
            _armed_count = 0;
            for (size_t u = 0; u < updates.size(); u++) {
                _armed[u] = anyBit(updates[u].enable) ? 1 : 0;
                if (_armed[u])
                    _armed_count++;
            }
            _armed_primed = true;
        } else {
            for (NetId id : _frame_changed) {
                size_t i = static_cast<size_t>(id);
                for (int32_t k = _upd_begin[i]; k < _upd_begin[i + 1];
                     k++) {
                    size_t u =
                        static_cast<size_t>(_upd_list[static_cast<
                            size_t>(k)]);
                    uint8_t armed = anyBit(updates[u].enable) ? 1 : 0;
                    if (armed == _armed[u])
                        continue;
                    _armed[u] = armed;
                    if (armed)
                        _armed_count++;
                    else
                        _armed_count--;
                }
            }
        }

        // Toggle accounting against the previous cycle's words,
        // driven by the changed-net list: a wire absent from the
        // list is unchanged and contributes no toggles.
        if (_toggles_primed) {
            for (NetId id : _frame_changed) {
                if (!_is_wire[static_cast<size_t>(id)])
                    continue;
                const uint64_t *cur = words(id);
                uint64_t *last = &_wire_last[_nl.wordOffset(id)];
                size_t nw = Netlist::wordsFor(_nl.net(id).width);
                _total_toggles += flips(cur, last, nw);
                std::copy(cur, cur + nw, last);
            }
        } else {
            // Wires are never appended, so they all sit inside the
            // construction-time frame that _wire_last mirrors.
            std::copy(_frame, _frame + _wire_last.size(),
                      _wire_last.begin());
            _toggles_primed = true;
        }

        // Next-state only where an armed update fires; untouched
        // registers hold their value by construction, so the edge
        // costs O(armed updates), not O(registers).
        if (_armed_count != 0) {
            for (size_t u = 0; u < updates.size(); u++) {
                if (!_armed[u])
                    continue;
                const auto &up = updates[u];
                if (up.reg_index < 0)
                    throw std::invalid_argument(
                        "update of unknown reg: " + up.reg_name);
                size_t ri = static_cast<size_t>(up.reg_index);
                if (!_reg_touched[ri]) {
                    _reg_touched[ri] = 1;
                    _touched_regs.push_back(
                        static_cast<int32_t>(ri));
                }
                resizeInto(&_reg_next[_nl.wordOffset(regs[ri])],
                           _nl.net(regs[ri]).width, up.value);
            }
        }
        for (const auto &p : _nl.prints()) {
            if (anyBit(p.enable)) {
                std::string line = p.text;
                if (p.value != kNoNet)
                    line += " " + load(p.value).toHex();
                _log.push_back(line);
            }
        }

        // The pre-edge frame is complete: fold it into the activity
        // stats and start the next one, so the commits below seed
        // the new frame's changed list.
        rollFrame();

        // Clock edge: commit the touched registers (ascending, the
        // same order the dense scan visited them), count register
        // toggles, and seed the next sweep with those that changed.
        if (!_touched_regs.empty()) {
            std::sort(_touched_regs.begin(), _touched_regs.end());
            for (int32_t r : _touched_regs) {
                size_t i = static_cast<size_t>(r);
                _reg_touched[i] = 0;
                NetId reg = regs[i];
                uint64_t *cur = words(reg);
                const uint64_t *next = &_reg_next[_nl.wordOffset(reg)];
                size_t nw = Netlist::wordsFor(_nl.net(reg).width);
                uint64_t f = flips(cur, next, nw);
                if (f == 0)
                    continue;
                _total_toggles += f;
                std::copy(next, next + nw, cur);
                recordChange(reg);
                seedSource(reg);
            }
            _touched_regs.clear();
        }
        _cycle++;
        _dirty = true;
        if (_telemetry)
            _telemetry->simPhase(SimPhase::Commit, _cycle - 1,
                                 commit_t0, monotonicNanos());
    }
}

int
Sim::stateBits() const
{
    int bits = 0;
    for (NetId r : _nl.regs())
        bits += _nl.net(r).width;
    return bits;
}

std::vector<std::string>
Sim::regNames() const
{
    std::vector<std::string> out;
    for (const auto &[name, sig] : _nl.signals())
        if (sig.kind == NetSignal::Kind::Reg)
            out.push_back(name);
    return out;
}

BitVec
Sim::regValue(const std::string &flat_name) const
{
    const NetSignal *sig = findSignal(flat_name);
    if (!sig || sig->kind != NetSignal::Kind::Reg)
        throw std::invalid_argument("no such register: " + flat_name);
    return load(sig->net);
}

void
Sim::setRegValue(const std::string &flat_name, const BitVec &v)
{
    const NetSignal *sig = findSignal(flat_name);
    if (!sig || sig->kind != NetSignal::Kind::Reg)
        throw std::invalid_argument("no such register: " + flat_name);
    pokeSource(sig->net, v);
}

std::vector<BitVec>
Sim::captureRegs() const
{
    std::vector<BitVec> vals;
    vals.reserve(_nl.regs().size());
    for (NetId r : _nl.regs())
        vals.push_back(load(r));
    return vals;
}

void
Sim::setReg(size_t reg_index, const BitVec &v)
{
    const auto &regs = _nl.regs();
    if (reg_index >= regs.size())
        throw std::invalid_argument("register index out of range");
    pokeSource(regs[reg_index], v);
}

BitVec
Sim::regValue(size_t reg_index) const
{
    const auto &regs = _nl.regs();
    if (reg_index >= regs.size())
        throw std::invalid_argument("register index out of range");
    return load(regs[reg_index]);
}

void
Sim::restoreRegs(const std::vector<BitVec> &vals)
{
    const auto &regs = _nl.regs();
    if (vals.size() != regs.size())
        throw std::invalid_argument("register snapshot size mismatch");
    for (size_t i = 0; i < regs.size(); i++)
        pokeSource(regs[i], vals[i]);
}

BitVec
Sim::value(NetId id)
{
    if (id < 0 || static_cast<size_t>(id) >= _nl.nets().size())
        throw std::invalid_argument("no such net id");
    sweep();
    evalLazy(id);
    return load(id);
}

std::vector<std::string>
Sim::inputNames() const
{
    std::vector<std::string> out;
    for (const auto &[name, sig] : _nl.signals())
        if (sig.kind == NetSignal::Kind::Input)
            out.push_back(name);
    return out;
}

/**
 * Size the per-net arrays and the value frame to the netlist, and
 * give every new net its initial words.  Nets appended by evalTop
 * grow the host frame, or the host tail once a kernel holds the
 * frame (appended nets are lazy: the kernel never reads them).
 */
void
Sim::growRuntimeArrays()
{
    size_t old = _lazy_gen.size(), n = _nl.nets().size();
    if (_frame != _own.data()) {   // lent to a kernel
        _tail.resize(_nl.stateWords() - _frame_words, 0);
    } else {
        _own.resize(_nl.stateWords(), 0);
        _frame = _own.data();
        _frame_words = _own.size();
    }
    for (size_t i = old; i < n; i++) {
        NetId id = static_cast<NetId>(i);
        const BitVec &init = _nl.initValues()[i];
        uint32_t nw = Netlist::wordsFor(_nl.net(id).width);
        uint64_t *w = words(id);
        for (uint32_t k = 0; k < nw; k++)
            w[k] = init.word(static_cast<int>(k));
        if (_scratch.size() < nw)
            _scratch.resize(nw);
    }
    _lazy_gen.resize(n, 0);
    _visiting.resize(n, 0);
    _dirty_mark.resize(n, 0);
    _change_mark.resize(n, 0);
    _is_wire.resize(n, 0);
    // Appended nets are lazy and never drive updates; keep the CSR
    // indexable for changed-net consumers.
    if (!_upd_begin.empty())
        _upd_begin.resize(n + 1, _upd_begin.back());
}

BitVec
Sim::evalTop(const ExprPtr &e)
{
    NetId id;
    auto it = _top_cache.find(e.get());
    if (it != _top_cache.end()) {
        id = it->second;
    } else {
        // Ad-hoc expressions append lazy nodes to the netlist —
        // impossible when the netlist is shared immutably across
        // Sim instances (the farm fan-out).
        if (!_nl_own)
            throw std::logic_error(
                "Sim::evalTop: cannot compile ad-hoc expressions "
                "on a shared immutable netlist");
        id = _nl_own->compile(e, "");
        growRuntimeArrays();
        _top_cache.emplace(e.get(), id);
        _top_exprs.push_back(e);
    }
    return value(id);
}

} // namespace rtl
} // namespace anvil
