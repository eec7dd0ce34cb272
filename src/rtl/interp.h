/**
 * @file
 * Cycle-accurate simulator for the structural RTL IR, built on a
 * compiled netlist (rtl/netlist.h).
 *
 * The design hierarchy is flattened and compiled once at
 * construction: signal names are interned to dense integer ids,
 * expression DAGs become compact ID-resolved nodes, and combinational
 * logic is levelized.  Each cycle has two phases, mirroring
 * synchronous RTL semantics: a levelized sweep computes combinational
 * nodes (wires are pure functions of registers and top-level inputs),
 * then the clock edge commits all enabled register updates
 * simultaneously.  No name resolution, map lookups, or per-node
 * memoization bookkeeping happen on the hot path; values of 64 bits
 * or fewer are computed in a plain-uint64 fast lane.
 *
 * The sweep is event-driven by default (SweepMode::Dirty): each cycle
 * seeds a per-level worklist with the inputs and registers whose
 * value actually changed, and only the transitive fan-out cone of
 * those sources is re-evaluated, in the same levelized order as the
 * dense sweep — a node whose recomputed value is unchanged cuts
 * propagation to its consumers.  Cost is therefore proportional to
 * switching activity, not design size.  SweepMode::Full preserves the
 * dense whole-table sweep as a fallback; both modes are bit-identical.
 * The simulator is single-threaded: parallelism lives one level up,
 * where the farm (anvil/sim_runner.h) runs one Sim per seed over a
 * shared immutable netlist.
 *
 * The per-cycle list of changed nets is exposed (changedNets), so
 * observers — VCD tracing, coverage toggle sampling, contract
 * monitors — consume change events instead of rescanning the whole
 * net table every cycle.
 *
 * All design state lives in one packed-word value frame laid out by
 * Netlist::wordOffset: the interpreter computes in it, and an attached
 * compiled kernel is lent the same frame, so there is never a second
 * copy of any value to keep in step.
 *
 * The simulator also counts per-signal bit toggles, which the
 * synthesis cost model uses as switching activity for dynamic power.
 * The original recursive interpreter is preserved as rtl::RefSim
 * (rtl/ref_interp.h) and serves as the differential-testing oracle;
 * both produce identical peeks, logs, and toggle counts.
 */

#ifndef ANVIL_RTL_INTERP_H
#define ANVIL_RTL_INTERP_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rtl/kernel_abi.h"
#include "rtl/netlist.h"
#include "rtl/rtl.h"

namespace anvil {
namespace rtl {

/**
 * Monotonic wall clock in nanoseconds — the one time source every
 * telemetry consumer shares (Sim phase timing, observer visit
 * timing, the JIT compile path), so Chrome-trace tracks line up.
 */
uint64_t monotonicNanos();

/** Timed phases of one simulation step, reported to a telemetry sink. */
enum class SimPhase : uint8_t
{
    Sweep,       // interpreter combinational sweep (dense or dirty)
    KernelEval,  // compiled-kernel combinational sweep
    Commit,      // clock edge: toggles, next-state, prints, commit
};

constexpr int kSimPhaseCount = 3;

/** Phase name ("sweep", "kernel", "commit"). */
const char *simPhaseName(SimPhase phase);

/**
 * Per-phase timing sink (see obs::TraceProfiler).  Installed with
 * Sim::setTelemetry; when none is installed the hot path takes no
 * clock reads at all.  Timestamps come from monotonicNanos().
 */
class SimTelemetry
{
  public:
    virtual ~SimTelemetry() = default;
    virtual void simPhase(SimPhase phase, uint64_t cycle,
                          uint64_t begin_ns, uint64_t end_ns) = 0;
};

/**
 * A compiled kernel (kernel_abi.h) plus whatever owns its lifetime —
 * typically the dlopen'd library held by codegen::CompiledKernel.
 * Default-constructed means "no kernel": Sim and the BMC take this by
 * value and simply stay on the interpreter when abi is null.
 */
struct KernelRef
{
    const AnvilKernel *abi = nullptr;
    std::shared_ptr<void> hold;   // keeps the mapped library alive
};

/**
 * The one attach check, shared by Sim::attachKernel and the JIT: why
 * `abi` must not drive `nl` (null kernel, another ANVIL_KERNEL_VERSION,
 * or a design hash, net count or frame size from another netlist), or
 * null when it may.
 */
const char *kernelMismatch(const AnvilKernel *abi, const Netlist &nl);

/** Strategy used to recompute combinational values each cycle. */
enum class SweepMode : uint8_t
{
    Full,      // dense sweep over every strict node
    Dirty,     // event-driven: only the changed fan-out cone
};

/** Human-readable mode name ("full", "dirty"). */
const char *sweepModeName(SweepMode mode);

/**
 * Activity counters for the sweep, accumulated per committed cycle.
 * The activity factor (nodes_evaluated / (cycles * strict_nodes)) is
 * the fraction of the design the dirty sweep actually touches.
 */
struct SweepStats
{
    SweepMode mode = SweepMode::Dirty;
    size_t strict_nodes = 0;      // strict comb nodes in the design
    uint64_t cycles = 0;          // committed cycles observed
    uint64_t nodes_evaluated = 0; // strict node evaluations, total
    uint64_t peak_nodes = 0;      // most evaluations in one cycle
    uint64_t nets_changed = 0;    // changed-net records, total
    uint64_t peak_changed = 0;    // most changed nets in one cycle
    uint64_t kernel_frames = 0;   // sweeps run by a compiled kernel
    /** Times the adaptive fallback switched the dirty sweep onto the
     *  dense path (rollFrame hysteresis entries). */
    uint64_t dense_fallback_switches = 0;
    /** Kernel-internal activity (AnvilKernelStats, refreshed on each
     *  sweepStats() read while a kernel is attached): frames the
     *  kernel ran densely, and its own sparse->dense hysteresis
     *  entries.  Zero on the interpreter backends. */
    uint64_t kernel_dense_frames = 0;
    uint64_t kernel_fallback_switches = 0;

    double avgNodes() const
    {
        return cycles ? static_cast<double>(nodes_evaluated) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
    /** Activity factor: the percentage of the strict table evaluated
     *  per cycle, on average. */
    double activityPct() const
    {
        return strict_nodes ? 100.0 * avgNodes() /
                                  static_cast<double>(strict_nodes)
                            : 0.0;
    }
    double avgChanged() const
    {
        return cycles ? static_cast<double>(nets_changed) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/**
 * Simulator for a flattened module hierarchy.
 *
 * Signal names use the instance path: a wire `w` inside instance `u`
 * of the top module is `u.w`.  Top-level signals are unprefixed.
 * Names are only touched at the API boundary (setInput/peek/...);
 * stepping works purely on interned ids.
 */
class Sim
{
  public:
    explicit Sim(std::shared_ptr<const Module> top);

    /**
     * Share one prebuilt immutable netlist across many Sim
     * instances (the farm fan-out: compile once, simulate N seeds).
     * All runtime state (values, worklists, register frames) is
     * per-instance, so sharing is thread-safe as long as the
     * netlist itself is never mutated — which is why evalTop's
     * ad-hoc compile path throws std::logic_error on a shared-
     * netlist Sim instead of appending nodes.  `netlist` must have
     * been built from `top`.
     */
    Sim(std::shared_ptr<const Module> top,
        std::shared_ptr<const Netlist> netlist);

    ~Sim();
    Sim(Sim &&) = delete;
    Sim &operator=(Sim &&) = delete;

    /** Drive a top-level input for the current cycle onwards. */
    void setInput(const std::string &name, const BitVec &v);
    void setInput(const std::string &name, uint64_t v);

    /**
     * Select the sweep strategy.  Safe at any time; the next sweep
     * re-evaluates the full table once so every mode starts from
     * identical committed state.
     */
    void setSweepMode(SweepMode mode);
    SweepMode sweepMode() const { return _mode; }

    /** Activity counters (see SweepStats).  With a kernel attached,
     *  folds the kernel's own activity export in first. */
    const SweepStats &sweepStats() const;

    /**
     * Toggle per-net evaluation counting (off by default: the hot
     * path then pays one predictable branch).  Counts accumulate in
     * evalCounts() across every interpreter sweep — full, dirty and
     * lazy — and feed the hot-cone attribution report
     * (obs::buildHotReport).  Strict nets run by an attached kernel
     * are not counted here; see kernelLevelEvals().
     */
    void setEvalCounting(bool on);
    bool evalCounting() const { return _eval_counting; }

    /** Cumulative evaluations per net id (empty until counting is
     *  first enabled). */
    const std::vector<uint64_t> &evalCounts() const
    {
        return _eval_count;
    }

    /**
     * Per-level cumulative node evaluations reported by the attached
     * compiled kernel (its level_stats export), indexed by logic level.
     * Empty when no kernel is attached.
     */
    std::vector<uint64_t> kernelLevelEvals() const;

    /**
     * Install (or remove, with nullptr) a per-phase timing sink.
     * The sink must outlive the simulation or be detached first.
     * With no sink installed the step loop reads no clocks.
     */
    void setTelemetry(SimTelemetry *sink) { _telemetry = sink; }

    /**
     * Swap the strict combinational sweep for a compiled kernel
     * (anvilc --emit-cpp + codegen/jit.h), at any cycle boundary.
     * On a kernelMismatch nothing changes and the interpreter keeps
     * running — the kernel is an accelerator, never a correctness
     * dependency.  On success the Sim lends its value frame: the
     * words are copied once into the kernel context's state block,
     * which is the frame from then on (the kernel writes strict nets
     * in place, the Sim sources and lazy nets).  Nothing is resynced,
     * so observers see bit-identical behaviour across the swap.
     */
    bool attachKernel(const KernelRef &kernel);
    bool kernelAttached() const { return _kctx != nullptr; }

    /**
     * Nets whose value may have changed since the previous clock
     * edge, deduplicated (a superset: a net poked back to its old
     * value stays listed).  Sweeps first.  Nets NOT listed are
     * guaranteed unchanged since the last edge, so observers that
     * sample once per cycle — before step(), like VcdWriter and
     * Coverage — can visit only this list instead of every net.
     * Lazy nodes appear only once evaluated; observers of lazy nets
     * must read them directly every cycle (value() preserves the
     * on-demand fault semantics).
     */
    const std::vector<NetId> &changedNets();

    /**
     * Monotonic count of source mutations (setInput, setRegValue,
     * restoreRegs, clock-edge commits) ever recorded.  Strict-net
     * values only move downstream of a source mutation, so an
     * observer that captures this at its sample can verify at the
     * next sample that nothing was poked between its sample and the
     * clock edge (lastEdgePokeTick() equals the captured tick).  If
     * the ticks differ, changes recorded after the sample were
     * flushed with the edge and the per-cycle feed is incomplete for
     * that observer — it must rescan.
     */
    uint64_t pokeTick() const { return _poke_tick; }

    /** pokeTick() as of the most recent clock-edge frame roll. */
    uint64_t lastEdgePokeTick() const { return _poke_at_roll; }

    /** Read any signal (port, wire, or register) by flat name. */
    BitVec peek(const std::string &name);

    /** Evaluate combinational logic and advance n clock edges. */
    void step(int n = 1);

    uint64_t cycle() const { return _cycle; }

    /** Total bit toggles observed across all signals. */
    uint64_t totalToggles() const { return _total_toggles; }

    /** Number of flattened state bits (for the cost model). */
    int stateBits() const;

    /** Captured dprint output. */
    const std::vector<std::string> &log() const { return _log; }

    /** All flattened register names. */
    std::vector<std::string> regNames() const;

    /** Direct register access (used by the BMC substrate). */
    BitVec regValue(const std::string &flat_name) const;
    void setRegValue(const std::string &flat_name, const BitVec &v);

    /**
     * Snapshot every register in netlist().regs() order, and restore
     * such a snapshot.  The string-free state access of the BMC.
     */
    std::vector<BitVec> captureRegs() const;
    void restoreRegs(const std::vector<BitVec> &vals);

    /**
     * Indexed single-register write (netlist().regs() order), with
     * the same change seeding as restoreRegs.  The k-induction
     * prover's cone-restricted restore: touching only the cone's
     * registers keeps per-step cost proportional to the cone, not
     * the design.
     */
    void setReg(size_t reg_index, const BitVec &v);

    /**
     * Committed value of the i-th register (netlist().regs()
     * order).  No sweep: register state only moves on pokes and
     * clock edges, so snapshots taken right after step() need not
     * recompute the combinational frame.
     */
    BitVec regValue(size_t reg_index) const;

    /**
     * Value of an interned node at the current cycle.  Sweeps if
     * needed; lazy cones are evaluated on demand and fault exactly
     * like peek.  The id-addressed access of coverage and VCD tracing.
     */
    BitVec value(NetId id);

    /**
     * Value of a strict (non-lazy) net as the value frame holds it,
     * without the re-sweep or lazy walk of value().  Valid inside a
     * ChangeFeed callback, where sample() has already swept the
     * frame.  The per-cycle observer hot path.
     */
    BitVec frameValue(NetId id) const { return load(id); }

    /** Top-level input port names. */
    std::vector<std::string> inputNames() const;

    /** Evaluate an expression in the top-level scope. */
    BitVec evalTop(const ExprPtr &e);

    /** The compiled netlist (inspection / cost analyses). */
    const Netlist &netlist() const { return _nl; }

    /**
     * The netlist as a shareable handle — hand it to further Sim
     * instances to skip their compile (always non-null; owned
     * privately unless this Sim was itself built on a shared one).
     */
    std::shared_ptr<const Netlist> sharedNetlist() const
    {
        return _nl_hold;
    }

    /** Name of the top module (VCD scope root). */
    const std::string &topName() const { return _top->name; }

  private:
    void sweep();
    void sweepFull();
    void sweepDirty();
    void sweepKernel();
    bool computeNet(NetId id);
    bool computeWide(const Net &n);
    void evalLazy(NetId id);
    const NetSignal *findSignal(const std::string &flat) const;
    void growRuntimeArrays();
    void recordChange(NetId id);
    void seedSource(NetId id);
    void pokeSource(NetId id, const BitVec &v);
    void pushConsumers(NetId id);
    void rollFrame();
    void resizeInto(uint64_t *dst, int width, NetId src) const;
    bool storeScratch(NetId id);
    BitVec load(NetId id) const;

    /** Value words of a net: the frame, or the host-side tail for
     *  nets appended by evalTop after a kernel took the frame. */
    uint64_t *words(NetId id) const
    {
        size_t o = _nl.wordOffset(id);
        return o < _frame_words ? _frame + o
                                : _tail.data() + (o - _frame_words);
    }

    bool anyBit(NetId id) const
    {
        const uint64_t *w = words(id);
        uint32_t n = Netlist::wordsFor(_nl.net(id).width);
        return std::any_of(w, w + n, [](uint64_t x) { return x != 0; });
    }

    std::shared_ptr<const Module> _top;
    /** Owned mutable netlist; null when riding a shared one. */
    std::shared_ptr<Netlist> _nl_own;
    /** Keeps the netlist alive (owned or shared); never null. */
    std::shared_ptr<const Netlist> _nl_hold;
    const Netlist &_nl;
    // The value frame (Netlist::wordOffset layout).  _frame points
    // at _own until a kernel attaches, then at the kernel context's
    // state block; nets appended after that live in _tail.
    uint64_t *_frame = nullptr;
    size_t _frame_words = 0;
    std::vector<uint64_t> _own;
    mutable std::vector<uint64_t> _tail;   // shallow const, as _frame
    std::vector<uint64_t> _scratch;    // one wide result, pre-store
    // Frame-shaped edge buffers: pending next value at each
    // register's offset, previous-cycle value at each wire's.
    std::vector<uint64_t> _reg_next;
    std::vector<uint64_t> _wire_last;
    std::vector<uint8_t> _is_wire;     // toggle-counted net
    std::vector<uint64_t> _lazy_gen;   // per-sweep memo for lazy nodes
    std::vector<uint8_t> _visiting;    // lazy-walk loop detection
    std::vector<ExprPtr> _top_exprs;   // keeps evalTop keys alive
    std::map<const Expr *, NetId> _top_cache;

    // Event-driven sweep state.
    SweepMode _mode = SweepMode::Dirty;
    bool _need_full = true;            // next sweep must be dense
    bool _prefer_dense = false;        // activity too high to cut
    std::vector<int32_t> _level_of;    // flat per-net level cache
    std::vector<NetId> _seeds;         // changed sources, un-swept
    std::vector<std::vector<NetId>> _buckets;   // per-level worklist
    std::vector<uint64_t> _dirty_mark; // per-net, keyed by _sweep_id
    uint64_t _sweep_id = 0;
    std::vector<NetId> _frame_changed; // changed since last edge
    std::vector<uint64_t> _change_mark;// per-net, keyed by _frame_id
    uint64_t _frame_id = 1;
    uint64_t _poke_tick = 0;           // source mutations, ever
    uint64_t _poke_at_roll = 0;        // _poke_tick at last edge
    uint64_t _frame_evals = 0;
    bool _eval_counting = false;
    std::vector<uint64_t> _eval_count;   // per-net evaluations
    mutable SweepStats _stats;   // kernel fields refreshed on read
    SimTelemetry *_telemetry = nullptr;

    // Compiled-kernel backend (attachKernel).
    KernelRef _kernel;
    void *_kctx = nullptr;             // kernel instance
    std::vector<int32_t> _kchanged;    // per-sweep changed-net buffer

    // Clock-edge bookkeeping: which updates are armed (enable != 0),
    // kept fresh from the changed-net delta, and which registers the
    // armed updates wrote this cycle — the edge costs O(activity),
    // not O(registers + updates).
    std::vector<int32_t> _upd_begin;   // enable net -> updates CSR
    std::vector<int32_t> _upd_list;
    std::vector<uint8_t> _armed;
    size_t _armed_count = 0;
    bool _armed_primed = false;
    std::vector<int32_t> _touched_regs;
    std::vector<uint8_t> _reg_touched;

    bool _dirty = true;
    bool _toggles_primed = false;
    uint64_t _gen = 0;
    uint64_t _cycle = 0;
    uint64_t _total_toggles = 0;
    std::vector<std::string> _log;
};

/**
 * Freshness cursor for consumers of Sim::changedNets().
 *
 * The per-cycle feed only covers an observer's window when (a) the
 * observer sampled the immediately preceding cycle and (b) no source
 * was poked between that sample and its clock edge (a late poke's
 * change records are flushed with the edge and never re-listed).
 * This cursor owns that invariant.  Its one live consumer is the
 * obs::ChangeFeed fan-out hub, which checks and syncs it on behalf
 * of every attached observer: call fresh() before taking the fast
 * path, sync() at the end of every sample (after all reads — reads
 * of lazy cones are fine, they never poke).
 */
class ChangeFeedCursor
{
  public:
    bool fresh(const Sim &sim) const
    {
        return _synced && sim.cycle() == _cycle + 1 &&
            sim.lastEdgePokeTick() == _tick;
    }

    void sync(const Sim &sim)
    {
        _synced = true;
        _cycle = sim.cycle();
        _tick = sim.pokeTick();
    }

  private:
    bool _synced = false;
    uint64_t _cycle = 0;
    uint64_t _tick = 0;
};

/** Apply a binary operator to two values (shared with the BMC). */
BitVec applyBinop(Op op, const BitVec &a, const BitVec &b, int width);

/** Apply a unary operator (shared with the BMC). */
BitVec applyUnop(Op op, const BitVec &a);

} // namespace rtl
} // namespace anvil

#endif // ANVIL_RTL_INTERP_H
