/**
 * @file
 * Compiled netlist: the flat, index-addressed form of a module
 * hierarchy that the simulator executes.
 *
 * At construction the hierarchy is flattened once, every named signal
 * (top-level input, register, wire, child port wire) is interned into
 * a dense table addressed by an integer NetId, and every expression
 * DAG is rewritten into compact nodes whose operands are NetIds — no
 * strings, maps, or shared_ptr chasing remain on the evaluation path.
 * Combinational nodes are then levelized (topologically sorted with a
 * per-node logic level) so a simulation step is a dense per-level
 * sweep over index arrays.
 *
 * Structural cycles and unresolved references cannot always be
 * rejected eagerly: the reference interpreter only faults when an
 * evaluation actually reaches them (a loop hidden behind an untaken
 * mux branch is legal).  Nodes on or downstream of a cycle or a bad
 * reference are therefore marked `lazy` and evaluated by a recursive
 * short-circuiting walk that reproduces the reference semantics
 * exactly, including "combinational loop through <name>" faults.
 */

#ifndef ANVIL_RTL_NETLIST_H
#define ANVIL_RTL_NETLIST_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rtl/rtl.h"

namespace anvil {
namespace rtl {

/** Interned index of a signal or expression node in the netlist. */
using NetId = int32_t;

constexpr NetId kNoNet = -1;

/** One compiled node.  Sources hold state; the rest compute. */
struct Net
{
    enum class Kind : uint8_t
    {
        Const,   // value fixed at compile time
        Input,   // top-level input (poked by the driver)
        Reg,     // register (committed on the clock edge)
        Copy,    // operand a, resized to this node's width
        Unop,    // op(a)
        Binop,   // op(a, b) at this node's width
        Mux,     // a ? b : c, resized to this node's width
        Slice,   // a[lo +: width]
        Concat,  // cargs, hi-first, resized to this node's width
        Rom,     // rom[a], resized; out-of-range reads zero
        BadRef,  // unresolved name; faults only if evaluated
    };

    Kind kind = Kind::Const;
    Op op = Op::And;
    /** Evaluated in the u64 lane (width and operands fit a word). */
    bool fast = false;
    /** Evaluated by the recursive walk, not the levelized sweep. */
    bool lazy = false;
    int32_t width = 1;
    int32_t lo = 0;                       // Slice
    int32_t level = 0;
    NetId a = kNoNet, b = kNoNet, c = kNoNet;
    uint64_t mask = 1;                    // low-word mask, width <= 64
    std::vector<NetId> cargs;             // Concat operands, hi-first
    std::shared_ptr<const std::vector<BitVec>> rom;
};

/** A named flattened signal (dotted instance path). */
struct NetSignal
{
    enum class Kind { Input, Reg, Wire };
    Kind kind = Kind::Wire;
    NetId net = kNoNet;
    int32_t width = 1;
};

/** Guarded register update, ID-resolved. */
struct NetUpdate
{
    int32_t reg_index = -1;   // into regs(); -1 = unknown register
    NetId enable = kNoNet;
    NetId value = kNoNet;
    std::string reg_name;     // flat name, for diagnostics
};

/** Simulation-only print, ID-resolved. */
struct NetPrint
{
    NetId enable = kNoNet;
    NetId value = kNoNet;     // kNoNet: no value printed
    std::string text;
};

/**
 * The compiled form of one module hierarchy.
 *
 * `compile` may be called after construction (the simulator compiles
 * ad-hoc top-scope expressions for evalTop); nodes added then are
 * marked lazy so the levelized order stays valid.
 */
class Netlist
{
  public:
    explicit Netlist(const Module &top);

    const std::vector<Net> &nets() const { return _nets; }
    const Net &net(NetId id) const
    {
        return _nets[static_cast<size_t>(id)];
    }

    /** Initial value of every node (register init, zeros, consts). */
    const std::vector<BitVec> &initValues() const { return _init; }

    /**
     * The one value-frame layout, shared by rtl::Sim and the compiled
     * kernel: net `id` owns wordsFor(width) packed little-endian
     * words, normalized like BitVec, from wordOffset(id).  Nets are
     * laid out in id order (net 0 at word 0); compile() extends it.
     */
    uint32_t wordOffset(NetId id) const
    {
        return _word_off[static_cast<size_t>(id)];
    }
    /** Words in the value frame (at least 1, even with no nets). */
    uint64_t stateWords() const { return _words ? _words : 1; }
    /** ceil(width/64), at least 1. */
    static uint32_t wordsFor(int width)
    {
        return width <= 0 ? 1u : static_cast<uint32_t>((width + 63) / 64);
    }

    /** Strict combinational nodes in evaluation order. */
    const std::vector<NetId> &order() const { return _order; }

    /** order()[level_begin[l] .. level_begin[l+1]) is level l. */
    const std::vector<int32_t> &levelBegin() const
    {
        return _level_begin;
    }

    /**
     * Fan-out cone edges, CSR form: the strict combinational nodes
     * that read net `id` directly are
     * fanout()[fanoutBegin()[id] .. fanoutBegin()[id+1]).  Built once
     * during levelization; the event-driven sweep walks these edges
     * to re-evaluate only the cone downstream of a changed source.
     * Lazy consumers are excluded (the recursive walk re-reads its
     * whole cone every evaluation anyway).
     */
    const std::vector<int32_t> &fanoutBegin() const
    {
        return _fanout_begin;
    }
    const std::vector<NetId> &fanout() const { return _fanout; }

    /** Number of distinct levels in the strict order. */
    size_t levelCount() const
    {
        return _level_begin.empty() ? 0 : _level_begin.size() - 1;
    }

    /** Lazy nodes the clock edge must evaluate every cycle. */
    const std::vector<NetId> &lazyRoots() const { return _lazy_roots; }

    /** Flat signal name -> interned signal (sorted by name). */
    const std::map<std::string, NetSignal> &signals() const
    {
        return _signals;
    }

    /** Toggle-counted wire nodes, one entry per named wire. */
    const std::vector<NetId> &wireNets() const { return _wire_nets; }

    /** Register nodes in name order. */
    const std::vector<NetId> &regs() const { return _regs; }

    const std::vector<NetUpdate> &updates() const { return _updates; }
    const std::vector<NetPrint> &prints() const { return _prints; }

    /** Follow child-output aliases from a scoped name to a flat one. */
    std::string resolveName(const std::string &scope,
                            const std::string &name) const;

    /**
     * Compile an expression in the given scope and return its node.
     * Post-construction nodes are marked lazy (see class comment).
     */
    NetId compile(const ExprPtr &e, const std::string &scope);

    /** Debug name of a node ("" for anonymous expression nodes). */
    const std::string &nameOf(NetId id) const;

    /**
     * Visit every operand NetId of a node, in evaluation order
     * (a, b, c, then cargs).  The one operand walk shared by
     * levelization, the fan-out CSR, the design hash, and the C++
     * emitter's guard/liveness analyses.
     */
    template <typename F>
    static void forEachOperand(const Net &n, F f)
    {
        if (n.a != kNoNet)
            f(n.a);
        if (n.b != kNoNet)
            f(n.b);
        if (n.c != kNoNet)
            f(n.c);
        for (NetId id : n.cargs)
            f(id);
    }

  private:
    NetId newNet(Net n);
    NetId internSource(NetSignal::Kind kind, const std::string &flat,
                       int width, const BitVec &init);
    void flatten(const Module &m, const std::string &prefix);
    void levelize();
    void finalizeNode(Net &n);

    struct PendingWire
    {
        NetId root;
        ExprPtr expr;
        std::string scope;
    };
    struct PendingUpdate
    {
        std::string reg;      // flat name
        ExprPtr enable, value;
        std::string scope;
    };
    struct PendingPrint
    {
        ExprPtr enable, value;
        std::string text;
        std::string scope;
    };

    std::vector<Net> _nets;
    std::vector<BitVec> _init;
    std::vector<uint32_t> _word_off;
    uint64_t _words = 0;
    std::vector<NetId> _order;
    std::vector<int32_t> _level_begin;
    std::vector<int32_t> _fanout_begin;
    std::vector<NetId> _fanout;
    std::vector<NetId> _lazy_roots;
    std::map<std::string, NetSignal> _signals;
    std::map<std::string, std::string> _aliases;
    std::vector<NetId> _wire_nets;
    std::vector<NetId> _regs;
    std::vector<NetUpdate> _updates;
    std::vector<NetPrint> _prints;
    std::map<NetId, std::string> _names;
    std::map<std::pair<const Expr *, std::string>, NetId> _expr_cache;
    std::vector<PendingWire> _pending_wires;
    std::vector<PendingUpdate> _pending_updates;
    std::vector<PendingPrint> _pending_prints;
    bool _constructed = false;
};

/**
 * Structural fingerprint of a netlist: FNV-1a over every node's kind,
 * operator, width, operands, ROM contents, and the initial values.
 * A compiled kernel records this at emission time and the simulator
 * refuses to attach an object whose hash disagrees (see
 * rtl/kernel_abi.h), so a stale shared object degrades to the
 * interpreter instead of silently simulating the wrong design.
 */
uint64_t designHash(const Netlist &nl);

} // namespace rtl
} // namespace anvil

#endif // ANVIL_RTL_NETLIST_H
