/**
 * @file
 * C ABI between the simulator and a compiled netlist kernel.
 *
 * `anvilc --emit-cpp` (src/codegen/cpp_emitter.cpp) lowers the strict
 * combinational portion of a levelized rtl::Netlist to straight-line
 * C++ and wraps it in the struct below; the JIT (src/codegen/jit.cpp)
 * compiles that source with the system compiler and dlopens the
 * resulting shared object.  The generated file embeds its own copy of
 * this struct definition so an --emit-cpp dump compiles standalone;
 * the two copies are tied together by `version`, which the emitter
 * writes from ANVIL_KERNEL_VERSION.  rtl::kernelMismatch is the one
 * attach check: it also compares `design_hash` (rtl::designHash),
 * `net_count` and `state_words`, so a stale object can never be bound
 * to the wrong netlist or frame.
 *
 * Division of labour: rtl::Sim owns the one value frame and lends it
 * to the kernel, whose state block (net_ptr(ctx, 0)) becomes the frame
 * on attach.  The kernel runs only the levelized strict sweep, writing
 * strict nets in place; the host writes sources in place and calls
 * poke().  Lazy cones, the clock edge, prints, toggles, and every
 * observer stay in rtl::Sim, the single semantic authority.  The
 * layout is rtl::Netlist::wordOffset: packed little-endian 64-bit
 * words, ceil(width/64) (min 1) per net, normalized exactly like
 * anvil::BitVec; `state_words` is Netlist::stateWords.
 *
 * The kernel is event-driven internally (per-level exact worklists
 * seeded by poke(), change-cutting, and an adaptive dense fallback
 * mirroring the interpreter's hysteresis).  eval()'s changed list is
 * exact: a strict net appears iff its committed value differs from
 * the previous eval.  stats() and level_stats() export the kernel's
 * own activity counters, so the host folds them into its sweep
 * telemetry and its hot-cone report.
 */

#ifndef ANVIL_RTL_KERNEL_ABI_H
#define ANVIL_RTL_KERNEL_ABI_H

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/** Bumped whenever the emitted source for a fixed netlist changes
 *  (struct layout, scheduler, table layout), so neither an attach nor
 *  a cache keyed on the design hash can accept an object built by an
 *  older emitter. */
#define ANVIL_KERNEL_VERSION 5u

/** Activity counters accumulated by a kernel context since create().
 *  Mirrors the host-side SweepStats vocabulary. */
typedef struct AnvilKernelStats
{
    uint64_t frames;            /* eval() + eval_full() calls */
    uint64_t dense_frames;      /* frames run on the dense path */
    uint64_t fallback_switches; /* sparse->dense hysteresis entries */
    uint64_t nodes_evaluated;   /* strict node evaluations, total */
    uint64_t nets_changed;      /* changed-net records, total */
} AnvilKernelStats;

/** Kernel vtable.  All functions are thread-compatible: distinct
 *  contexts may be driven from distinct threads, one context must not
 *  be entered concurrently. */
typedef struct AnvilKernel
{
    uint32_t version;       /* == ANVIL_KERNEL_VERSION */
    uint32_t net_count;     /* nets at emission time */
    uint64_t design_hash;   /* rtl::designHash of the netlist */
    uint64_t state_words;   /* packed value words per context */

    /** Allocate a context holding the design's initial values.
     *  Returns NULL on allocation failure. */
    void *(*create)(void);
    void (*destroy)(void *ctx);

    /** Pointer to the value words of `net` (valid for the context's
     *  lifetime; ceil(width/64), min 1, words). */
    uint64_t *(*net_ptr)(void *ctx, int32_t net);

    /** Mark a source net changed after the host wrote its words via
     *  net_ptr(): its strict consumers are queued on their levels'
     *  worklists for the next eval().  Idempotent per net between
     *  evals. */
    void (*poke)(void *ctx, int32_t net);

    /**
     * Event-driven sweep: drain the per-level worklists in levelized
     * order, re-evaluating only queued nodes; a node whose value is
     * unchanged does not queue its consumers (change-cutting).  When
     * the previous frame's activity crossed the dense-fallback
     * threshold the whole table is recomputed straight-line instead.
     * Either way, strict nets whose committed value changed — exactly
     * those — are appended to `changed` (caller-provided, net_count
     * capacity) and counted in *n_changed.  Returns the number of
     * node evaluations.
     */
    uint64_t (*eval)(void *ctx, int32_t *changed, uint64_t *n_changed);

    /** Dense sweep: evaluate every strict node, reporting changes by
     *  value comparison (the first sweep, a mode switch, Full mode).
     *  Pending worklist state is consumed and cleared. */
    uint64_t (*eval_full)(void *ctx, int32_t *changed,
                          uint64_t *n_changed);

    /** Copy the context's activity counters into *out. */
    void (*stats)(void *ctx, AnvilKernelStats *out);

    /** Logic levels in the emitted design's levelization. */
    uint32_t level_count;

    /** Copy cumulative node evaluations per level into out[0 ..
     *  level_count); caller provides level_count slots.  Counts since
     *  create(), accumulated on both sparse and dense paths. */
    void (*level_stats)(void *ctx, uint64_t *out);
} AnvilKernel;

/** Entry point exported by every compiled kernel object (the only
 *  symbol it exports). */
typedef const AnvilKernel *(*AnvilKernelEntryFn)(void);

#define ANVIL_KERNEL_ENTRY_SYMBOL "anvil_kernel_entry"

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* ANVIL_RTL_KERNEL_ABI_H */
