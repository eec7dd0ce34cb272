/**
 * @file
 * Compile-to-C++ netlist backend: lowers the strict combinational
 * portion of a levelized rtl::Netlist to C++ implementing the
 * AnvilKernelV2 ABI (rtl/kernel_abi.h), as one self-contained
 * translation unit or as K units that compile independently and link
 * into one shared object.
 *
 * Layout of the emitted kernel (see docs/compile.md):
 *  - the interpreter's fan-out CSR compiled in as static tables
 *    (consumer lists, per-node level/slot, bitmap word offsets);
 *  - two functions per logic level: a sparse one draining the level's
 *    exact occupancy bitmap in ascending slot order through a dense
 *    jump table, and a straight-line dense one for high-activity
 *    frames — whole frames flip with the same ~50%/40% hysteresis as
 *    the interpreter, and a single crowded level (≥ 25% queued)
 *    escalates to its dense body inside a sparse frame;
 *  - the u64 fast lane lowered to native integer arithmetic, wide
 *    values to packed-word helper calls;
 *  - change-cutting at every store: an unchanged value queues no
 *    consumers, and eval()'s changed-net list is exact;
 *  - registers, inputs, and constants as a flat packed-word state
 *    array indexed by per-net offsets;
 *  - split into K units: unit 0 defines the tables, ROMs, change
 *    hooks, do_eval, and the vtable behind `anvil_kernel_v2`; the
 *    level functions are dealt out to all K units by size.  Every
 *    unit repeats the prelude and the Ctx layout inside the named
 *    namespace `anvil_kernel`; every symbol except the entry point
 *    has hidden visibility, so cross-unit calls bind directly.
 *
 * The K = 1 unit (the `--emit-cpp` dump) compiles standalone
 * (`c++ -std=c++17 -O2 -fPIC -shared`); the JIT (codegen/jit.h)
 * automates the split, the concurrent compile, the link, dlopen, and
 * hash validation.
 */

#ifndef ANVIL_CODEGEN_CPP_EMITTER_H
#define ANVIL_CODEGEN_CPP_EMITTER_H

#include <string>
#include <vector>

#include "rtl/netlist.h"

namespace anvil {
namespace codegen {

/**
 * Codegen scheme revision.  Bumped whenever the emitted source for an
 * unchanged netlist changes (new scheduler, table layout, ABI rev) so
 * caches keyed on the design hash alone can never serve a kernel
 * built by an older emitter.  v1: block-granular dirty bitmaps;
 * v2: event-driven per-level exact occupancy bitmaps +
 * AnvilKernelV2; v3: per-level evaluation counters + level_stats()
 * (ABI version 3); v4: level functions and ROMs get external hidden
 * linkage in namespace anvil_kernel, so the kernel can be split into
 * units.
 */
constexpr int kCppEmitterVersion = 4;

/**
 * Emit `nl` as a C++ kernel translation unit.  `design_name` only
 * appears in the banner comment; behavioural identity is pinned by
 * the embedded rtl::designHash.
 */
std::string emitCppKernel(const rtl::Netlist &nl,
                          const std::string &design_name);

/**
 * Emit `nl` as `k` translation units (k < 1 counts as 1) that are
 * compiled separately and linked into one shared object.  Each level
 * function lands in exactly one unit: largest first, onto the unit
 * with the least text so far (unit 0 starts with its own
 * definitions).  Unit 0 is the only one defining the tables and the
 * entry symbol.  emitCppKernel() returns exactly the k = 1 unit.
 */
std::vector<std::string> emitCppKernelUnits(const rtl::Netlist &nl,
                                            const std::string &design_name,
                                            int k);

} // namespace codegen
} // namespace anvil

#endif // ANVIL_CODEGEN_CPP_EMITTER_H
