/**
 * @file
 * In-process JIT for the compile-to-C++ backend: emit the netlist as
 * K kernel translation units (codegen/cpp_emitter.h), compile them
 * concurrently with the system C++ compiler, link one shared object,
 * dlopen it, and hand back an AnvilKernel (rtl/kernel_abi.h) that has
 * passed rtl::kernelMismatch, ready for rtl::Sim::attachKernel.
 *
 * K is a pure function of the emitted kernel's size (jitUnitCount):
 * there is no knob, so the built object stays a function of the
 * netlist, opt level, and compiler alone.
 *
 * Lifecycle (see docs/compile.md): the units, objects, and shared
 * object live in a mkdtemp directory under $TMPDIR that is deleted as
 * soon as the object is mapped — the mapping survives the unlink, and
 * nothing litters the temp dir even on crash.  Kernels are cached per
 * (design hash, opt level) for the life of the process, so attaching
 * the same design to many Sims (the differential test matrix, BMC
 * reruns) compiles once.  The emitter is linked into the process, so
 * within one process the emitted source for a design never changes.
 *
 * Everything degrades gracefully: no compiler on PATH, a failed
 * compile of any unit (every other compiler child is still reaped), a
 * failed link, or a kernel that fails the attach check yields a
 * JitResult with a null kernel and a diagnostic string, and callers
 * keep the interpreter.
 */

#ifndef ANVIL_CODEGEN_JIT_H
#define ANVIL_CODEGEN_JIT_H

#include <memory>
#include <string>

#include "rtl/interp.h"
#include "rtl/kernel_abi.h"
#include "rtl/netlist.h"

namespace anvil {
namespace codegen {

struct JitOptions
{
    int opt_level = 2;        // -O<n> passed to the system compiler
                              // (capped to -O1 for multi-MB units,
                              // where -O2 buys only compile time)
};

/** A dlopen'd kernel; closes the library when the last ref drops. */
class CompiledKernel
{
  public:
    CompiledKernel(void *dl, const AnvilKernel *abi)
        : _dl(dl), _abi(abi)
    {
    }
    ~CompiledKernel();
    CompiledKernel(const CompiledKernel &) = delete;
    CompiledKernel &operator=(const CompiledKernel &) = delete;

    const AnvilKernel *abi() const { return _abi; }

  private:
    void *_dl = nullptr;
    const AnvilKernel *_abi = nullptr;
};

struct JitResult
{
    std::shared_ptr<CompiledKernel> kernel;  // null on failure
    std::string error;                       // why, when null
    uint64_t compile_ns = 0;   // emit + compile + load wall time
    uint64_t source_bytes = 0; // emitted source, all units together
    bool cache_hit = false;    // served from the per-process cache
};

/** Kernel bytes per translation unit, and the most units one kernel
 *  is split into.  Tuned on the AES kernel (717 KB emitted) on a
 *  4-thread host; see docs/compile.md. */
constexpr size_t kJitUnitBytes = 128u << 10;
constexpr size_t kJitMaxUnits = 8;

/** Units the JIT splits a kernel into: one per kJitUnitBytes of the
 *  whole (k = 1) kernel source, rounded up, clamped to
 *  [1, kJitMaxUnits]. */
int jitUnitCount(size_t kernel_bytes);

/**
 * The compiler the JIT would invoke: $ANVIL_CXX verbatim if set (even
 * if broken — that is the no-compiler-present test hook), else the
 * first of c++/g++/clang++ that answers --version.  Empty string when
 * nothing is available.
 */
std::string jitCompilerPath();

/** Emit, compile, and load `nl`.  Never throws; see JitResult. */
JitResult jitCompileKernel(const rtl::Netlist &nl,
                           const JitOptions &opts = {});

/** Package a compiled kernel as the KernelRef Sim/BMC options take. */
rtl::KernelRef kernelRef(const std::shared_ptr<CompiledKernel> &k);

} // namespace codegen
} // namespace anvil

#endif // ANVIL_CODEGEN_JIT_H
