/**
 * @file
 * Compiled C++ backend: golden emitted-kernel snapshot for the
 * quickstart design, the split into translation units, JIT round-trip
 * behaviour against the interpreter, kernel ABI invariants, temp-dir
 * hygiene, and the failure paths (a broken ANVIL_CXX or one failing
 * unit must degrade to the interpreter, never fail the run).
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "codegen/cpp_emitter.h"
#include "codegen/jit.h"
#include "designs/designs.h"
#include "harness.h"
#include "rtl/interp.h"

using namespace anvil;
using namespace anvil::rtl;

namespace {

#ifndef ANVIL_TEST_DIR
#define ANVIL_TEST_DIR "tests"
#endif

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** The quickstart module, compiled from the shipped example. */
ModulePtr
quickstartModule()
{
    std::string src = readFile(std::string(ANVIL_TEST_DIR) +
                               "/../examples/quickstart.anvil");
    if (src.empty())
        return nullptr;
    return anvil::testing::compileDesign(src, "ping_server");
}

/** Entries of a directory, without "." and "..". */
std::vector<std::string>
listDir(const std::string &dir)
{
    std::vector<std::string> names;
    if (DIR *d = ::opendir(dir.c_str())) {
        while (struct dirent *e = ::readdir(d)) {
            std::string n = e->d_name;
            if (n != "." && n != "..")
                names.push_back(n);
        }
        ::closedir(d);
    }
    return names;
}

/** Sets an environment variable for one scope, restoring it after. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const std::string &value) : _name(name)
    {
        const char *old = std::getenv(name);
        _had = old != nullptr;
        if (old)
            _old = old;
        ::setenv(name, value.c_str(), 1);
    }
    ~ScopedEnv()
    {
        if (_had)
            ::setenv(_name, _old.c_str(), 1);
        else
            ::unsetenv(_name);
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *_name;
    bool _had = false;
    std::string _old;
};

/**
 * A one-register design (c ^= x) of the given width.  The JIT cache
 * lives for the whole test binary, so a test that must see a real
 * compile uses a name/width pair no other test compiles.
 */
ModulePtr
probeModule(const std::string &name, int width)
{
    auto m = std::make_shared<Module>();
    m->name = name;
    auto x = m->input("x", width);
    auto c = m->reg("c", width);
    m->update("c", cst(1, 1), c ^ x);
    return m;
}

/** Deterministic quickstart stimulus (same shape as the VCD golden). */
void
driveQuickstart(Sim &sim, int cyc)
{
    sim.setInput("io_ping_data", 10 + cyc * 7);
    sim.setInput("io_ping_valid", cyc % 4 < 2 ? 1 : 0);
    sim.setInput("io_pong_ack", cyc % 3 != 0 ? 1 : 0);
}

TEST(CppEmitter, QuickstartKernelMatchesGolden)
{
    auto mod = quickstartModule();
    ASSERT_NE(mod, nullptr);
    Netlist nl(*mod);
    std::string got = codegen::emitCppKernel(nl, "ping_server");
    ASSERT_FALSE(got.empty());

    std::string path = std::string(ANVIL_TEST_DIR) +
                       "/golden/quickstart_kernel.cpp";
    if (std::getenv("ANVIL_REGEN_GOLDEN")) {
        std::ofstream os(path);
        ASSERT_TRUE(os.good()) << path;
        os << got;
        return;
    }
    std::ifstream is(path);
    ASSERT_TRUE(is.good())
        << "missing golden " << path
        << " (run with ANVIL_REGEN_GOLDEN=1 to create)";
    std::ostringstream want;
    want << is.rdbuf();
    EXPECT_EQ(got, want.str());
}

TEST(CppEmitter, KernelAbiMatchesNetlist)
{
    if (codegen::jitCompilerPath().empty())
        GTEST_SKIP() << "no system compiler available";
    auto mod = quickstartModule();
    ASSERT_NE(mod, nullptr);
    Sim sim(mod);
    codegen::JitOptions jo;
    jo.opt_level = 1;
    codegen::JitResult jr =
        codegen::jitCompileKernel(sim.netlist(), jo);
    ASSERT_NE(jr.kernel, nullptr) << jr.error;
    const AnvilKernel *abi = jr.kernel->abi();
    ASSERT_NE(abi, nullptr);
    EXPECT_EQ(abi->version, ANVIL_KERNEL_VERSION);
    EXPECT_EQ(abi->net_count, sim.netlist().nets().size());
    EXPECT_EQ(abi->design_hash, designHash(sim.netlist()));
    EXPECT_GT(abi->state_words, 0u);

    // The one attach check: a kernel drives only the netlist it was
    // emitted from, at this ANVIL_KERNEL_VERSION.
    EXPECT_EQ(kernelMismatch(abi, sim.netlist()), nullptr);
    Sim other(probeModule("abi_probe", 5));
    EXPECT_NE(kernelMismatch(abi, other.netlist()), nullptr);
    EXPECT_FALSE(other.attachKernel(codegen::kernelRef(jr.kernel)));
    AnvilKernel stale = *abi;
    stale.version++;
    EXPECT_NE(kernelMismatch(&stale, sim.netlist()), nullptr);

    // A second compile of the same design hits the process-wide
    // cache and hands back the exact same kernel object.
    codegen::JitResult again =
        codegen::jitCompileKernel(sim.netlist(), jo);
    EXPECT_EQ(again.kernel.get(), jr.kernel.get());
    EXPECT_TRUE(again.cache_hit);
}

TEST(CppEmitter, JitRoundTripMatchesInterpreter)
{
    if (codegen::jitCompilerPath().empty())
        GTEST_SKIP() << "no system compiler available";
    auto mod = quickstartModule();
    ASSERT_NE(mod, nullptr);

    Sim interp(mod), compiled(mod);
    codegen::JitOptions jo;
    jo.opt_level = 1;
    codegen::JitResult jr =
        codegen::jitCompileKernel(compiled.netlist(), jo);
    ASSERT_NE(jr.kernel, nullptr) << jr.error;
    ASSERT_TRUE(compiled.attachKernel(codegen::kernelRef(jr.kernel)));
    ASSERT_TRUE(compiled.kernelAttached());

    for (int cyc = 0; cyc < 200; cyc++) {
        driveQuickstart(interp, cyc);
        driveQuickstart(compiled, cyc);
        interp.step();
        compiled.step();
        ASSERT_EQ(interp.totalToggles(), compiled.totalToggles())
            << "cycle " << cyc;
    }
    auto ra = interp.captureRegs(), rb = compiled.captureRegs();
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); i++)
        EXPECT_EQ(ra[i].toHex(), rb[i].toHex());
    EXPECT_EQ(interp.log(), compiled.log());
}

TEST(CppEmitter, KernelReportsPerLevelEvals)
{
    if (codegen::jitCompilerPath().empty())
        GTEST_SKIP() << "no system compiler available";
    auto mod = quickstartModule();
    ASSERT_NE(mod, nullptr);
    Sim sim(mod);
    codegen::JitOptions jo;
    jo.opt_level = 1;
    codegen::JitResult jr =
        codegen::jitCompileKernel(sim.netlist(), jo);
    ASSERT_NE(jr.kernel, nullptr) << jr.error;
    const AnvilKernel *abi = jr.kernel->abi();
    ASSERT_NE(abi, nullptr);
    // The level table is sized like the netlist's and backed by a
    // live accessor.
    EXPECT_EQ(abi->level_count,
              sim.netlist().levelBegin().empty()
                  ? 0u
                  : static_cast<uint32_t>(
                        sim.netlist().levelBegin().size() - 1));
    ASSERT_NE(abi->level_stats, nullptr);
    ASSERT_TRUE(sim.attachKernel(codegen::kernelRef(jr.kernel)));

    for (int cyc = 0; cyc < 50; cyc++) {
        driveQuickstart(sim, cyc);
        sim.step();
    }
    std::vector<uint64_t> per_level = sim.kernelLevelEvals();
    ASSERT_EQ(per_level.size(), abi->level_count);
    uint64_t total = 0;
    for (uint64_t e : per_level)
        total += e;
    // The per-level counters partition the sweep's eval total.
    EXPECT_EQ(total, sim.sweepStats().nodes_evaluated);
    EXPECT_GT(total, 0u);
}

TEST(CppEmitter, JitHonorsTmpdir)
{
    std::string cxx = codegen::jitCompilerPath();
    if (cxx.empty())
        GTEST_SKIP() << "no system compiler available";
    Sim sim(probeModule("tmpdir_probe", 9));

    // A compiler wrapper that logs every -o path, then runs the real
    // compiler.
    char wtmpl[] = "/tmp/anvil-cxx-log-XXXXXX";
    ASSERT_NE(::mkdtemp(wtmpl), nullptr);
    std::string wrapper = std::string(wtmpl) + "/cxx";
    std::string log = std::string(wtmpl) + "/outputs";
    {
        std::ofstream w(wrapper);
        w << "#!/bin/sh\n"
             "prev=\n"
             "for a in \"$@\"; do\n"
             "  [ \"$prev\" = -o ] && echo \"$a\" >> '" << log << "'\n"
             "  prev=$a\n"
             "done\n"
             "exec " << cxx << " \"$@\"\n";
    }
    ASSERT_EQ(::chmod(wrapper.c_str(), 0755), 0);
    char tmpl[] = "/tmp/anvil-tmpdir-test-XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    std::string scratch = tmpl;

    codegen::JitResult jr;
    {
        ScopedEnv env_cxx("ANVIL_CXX", wrapper);
        ScopedEnv env_tmp("TMPDIR", scratch);
        codegen::JitOptions jo;
        jo.opt_level = 1;
        jr = codegen::jitCompileKernel(sim.netlist(), jo);
    }
    ASSERT_NE(jr.kernel, nullptr) << jr.error;

    // Every object and the shared object landed in a work dir under
    // $TMPDIR, not /tmp, and the work dir is gone afterwards.
    std::istringstream outputs(readFile(log));
    std::vector<std::string> paths;
    for (std::string line; std::getline(outputs, line);)
        paths.push_back(line);
    EXPECT_GE(paths.size(), 2u);   // at least one unit plus the link
    for (const std::string &path : paths)
        EXPECT_EQ(path.rfind(scratch + "/anvil-jit-", 0), 0u) << path;
    EXPECT_TRUE(listDir(scratch).empty());

    ::rmdir(tmpl);
    ::unlink(log.c_str());
    ::unlink(wrapper.c_str());
    ::rmdir(wtmpl);
}

TEST(CppEmitter, UnitsPartitionLevelFunctions)
{
    auto qs = quickstartModule();
    ASSERT_NE(qs, nullptr);
    for (const ModulePtr &mod : {qs, designs::buildAesBaseline()}) {
        Netlist nl(*mod);
        // Two functions per non-empty level.
        std::map<std::string, int> want;
        for (size_t l = 0; l + 1 < nl.levelBegin().size(); l++)
            if (nl.levelBegin()[l + 1] > nl.levelBegin()[l]) {
                want["s" + std::to_string(l)] = 1;
                want["d" + std::to_string(l)] = 1;
            }
        ASSERT_FALSE(want.empty());
        for (int k = 1; k <= 4; k++) {
            std::vector<std::string> units =
                codegen::emitCppKernelUnits(nl, mod->name, k);
            ASSERT_EQ(units.size(), static_cast<size_t>(k));
            std::map<std::string, int> got;
            for (size_t u = 0; u < units.size(); u++) {
                const std::string &src = units[u];
                // Definitions, not the declarations unit 0 also has.
                const std::string head = "\nuint64_t lvl_";
                const std::string body = "(Ctx *c)\n{";
                for (size_t at = src.find(head); at != std::string::npos;
                     at = src.find(head, at + 1)) {
                    size_t name = at + head.size();
                    size_t paren = src.find('(', name);
                    if (src.compare(paren, body.size(), body) == 0)
                        got[src.substr(name, 1) +
                            src.substr(name + 2, paren - name - 2)]++;
                }
                // Tables, ROMs, the eval loop, and the entry point are
                // defined in unit 0 only.
                bool first = u == 0;
                EXPECT_EQ(src.find("static const uint32_t kOff[") !=
                              std::string::npos,
                          first)
                    << "k=" << k << " unit " << u;
                EXPECT_EQ(src.find("static uint64_t do_eval(") !=
                              std::string::npos,
                          first)
                    << "k=" << k << " unit " << u;
                EXPECT_EQ(src.find(ANVIL_KERNEL_ENTRY_SYMBOL "(void)\n{") !=
                              std::string::npos,
                          first)
                    << "k=" << k << " unit " << u;
                EXPECT_EQ(src.find("\nconst uint64_t kRom") !=
                              std::string::npos,
                          first && mod != qs)
                    << "k=" << k << " unit " << u;
            }
            EXPECT_EQ(got, want) << mod->name << " k=" << k;
        }
        EXPECT_EQ(codegen::emitCppKernel(nl, mod->name),
                  codegen::emitCppKernelUnits(nl, mod->name, 1)[0]);
    }
}

TEST(CppEmitter, UnitCountFollowsKernelSize)
{
    EXPECT_EQ(codegen::jitUnitCount(0), 1);
    EXPECT_EQ(codegen::jitUnitCount(codegen::kJitUnitBytes), 1);
    EXPECT_EQ(codegen::jitUnitCount(codegen::kJitUnitBytes + 1), 2);
    EXPECT_EQ(codegen::jitUnitCount(100 * codegen::kJitUnitBytes),
              static_cast<int>(codegen::kJitMaxUnits));

    auto unitsFor = [](const ModulePtr &mod) {
        Netlist nl(*mod);
        return codegen::jitUnitCount(
            codegen::emitCppKernel(nl, mod->name).size());
    };
    auto qs = quickstartModule();
    ASSERT_NE(qs, nullptr);
    EXPECT_EQ(unitsFor(qs), 1);
    // The large kernels the differential matrix compiles are split.
    EXPECT_GT(unitsFor(designs::buildAesBaseline()), 1);
    EXPECT_GT(unitsFor(designs::buildAxiXbarBaseline(4, 4)), 1);
    EXPECT_GT(unitsFor(designs::buildSetAssocTlbBaseline(4, 32)), 1);
}

TEST(CppEmitter, JitHandlesTmpdirWithSpace)
{
    if (codegen::jitCompilerPath().empty())
        GTEST_SKIP() << "no system compiler available";
    Sim sim(probeModule("space_probe", 11));

    char tmpl[] = "/tmp/anvil-space-test-XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    std::string spaced = std::string(tmpl) + "/sp ace";
    ASSERT_EQ(::mkdir(spaced.c_str(), 0700), 0);

    codegen::JitResult jr;
    {
        ScopedEnv env("TMPDIR", spaced);
        codegen::JitOptions jo;
        jo.opt_level = 1;
        jr = codegen::jitCompileKernel(sim.netlist(), jo);
    }
    EXPECT_NE(jr.kernel, nullptr) << jr.error;
    EXPECT_TRUE(sim.attachKernel(codegen::kernelRef(jr.kernel)));
    // Nothing is left behind after a successful compile.
    EXPECT_TRUE(listDir(spaced).empty());
    ::rmdir(spaced.c_str());
    ::rmdir(tmpl);
}

TEST(CppEmitter, FailingUnitReapsChildrenAndCleansUp)
{
    // A compiler wrapper that fails on unit 1 alone; every other
    // compile is slow and succeeds, so units 2.. are still running
    // when the failure is seen and must be reaped, not orphaned.  No
    // other test here compiles this design, so the cache cannot
    // answer first.
    Sim sim(designs::buildAxiXbarBaseline(4, 4));
    ASSERT_GT(codegen::jitUnitCount(
                  codegen::emitCppKernel(sim.netlist(), "xbar").size()),
              2);

    char wtmpl[] = "/tmp/anvil-cxx-wrap-XXXXXX";
    ASSERT_NE(::mkdtemp(wtmpl), nullptr);
    std::string wrapper = std::string(wtmpl) + "/cxx";
    {
        std::ofstream w(wrapper);
        w << "#!/bin/sh\n"
             "case \"$*\" in\n"
             "  */unit1.cpp*) echo 'injected unit failure' >&2; exit 7 ;;\n"
             "esac\n"
             "sleep 1\n"
             "exit 0\n";
    }
    ASSERT_EQ(::chmod(wrapper.c_str(), 0755), 0);
    char ttmpl[] = "/tmp/anvil-fail-test-XXXXXX";
    ASSERT_NE(::mkdtemp(ttmpl), nullptr);

    codegen::JitResult jr;
    {
        ScopedEnv cxx("ANVIL_CXX", wrapper);
        ScopedEnv tmp("TMPDIR", ttmpl);
        jr = codegen::jitCompileKernel(sim.netlist());
    }
    EXPECT_EQ(jr.kernel, nullptr);
    EXPECT_NE(jr.error.find("unit 1 "), std::string::npos) << jr.error;
    EXPECT_NE(jr.error.find("exited with status 7"), std::string::npos)
        << jr.error;
    EXPECT_NE(jr.error.find("injected unit failure"), std::string::npos)
        << jr.error;

    // No compiler child is left unreaped ...
    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
    // ... and the work dir is gone with everything in it.
    EXPECT_TRUE(listDir(ttmpl).empty());

    ::rmdir(ttmpl);
    ::unlink(wrapper.c_str());
    ::rmdir(wtmpl);
    EXPECT_FALSE(sim.attachKernel(codegen::kernelRef(jr.kernel)));
}

TEST(CppEmitter, BrokenCompilerFallsBackToInterpreter)
{
    // A design no other test compiles, so the JIT cache can't mask
    // the compile failure (the cache is consulted before the
    // compiler probe).
    ModulePtr m = probeModule("fallback_probe", 7);

    const char *saved = std::getenv("ANVIL_CXX");
    std::string saved_val = saved ? saved : "";
    ::setenv("ANVIL_CXX", "/nonexistent/cxx", 1);
    // ANVIL_CXX is taken verbatim, even when broken: it is the hook
    // this test (and CI) uses to force the fallback path.
    EXPECT_EQ(codegen::jitCompilerPath(), "/nonexistent/cxx");

    Sim sim(m);
    codegen::JitResult jr = codegen::jitCompileKernel(sim.netlist());
    EXPECT_EQ(jr.kernel, nullptr);
    EXPECT_FALSE(jr.error.empty());

    if (saved)
        ::setenv("ANVIL_CXX", saved_val.c_str(), 1);
    else
        ::unsetenv("ANVIL_CXX");

    // Attaching an empty kernel ref is refused and the interpreter
    // keeps running correctly.
    EXPECT_FALSE(sim.attachKernel(codegen::kernelRef(jr.kernel)));
    EXPECT_FALSE(sim.kernelAttached());
    sim.setInput("x", 0x55);
    sim.step();
    sim.setInput("x", 0x0f);
    sim.step();
    EXPECT_EQ(sim.captureRegs()[0].toUint64(), 0x55ull ^ 0x0full);
}

} // namespace
