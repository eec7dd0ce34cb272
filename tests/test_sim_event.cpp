/**
 * @file
 * Sweep-mode differential matrix: the full and dirty sweeps — and,
 * when a system compiler is available, the compiled (JIT kernel)
 * backend — must be bit-identical on every observable
 * surface — final registers, total toggles, dprint logs, VCD bytes,
 * coverage JSON, and BMC states_explored — across every evaluation
 * design plus the seeded low-activity AXI-crossbar and
 * set-associative-TLB workloads.  Also pins the structural properties the event-driven
 * sweep relies on (fan-out CSR shape, changed-net completeness), pins
 * a mid-run kernel attach against an all-interpreter run, and
 * sanity-checks that dirty sweeping actually evaluates fewer nodes
 * than the dense sweep on sparse stimulus.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <sstream>

#include "codegen/jit.h"
#include "designs/designs.h"
#include "harness.h"
#include "rtl/interp.h"
#include "rtl/vcd.h"
#include "sim_workloads.h"
#include "tb/coverage.h"
#include "verif/bmc.h"

using namespace anvil;
using namespace anvil::rtl;

namespace {

/** Drives one cycle of stimulus into a simulator. */
using DriveFn = std::function<void(Sim &, int cycle)>;

struct ModeRun
{
    std::vector<std::string> regs;
    uint64_t toggles = 0;
    std::vector<std::string> log;
    std::string vcd;
    std::string cov;
    SweepStats stats;
};

/** True when the JIT can find a working system compiler. */
bool
haveJitCompiler()
{
    static const bool have = !codegen::jitCompilerPath().empty();
    return have;
}

/**
 * JIT the design's kernel (shared process-wide cache, so each design
 * compiles once per test binary) and attach it to the simulator.
 */
void
attachJitKernel(Sim &sim)
{
    codegen::JitOptions jo;
    jo.opt_level = 1;   // fast compiles; optimization is benched
    codegen::JitResult jr = codegen::jitCompileKernel(sim.netlist(), jo);
    ASSERT_NE(jr.kernel, nullptr) << jr.error;
    ASSERT_TRUE(sim.attachKernel(codegen::kernelRef(jr.kernel)));
}

ModeRun
runMode(const ModulePtr &mod, SweepMode mode, int cycles,
        const DriveFn &drive, bool compiled = false)
{
    Sim sim(mod);
    sim.setSweepMode(mode);
    if (compiled) {
        attachJitKernel(sim);
        if (!sim.kernelAttached())
            return {};
    }
    std::ostringstream vcd_os;
    VcdWriter vcd(sim, vcd_os);
    tb::Coverage cov;
    for (int cyc = 0; cyc < cycles; cyc++) {
        drive(sim, cyc);
        cov.sample(sim);
        vcd.sample();
        sim.step();
    }
    ModeRun r;
    for (const BitVec &v : sim.captureRegs())
        r.regs.push_back(v.toHex());
    r.toggles = sim.totalToggles();
    r.log = sim.log();
    r.vcd = vcd_os.str();
    r.cov = cov.summaryJson();
    r.stats = sim.sweepStats();
    return r;
}

/**
 * Run both sweep modes on identical stimulus and require
 * bit-identical observables.  When a system compiler is available
 * further runs go through the JIT-compiled kernel backend and must
 * match too.  Returns the per-mode runs for additional activity
 * assertions (indices 0..1 are always Full/Dirty).
 */
std::vector<ModeRun>
expectModesAgree(const ModulePtr &mod, int cycles,
                 const std::function<DriveFn()> &make_drive)
{
    std::vector<ModeRun> runs;
    runs.push_back(runMode(mod, SweepMode::Full, cycles, make_drive()));
    runs.push_back(runMode(mod, SweepMode::Dirty, cycles, make_drive()));
    if (haveJitCompiler()) {
        runs.push_back(runMode(mod, SweepMode::Dirty, cycles,
                               make_drive(), /*compiled=*/true));
        // Forced dense fallback: Full mode drives the kernel's
        // dense per-level functions on every frame, so both halves
        // of the generated scheduler face the whole matrix.
        runs.push_back(runMode(mod, SweepMode::Full, cycles,
                               make_drive(), /*compiled=*/true));
    }
    const ModeRun &full = runs[0];
    for (size_t i = 1; i < runs.size(); i++) {
        SCOPED_TRACE(mod->name + " mode#" + std::to_string(i));
        EXPECT_EQ(full.regs, runs[i].regs);
        EXPECT_EQ(full.toggles, runs[i].toggles);
        EXPECT_EQ(full.log, runs[i].log);
        EXPECT_EQ(full.vcd, runs[i].vcd);
        EXPECT_EQ(full.cov, runs[i].cov);
    }
    // The full sweep evaluates every strict node every cycle.
    EXPECT_EQ(full.stats.nodes_evaluated,
              full.stats.cycles * full.stats.strict_nodes);
    return runs;
}

/** Dense stimulus: every input gets a fresh random value each cycle. */
std::function<DriveFn()>
denseStimulus(unsigned seed)
{
    return [seed]() -> DriveFn {
        auto rng = std::make_shared<std::mt19937_64>(seed);
        auto inputs = std::make_shared<std::vector<std::string>>();
        return [rng, inputs](Sim &sim, int) {
            if (inputs->empty())
                *inputs = sim.inputNames();
            for (const auto &in : *inputs)
                sim.setInput(in, (*rng)());
        };
    };
}

/** Sparse stimulus: inputs change only every k-th cycle. */
std::function<DriveFn()>
sparseStimulus(unsigned seed, int k)
{
    return [seed, k]() -> DriveFn {
        auto rng = std::make_shared<std::mt19937_64>(seed);
        auto inputs = std::make_shared<std::vector<std::string>>();
        return [rng, inputs, k](Sim &sim, int cyc) {
            if (inputs->empty())
                *inputs = sim.inputNames();
            if (cyc % k != 0)
                return;
            for (const auto &in : *inputs)
                sim.setInput(in, (*rng)());
        };
    };
}

TEST(SweepModes, CommonCells)
{
    expectModesAgree(designs::buildFifoBaseline(), 300,
                     denseStimulus(1));
    expectModesAgree(designs::buildSpillRegBaseline(), 300,
                     denseStimulus(2));
    expectModesAgree(designs::buildStreamFifoBaseline(), 300,
                     denseStimulus(3));
}

TEST(SweepModes, Mmu)
{
    expectModesAgree(designs::buildTlbBaseline(), 200,
                     denseStimulus(4));
    expectModesAgree(designs::buildPtwBaseline(), 200,
                     denseStimulus(5));
}

TEST(SweepModes, Axi)
{
    expectModesAgree(designs::buildAxiDemuxBaseline(), 150,
                     denseStimulus(6));
    expectModesAgree(designs::buildAxiMuxBaseline(), 150,
                     denseStimulus(7));
}

TEST(SweepModes, AesAndPipelines)
{
    expectModesAgree(designs::buildAesBaseline(), 60,
                     denseStimulus(8));
    expectModesAgree(designs::buildPipelinedAluBaseline(), 200,
                     denseStimulus(9));
    expectModesAgree(designs::buildSystolicBaseline(), 200,
                     denseStimulus(10));
}

TEST(SweepModes, FigureDemosAndCompiledAnvil)
{
    expectModesAgree(designs::buildHazardDemoSystem(), 100,
                     denseStimulus(11));
    expectModesAgree(designs::buildCacheDemoBaseline(), 100,
                     denseStimulus(12));
    auto fifo = anvil::testing::compileDesign(
        designs::anvilFifoSource(), "fifo");
    ASSERT_NE(fifo, nullptr);
    expectModesAgree(fifo, 200, denseStimulus(13));
    auto tlb = anvil::testing::compileDesign(
        designs::anvilTlbSource(), "tlb");
    ASSERT_NE(tlb, nullptr);
    expectModesAgree(tlb, 200, denseStimulus(14));
}

TEST(SweepModes, SparseStimulusCutsEvaluations)
{
    // Under sparse stimulus the dirty sweep must agree bit-for-bit
    // AND do strictly less work than the dense sweep.
    auto runs = expectModesAgree(designs::buildTlbBaseline(), 400,
                                 sparseStimulus(21, 8));
    EXPECT_LT(runs[1].stats.nodes_evaluated,
              runs[0].stats.nodes_evaluated / 2);
}

TEST(SweepModes, XbarWorkload)
{
    auto mod = designs::buildAxiXbarBaseline(4, 4);
    auto make_drive = []() -> DriveFn {
        auto stim =
            std::make_shared<anvil::testing::XbarStimulus>(4, 4, 99);
        return [stim](Sim &sim, int) {
            for (const auto &[name, v] : stim->next())
                sim.setInput(name, v);
        };
    };
    auto runs = expectModesAgree(mod, 600, make_drive);
    // The crossbar compiles strictly: every router cone levelizes.
    Sim probe(mod);
    EXPECT_TRUE(probe.netlist().lazyRoots().empty());
    // Low-activity traffic must touch well under half the design.
    EXPECT_LT(runs[1].stats.nodes_evaluated * 2,
              runs[0].stats.nodes_evaluated);
}

TEST(SweepModes, SetAssocTlbWorkload)
{
    auto mod = designs::buildSetAssocTlbBaseline(4, 32);
    auto make_drive = []() -> DriveFn {
        auto stim =
            std::make_shared<anvil::testing::TlbStimulus>(1234);
        return [stim](Sim &sim, int) {
            for (const auto &[name, v] : stim->next())
                sim.setInput(name, v);
        };
    };
    auto runs = expectModesAgree(mod, 600, make_drive);
    EXPECT_LT(runs[1].stats.nodes_evaluated * 2,
              runs[0].stats.nodes_evaluated);
}

/**
 * The compiled kernel's changed-net list must be EXACT (the kernel
 * ABI's eval() contract): set-equal, every cycle, to what the interpreter's dirty
 * sweep reports for identical stimulus.  Order may differ (the
 * kernel emits in level/worklist order, the interpreter in bucket
 * order), so both sides are sorted and deduplicated before compare.
 */
void
expectChangedSetsEqual(const ModulePtr &mod, int cycles,
                       const std::function<DriveFn()> &make_drive)
{
    SCOPED_TRACE(mod->name);
    Sim interp(mod), compiled(mod);
    interp.setSweepMode(SweepMode::Dirty);
    compiled.setSweepMode(SweepMode::Dirty);
    attachJitKernel(compiled);
    ASSERT_TRUE(compiled.kernelAttached());
    DriveFn da = make_drive(), db = make_drive();
    for (int cyc = 0; cyc < cycles; cyc++) {
        da(interp, cyc);
        db(compiled, cyc);
        std::vector<NetId> a(interp.changedNets().begin(),
                             interp.changedNets().end());
        std::vector<NetId> b(compiled.changedNets().begin(),
                             compiled.changedNets().end());
        std::sort(a.begin(), a.end());
        a.erase(std::unique(a.begin(), a.end()), a.end());
        std::sort(b.begin(), b.end());
        b.erase(std::unique(b.begin(), b.end()), b.end());
        ASSERT_EQ(a, b) << "cycle " << cyc;
        interp.step();
        compiled.step();
    }
}

TEST(SweepModes, CompiledChangedListIsExactOnEvalDesigns)
{
    if (!haveJitCompiler())
        GTEST_SKIP() << "no system compiler available";
    expectChangedSetsEqual(designs::buildFifoBaseline(), 150,
                           denseStimulus(31));
    expectChangedSetsEqual(designs::buildSpillRegBaseline(), 150,
                           denseStimulus(32));
    expectChangedSetsEqual(designs::buildStreamFifoBaseline(), 150,
                           denseStimulus(33));
    expectChangedSetsEqual(designs::buildTlbBaseline(), 120,
                           denseStimulus(34));
    expectChangedSetsEqual(designs::buildPtwBaseline(), 120,
                           denseStimulus(35));
    expectChangedSetsEqual(designs::buildAxiDemuxBaseline(), 100,
                           denseStimulus(36));
    expectChangedSetsEqual(designs::buildAxiMuxBaseline(), 100,
                           denseStimulus(37));
    expectChangedSetsEqual(designs::buildAesBaseline(), 40,
                           denseStimulus(38));
    expectChangedSetsEqual(designs::buildPipelinedAluBaseline(), 120,
                           denseStimulus(39));
    expectChangedSetsEqual(designs::buildSystolicBaseline(), 120,
                           denseStimulus(40));
    expectChangedSetsEqual(designs::buildHazardDemoSystem(), 80,
                           denseStimulus(41));
    expectChangedSetsEqual(designs::buildCacheDemoBaseline(), 80,
                           denseStimulus(42));
    // Sparse stimulus keeps the kernel on the sparse worklist path
    // for the whole run, so exactness is pinned there too, not just
    // under dense traffic that trips the fallback.
    expectChangedSetsEqual(designs::buildTlbBaseline(), 300,
                           sparseStimulus(43, 8));
}

TEST(SweepModes, CompiledChangedListIsExactOnWorkloads)
{
    if (!haveJitCompiler())
        GTEST_SKIP() << "no system compiler available";
    auto xbar_drive = []() -> DriveFn {
        auto stim =
            std::make_shared<anvil::testing::XbarStimulus>(4, 4, 99);
        return [stim](Sim &sim, int) {
            for (const auto &[name, v] : stim->next())
                sim.setInput(name, v);
        };
    };
    expectChangedSetsEqual(designs::buildAxiXbarBaseline(4, 4), 300,
                           xbar_drive);
    auto tlb_drive = []() -> DriveFn {
        auto stim =
            std::make_shared<anvil::testing::TlbStimulus>(1234);
        return [stim](Sim &sim, int) {
            for (const auto &[name, v] : stim->next())
                sim.setInput(name, v);
        };
    };
    expectChangedSetsEqual(designs::buildSetAssocTlbBaseline(4, 32),
                           300, tlb_drive);
}

/**
 * Tiered start: run `switch_at` cycles on the interpreter with every
 * observer live, attach the kernel at that cycle boundary, and run
 * on.  The lent frame needs no resync, so every artifact — registers,
 * toggles, log, VCD bytes, coverage JSON, and each cycle's
 * changed-net set — equals an all-interpreter run's.
 */
void
expectMidRunAttachAgrees(const ModulePtr &mod, int cycles, int switch_at,
                         const std::function<DriveFn()> &make_drive)
{
    SCOPED_TRACE(mod->name + " attach@" + std::to_string(switch_at));
    Sim ref(mod), tier(mod);
    std::ostringstream ref_os, tier_os;
    VcdWriter ref_vcd(ref, ref_os), tier_vcd(tier, tier_os);
    tb::Coverage ref_cov, tier_cov;
    DriveFn da = make_drive(), db = make_drive();
    for (int cyc = 0; cyc < cycles; cyc++) {
        if (cyc == switch_at) {
            attachJitKernel(tier);
            ASSERT_TRUE(tier.kernelAttached());
        }
        da(ref, cyc);
        db(tier, cyc);
        std::vector<NetId> a = ref.changedNets(), b = tier.changedNets();
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        ASSERT_EQ(a, b) << "cycle " << cyc;
        ref_cov.sample(ref);
        tier_cov.sample(tier);
        ref_vcd.sample();
        tier_vcd.sample();
        ref.step();
        tier.step();
        ASSERT_EQ(ref.totalToggles(), tier.totalToggles()) << cyc;
    }
    ASSERT_GT(tier.sweepStats().kernel_frames, 0u);
    auto ra = ref.captureRegs(), rb = tier.captureRegs();
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); i++)
        EXPECT_EQ(ra[i].toHex(), rb[i].toHex());
    EXPECT_EQ(ref.log(), tier.log());
    EXPECT_EQ(ref_os.str(), tier_os.str());
    EXPECT_EQ(ref_cov.summaryJson(), tier_cov.summaryJson());
}

TEST(SweepModes, MidRunKernelAttachMatchesInterpreter)
{
    if (!haveJitCompiler())
        GTEST_SKIP() << "no system compiler available";
    expectMidRunAttachAgrees(designs::buildFifoBaseline(), 200, 73,
                             denseStimulus(51));
    expectMidRunAttachAgrees(designs::buildAesBaseline(), 50, 17,
                             denseStimulus(52));
    expectMidRunAttachAgrees(designs::buildTlbBaseline(), 300, 120,
                             sparseStimulus(53, 8));
    // Attach before the first sweep: the pending dense resweep
    // carries over to the kernel.
    expectMidRunAttachAgrees(designs::buildHazardDemoSystem(), 80, 0,
                             denseStimulus(54));
}

TEST(SweepModes, XbarRoutesTraffic)
{
    // The composed crossbar actually moves transactions: drive one
    // master at slave 2 and watch the aw appear on s2 with the
    // routed address, then the B response return to the master.
    auto mod = designs::buildAxiXbarBaseline(4, 4);
    Sim sim(mod);
    for (const auto &in : sim.inputNames())
        sim.setInput(in, 0);
    for (int j = 0; j < 4; j++) {
        std::string p = "s" + std::to_string(j);
        sim.setInput(p + "_aw_ack", 1);
        sim.setInput(p + "_w_ack", 1);
        sim.setInput(p + "_b_valid", 1);
        sim.setInput(p + "_b_data", 1);
    }
    uint64_t addr = (2ull << 29) | 0x44;
    sim.setInput("m1_aw_data", addr);
    sim.setInput("m1_aw_valid", 1);
    sim.setInput("m1_w_data", 0xabcd);
    sim.setInput("m1_w_valid", 1);
    sim.setInput("m1_b_ack", 1);
    bool saw_aw = false, saw_b = false;
    for (int cyc = 0; cyc < 20; cyc++) {
        if (sim.peek("s2_aw_valid").any()) {
            saw_aw = true;
            EXPECT_EQ(sim.peek("s2_aw_data").toUint64(), addr);
            EXPECT_EQ(sim.peek("s2_w_data").toUint64(), 0xabcdu);
        }
        if (sim.peek("m1_b_valid").any()) {
            saw_b = true;
            EXPECT_EQ(sim.peek("m1_b_data").toUint64(), 1u);
        }
        sim.step();
    }
    EXPECT_TRUE(saw_aw);
    EXPECT_TRUE(saw_b);
    // No other slave ever saw the write.
    EXPECT_FALSE(sim.peek("s0_aw_valid").any());
}

TEST(SweepModes, SetAssocTlbDirectMappedReplaces)
{
    // ways == 1: every fill to a set must land in way 0 (the victim
    // counter wraps modulo ways, not modulo its register width).
    auto mod = designs::buildSetAssocTlbBaseline(1, 8);
    Sim sim(mod);
    for (const auto &in : sim.inputNames())
        sim.setInput(in, 0);
    sim.setInput("io_res_ack", 1);
    uint64_t vpn1 = 0x100, vpn2 = 0x200;   // same set index 0
    for (uint64_t vpn : {vpn1, vpn2}) {
        sim.setInput("io_upd_data", (vpn << 32) | (vpn + 7));
        sim.setInput("io_upd_valid", 1);
        sim.step();
    }
    sim.setInput("io_upd_valid", 0);
    // The second fill replaced the first (direct-mapped).
    sim.setInput("io_req_valid", 1);
    sim.setInput("io_req_data", vpn2);
    EXPECT_EQ(sim.peek("io_res_data").slice(32, 1).toUint64(), 1u);
    sim.setInput("io_req_data", vpn1);
    EXPECT_EQ(sim.peek("io_res_data").slice(32, 1).toUint64(), 0u);
}

TEST(SweepModes, VcdDuplicateTracesOfOneNetStayInSync)
{
    // An alias and its resolved flat name are two traces of one
    // net; both must keep emitting changes (only one can ride the
    // change feed).
    auto top = std::make_shared<Module>();
    top->name = "top";
    auto x = top->input("x", 8);
    auto child = std::make_shared<Module>();
    child->name = "inc";
    auto ca = child->input("a", 8);
    child->output("y", 8);
    child->wire("y", ca + cst(8, 1));
    Instance inst;
    inst.name = "u";
    inst.module = child;
    inst.inputs["a"] = x;
    inst.outputs["x_plus_1"] = "y";
    top->instances.push_back(std::move(inst));

    Sim sim(top);
    std::ostringstream os;
    VcdWriter vcd(sim, os, {"x_plus_1", "u.y"});
    for (int cyc = 0; cyc < 6; cyc++) {
        sim.setInput("x", static_cast<uint64_t>(cyc * 3));
        vcd.sample();
        sim.step();
    }
    // Both id-codes ("!" and "\"") must appear once per change; the
    // two streams are the same net so their change counts match.
    std::string dump = os.str();
    size_t a = 0, b = 0;
    for (size_t pos = 0; (pos = dump.find("!\n", pos)) !=
         std::string::npos; pos++)
        a++;
    for (size_t pos = 0; (pos = dump.find("\"\n", pos)) !=
         std::string::npos; pos++)
        b++;
    EXPECT_EQ(a, b);
    EXPECT_GE(a, 6u);   // initial dump + five changes
}

TEST(SweepModes, ObserversSurviveSampleThenPokeOrdering)
{
    // Poking an input AFTER the observers sampled (and before the
    // edge) flushes its change record with the edge, so the
    // per-cycle feed never lists it.  The poke-tick guard must
    // detect this and force a full rescan; without it the observers
    // would freeze the input at its initial value forever.
    auto mod = designs::buildFifoBaseline();
    Sim sim(mod);
    for (const auto &in : sim.inputNames())
        sim.setInput(in, 0);
    std::ostringstream os;
    VcdWriter vcd(sim, os, {"inp_enq_data"});
    tb::Coverage cov;
    for (int cyc = 0; cyc < 20; cyc++) {
        cov.sample(sim);
        vcd.sample();
        // Late poke: alternate all data bits every cycle.
        sim.setInput("inp_enq_data",
                     cyc % 2 ? 0xffffffffull : 0x0ull);
        sim.step();
    }
    // Every bit of the input rose and fell in view of the observers.
    int covered = -1, width = 0;
    for (const auto &sc : cov.signals())
        if (sc.name == "inp_enq_data") {
            covered = sc.coveredBits();
            width = sc.width;
        }
    EXPECT_EQ(covered, width);
    // And the dump records the alternation: one value line per flip
    // seen after the header (lines "b<bits> <id>").
    std::string dump = os.str();
    size_t body = dump.find("$enddefinitions");
    ASSERT_NE(body, std::string::npos);
    size_t lines = 0, pos = body;
    while ((pos = dump.find("\nb", pos)) != std::string::npos) {
        lines++;
        pos++;
    }
    EXPECT_GE(lines, 17u);
}

TEST(SweepModes, SetAssocTlbHitsAfterFill)
{
    auto mod = designs::buildSetAssocTlbBaseline(2, 8);
    Sim sim(mod);
    for (const auto &in : sim.inputNames())
        sim.setInput(in, 0);
    sim.setInput("io_res_ack", 1);
    uint64_t vpn = 0x1234567;
    sim.setInput("io_upd_data", (vpn << 32) | 0x89abcdefull);
    sim.setInput("io_upd_valid", 1);
    sim.step();
    sim.setInput("io_upd_valid", 0);
    sim.setInput("io_req_data", vpn);
    sim.setInput("io_req_valid", 1);
    BitVec res = sim.peek("io_res_data");
    EXPECT_EQ(res.slice(32, 1).toUint64(), 1u);   // hit
    EXPECT_EQ(res.slice(0, 32).toUint64(), 0x89abcdefull);
    // A different VPN misses.
    sim.setInput("io_req_data", vpn ^ 0x100);
    EXPECT_EQ(sim.peek("io_res_data").slice(32, 1).toUint64(), 0u);
}

TEST(SweepModes, BmcStatesIdenticalAcrossModes)
{
    auto m = std::make_shared<Module>();
    m->name = "cnt";
    auto c = m->reg("c", 4);
    m->update("c", cst(1, 1), c + cst(4, 1));
    verif::Assertion a{"c_ne_9", cst(1, 1), ne(c, cst(4, 9))};

    verif::BmcOptions base;
    base.max_depth = 12;
    std::vector<verif::BmcResult> results;
    for (SweepMode mode : {SweepMode::Full, SweepMode::Dirty}) {
        verif::BmcOptions opts = base;
        opts.sweep_mode = mode;
        results.push_back(verif::boundedModelCheck(m, {a}, opts));
    }
    if (haveJitCompiler()) {
        // Same exploration through the compiled kernel backend.  The
        // netlist build is deterministic, so a kernel compiled from a
        // probe Sim hash-matches the one inside boundedModelCheck.
        Sim probe(m);
        codegen::JitOptions jo;
        jo.opt_level = 1;
        auto jr = codegen::jitCompileKernel(probe.netlist(), jo);
        ASSERT_NE(jr.kernel, nullptr) << jr.error;
        verif::BmcOptions opts = base;
        opts.kernel = codegen::kernelRef(jr.kernel);
        results.push_back(verif::boundedModelCheck(m, {a}, opts));
    }
    for (size_t i = 1; i < results.size(); i++) {
        EXPECT_EQ(results[0].states_explored,
                  results[i].states_explored);
        EXPECT_EQ(results[0].status, results[i].status);
        EXPECT_EQ(results[0].depth_reached, results[i].depth_reached);
    }
    EXPECT_TRUE(results[0].foundViolation());
}

TEST(SweepModes, FanoutCsrMatchesOperands)
{
    // Every strict node appears in the fan-out list of each of its
    // operands exactly as often as it reads them.
    Sim sim(designs::buildTlbBaseline());
    const Netlist &nl = sim.netlist();
    const auto &fb = nl.fanoutBegin();
    ASSERT_EQ(fb.size(), nl.nets().size() + 1);
    std::map<std::pair<NetId, NetId>, int> expected;
    for (NetId id : nl.order()) {
        const Net &n = nl.net(id);
        auto add = [&](NetId o) {
            if (o != kNoNet)
                expected[{o, id}]++;
        };
        add(n.a);
        add(n.b);
        add(n.c);
        for (NetId o : n.cargs)
            add(o);
    }
    std::map<std::pair<NetId, NetId>, int> actual;
    for (size_t i = 0; i < nl.nets().size(); i++)
        for (int32_t k = fb[i]; k < fb[i + 1]; k++)
            actual[{static_cast<NetId>(i),
                    nl.fanout()[static_cast<size_t>(k)]}]++;
    EXPECT_EQ(expected, actual);
}

TEST(SweepModes, ChangedNetsCoverEveryNamedChange)
{
    // Completeness: any named signal whose value differs from the
    // previous cycle must be on the changed-net list when sampled at
    // the same point an observer would sample.
    auto mod = designs::buildFifoBaseline();
    Sim sim(mod);
    std::mt19937_64 rng(77);
    auto inputs = sim.inputNames();
    std::map<std::string, std::string> prev;
    for (int cyc = 0; cyc < 120; cyc++) {
        for (const auto &in : inputs)
            sim.setInput(in, rng());
        std::map<NetId, bool> changed;
        for (NetId id : sim.changedNets())
            changed[id] = true;
        for (const auto &[name, sig] : sim.netlist().signals()) {
            std::string hex = sim.peek(name).toHex();
            auto it = prev.find(name);
            if (it != prev.end() && it->second != hex) {
                EXPECT_TRUE(changed.count(sig.net))
                    << name << " changed at cycle " << cyc
                    << " but is not on the changed-net list";
            }
            prev[name] = hex;
        }
        sim.step();
    }
}

TEST(SweepModes, ModeSwitchMidRunStaysConsistent)
{
    // Switching modes mid-run forces one dense resweep and then
    // continues bit-identically with a reference kept in Full mode.
    auto mod = designs::buildTlbBaseline();
    Sim a(mod), b(mod);
    a.setSweepMode(SweepMode::Full);
    std::mt19937_64 rng(55);
    auto inputs = a.inputNames();
    for (int cyc = 0; cyc < 150; cyc++) {
        if (cyc == 50)
            b.setSweepMode(SweepMode::Full);
        if (cyc == 100)
            b.setSweepMode(SweepMode::Dirty);
        for (const auto &in : inputs) {
            uint64_t v = rng();
            a.setInput(in, v);
            b.setInput(in, v);
        }
        a.step();
        b.step();
        ASSERT_EQ(a.totalToggles(), b.totalToggles()) << cyc;
    }
    auto ra = a.captureRegs(), rb = b.captureRegs();
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); i++)
        EXPECT_EQ(ra[i].toHex(), rb[i].toHex());
}

} // namespace
