/**
 * @file
 * One time-to-verdict job, run in a fresh process by run.py.
 *
 *   verdict_job --workload W --seed N [--trace 0|1]
 *               [--backend compiled|interp] [--oracle P]
 *
 * Runs workload W from source (or netlist builder) to a verdict —
 * "N cycles simulated with coverage and contracts graded" — and
 * prints one JSON record on stdout: the verdict digest, the
 * end-to-end times, the exact counts, and the per-layer ledger.
 *
 * Every timing is taken here, around the public entry points of each
 * layer; the program itself is not instrumented.  An untraced job
 * runs the frontend through compileAnvil itself, so the end-to-end
 * figures measure the program's own pipeline.  `--trace 1` runs the
 * same pipeline step by step with a span around each layer's entry
 * point, and adds the per-cycle probes: a SimTelemetry sink on the
 * simulator, a
 * TraceProfiler on the change feed (per-observer visit time),
 * bracketing drivers around the stimulus drivers, a check hook plus
 * a first-attached marker observer bracketing the feed's fan-out,
 * and a standalone emitCppKernel call so emission and compilation
 * can be told apart.  Farm workers (run::runFarm) are not reachable
 * from outside; their per-cycle phases come from the timers every
 * worker already records, as merged by obs::Merger.
 *
 * `--oracle P` re-runs the first P cycles of the job's stimulus
 * after the verdict, on the job's engine and on rtl::RefSim side by
 * side, and compares register state, toggles, and dprint output.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "anvil/compiler.h"
#include "anvil/sim_runner.h"
#include "codegen/cpp_emitter.h"
#include "codegen/jit.h"
#include "codegen/rtl_gen.h"
#include "codegen/sv_printer.h"
#include "designs/designs.h"
#include "formal/contracts.h"
#include "ir/elaborate.h"
#include "ir/optimize.h"
#include "lang/parser.h"
#include "obs/merge.h"
#include "obs/profiler.h"
#include "rtl/interp.h"
#include "rtl/ref_interp.h"
#include "support/strings.h"
#include "tb/testbench.h"
#include "trace/contracts.h"
#include "types/checker.h"

using namespace anvil;

namespace {

/** The repaired Fig. 6 Encrypt (the paper's text does not type
 *  check); the same text bench_sim_perf simulates. */
const char *kEncryptSource = R"(
chan encrypt_ch {
    left enc_req : (logic[8]@enc_res),
    right enc_res : (logic[8]@enc_req)
}
chan rng_ch {
    left rng_req : (logic[8]@#1),
    right rng_res : (logic[8]@#2)
}

proc encrypt(ch1 : left encrypt_ch, ch2 : left rng_ch) {
    reg noise_q : logic[8];
    reg rd1_ctext : logic[8];
    reg r2_key : logic[8];
    loop {
        let ptext = recv ch1.enc_req;
        let nq = { let noise = recv ch2.rng_req >>
                   set noise_q := noise };
        let r1_key = 25;
        ptext >> nq >>
        if ptext != 0 {
            set rd1_ctext := (ptext ^ r1_key) + *noise_q
        } else {
            set rd1_ctext := ptext
        };
        cycle 1 >>
        set r2_key := r1_key ^ *noise_q >>
        send ch2.rng_res (*r2_key) >>
        cycle 2 >>
        send ch1.enc_res (*rd1_ctext ^ *r2_key) >>
        cycle 1
    }
}
)";

/** Near the compiled kernel's break-even against the interpreter on
 *  the reference host, so setup and run both weigh in the verdict. */
constexpr uint64_t kAesCycles = 150000;
/** Three workers leave one of four cores to the OS. */
constexpr int kFarmWorkers = 3;
constexpr uint64_t kFarmCycles = 400000;   // per worker

uint64_t
now()
{
    return rtl::monotonicNanos();
}

double
seconds(uint64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

uint64_t
fnv1a(const std::string &bytes, uint64_t h = 1469598103934665603ull)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex64(uint64_t v)
{
    return strfmt("%016llx", static_cast<unsigned long long>(v));
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (unsigned char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += static_cast<char>(c);
        } else if (c < 0x20) {
            out += strfmt("\\u%04x", c);
        } else {
            out += static_cast<char>(c);
        }
    }
    return out + "\"";
}

void
require(bool cond, const std::string &why)
{
    if (!cond)
        throw std::runtime_error(why);
}

/** Named span totals, in nanoseconds. */
struct Ledger
{
    std::map<std::string, uint64_t> ns;

    template <typename F>
    auto span(const std::string &layer, F &&fn)
    {
        uint64_t t0 = now();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            ns[layer] += now() - t0;
        } else {
            auto r = fn();
            ns[layer] += now() - t0;
            return r;
        }
    }
};

/**
 * Per-cycle probes of a traced run.  Sim phases arrive through the
 * SimTelemetry interface; a phase that runs while a bracket (the
 * stimulus drivers, or the feed's fan-out) is open is also booked
 * as nested, so the bracket's self-time excludes it.
 */
class CycleProbe : public rtl::SimTelemetry
{
  public:
    void simPhase(rtl::SimPhase phase, uint64_t, uint64_t begin_ns,
                  uint64_t end_ns) override
    {
        uint64_t d = end_ns - begin_ns;
        phase_ns[static_cast<int>(phase)] += d;
        if (_open)
            _nested += d;
    }

    void open()
    {
        _open = true;
        _nested = 0;
        _t0 = now();
    }

    /** Close the bracket; returns its self-time. */
    uint64_t close()
    {
        uint64_t d = now() - _t0;
        _open = false;
        return d > _nested ? d - _nested : 0;
    }

    uint64_t phase_ns[rtl::kSimPhaseCount] = {};
    uint64_t drive_ns = 0;
    uint64_t feed_ns = 0;

  private:
    bool _open = false;
    uint64_t _t0 = 0;
    uint64_t _nested = 0;
};

/** Opens (first registered) or closes (last registered) the
 *  stimulus-drive bracket. */
class DriveMark : public tb::Driver
{
  public:
    DriveMark(CycleProbe &probe, bool begin)
        : _probe(probe), _begin(begin)
    {
    }

    void drive(rtl::Sim &, uint64_t, tb::SplitMix64 &) override
    {
        if (_begin)
            _probe.open();
        else
            _probe.drive_ns += _probe.close();
    }

  private:
    CycleProbe &_probe;
    bool _begin;
};

/** First observer on the feed: its visit closes the fan-out bracket
 *  a check hook opened just before ChangeFeed::sample. */
class FeedMark : public obs::Observer
{
  public:
    explicit FeedMark(CycleProbe &probe) : _probe(probe) {}

    void onAttach(obs::ChangeFeed &) override {}
    void onPrime(rtl::Sim &, uint64_t) override { mark(); }
    void onCycle(rtl::Sim &, uint64_t,
                 const std::vector<rtl::NetId> &) override
    {
        mark();
    }
    const char *observerName() const override { return "feed-mark"; }

  private:
    void mark() { _probe.feed_ns += _probe.close(); }

    CycleProbe &_probe;
};

/** The frontend's products: the parsed program, per-process RTL,
 *  and the live event count after optimisation. */
struct Frontend
{
    Program program;
    std::map<std::string, rtl::ModulePtr> modules;
    uint64_t events = 0;
};

std::string
firstError(const DiagEngine &diags)
{
    for (const Diagnostic &d : diags.all())
        if (d.severity == Severity::Error)
            return d.message;
    return "unknown error";
}

/** The frontend of an untraced job: compileAnvil, unsplit.  A type
 *  error fails the job: every workload design is timing-safe. */
Frontend
compilePlain(const std::string &source, const std::string &top)
{
    CompileOptions opts;
    opts.top = top;
    CompileOutput res = compileAnvil(source, opts);
    require(res.ok, "compile: " + firstError(res.diags));
    require(res.modules.count(top) != 0, "no process named " + top);
    Frontend fe;
    fe.program = std::move(res.program);
    fe.modules = std::move(res.modules);
    for (const auto &[proc, s] : res.opt_stats)
        fe.events += static_cast<uint64_t>(s.after);
    return fe;
}

/** Spawned children before their parents (compileAnvil's order). */
std::vector<const ProcDef *>
spawnOrder(const Program &prog)
{
    std::vector<const ProcDef *> order;
    std::set<std::string> done;
    std::function<void(const ProcDef &)> visit = [&](const ProcDef &p) {
        if (!done.insert(p.name).second)
            return;
        for (const auto &s : p.spawns) {
            const ProcDef *child = prog.findProc(s.proc_name);
            require(child != nullptr,
                    "spawn of unknown process " + s.proc_name);
            visit(*child);
        }
        order.push_back(&p);
    };
    for (const auto &[name, p] : prog.procs)
        visit(p);
    return order;
}

/**
 * compileAnvil's pipeline, step by step, with a span around each
 * layer's entry point (traced jobs).  The run checks that ir.events,
 * the netlist and the verdict match the untraced jobs' compileAnvil.
 */
Frontend
compileTimed(const std::string &source, const std::string &top,
             Ledger &lg)
{
    Frontend fe;
    DiagEngine diags;
    fe.program = lg.span("lang.parse_s",
                         [&] { return parseAnvil(source, diags); });
    require(!diags.hasErrors(), "parse: " + firstError(diags));
    std::vector<const ProcDef *> order = spawnOrder(fe.program);

    for (const ProcDef *proc : order) {
        ProcIR ir = lg.span("ir.elaborate_s", [&] {
            return elaborateProc(fe.program, *proc, diags, 2);
        });
        lg.span("types.check_s", [&] { checkProc(ir, diags); });
    }
    require(!diags.hasErrors(), "type check: " + firstError(diags));

    for (const ProcDef *proc : order) {
        ProcIR ir = lg.span("ir.elaborate_s", [&] {
            return elaborateProc(fe.program, *proc, diags, 1);
        });
        for (auto &t : ir.threads) {
            OptStats s = lg.span("ir.optimize_s", [&] {
                return optimizeEventGraph(t->graph);
            });
            fe.events += static_cast<uint64_t>(s.after);
        }
        fe.modules[proc->name] = lg.span("codegen.rtl_s", [&] {
            return generateRtl(ir, fe.modules, diags);
        });
    }
    require(!diags.hasErrors(), "codegen: " + firstError(diags));
    require(fe.modules.count(top) != 0, "no process named " + top);
    std::string sv = lg.span("codegen.rtl_s", [&] {
        return printSystemVerilogHierarchy(*fe.modules[top]);
    });
    require(!sv.empty(), "empty SystemVerilog");
    return fe;
}

/** anvilc's contract resolution: typed obligations plus the netlist
 *  guess for internal channels, else the netlist guess alone. */
std::vector<trace::ContractSpec>
typedContracts(const Frontend &fe, const std::string &top,
               const rtl::Netlist &nl, Ledger &lg)
{
    return lg.span("formal.contracts_s", [&] {
        formal::ContractSet typed =
            formal::inferContracts(fe.program, top);
        if (typed.channels.empty())
            return trace::inferContracts(nl);
        return formal::checkableSpecs(typed, nl);
    });
}

Frontend
compileFrontend(const std::string &source, const std::string &top,
                bool trace, Ledger &lg)
{
    return trace ? compileTimed(source, top, lg) : compilePlain(source, top);
}

/** An event stream once wall-clock noise is dropped — timer events
 *  and run_end's wall_ns, as cli_farm_e2e normalises them — so it
 *  repeats exactly at a seed. */
std::string
stableStream(const std::string &events)
{
    std::string out;
    std::istringstream in(events);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"e\":\"timer\"") != std::string::npos)
            continue;
        size_t p = line.find("\"wall_ns\":");
        if (p != std::string::npos) {
            size_t q = p + 10;
            while (q < line.size() && line[q] >= '0' && line[q] <= '9')
                q++;
            line.replace(p + 10, q - (p + 10), "0");
        }
        out += line + "\n";
    }
    return out;
}

/** Register state, dprint output: the engine-independent end state. */
uint64_t
stateHash(rtl::Sim &sim)
{
    std::vector<std::string> names = sim.regNames();
    std::sort(names.begin(), names.end());
    uint64_t h = fnv1a("");
    for (const std::string &n : names)
        h = fnv1a(n + "=" + sim.regValue(n).toHex() + ";", h);
    for (const std::string &line : sim.log())
        h = fnv1a(line + "\n", h);
    return h;
}

double
peakRssMb()
{
    struct rusage ru;
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    bool trace = false;
    bool compiled = false;
    uint64_t oracle = 0;
};

/** Stimulus installer, shared by the measured bench and the oracle
 *  so both see the same input stream. */
using Stimulus = std::function<void(tb::Testbench &)>;

Stimulus
randomStimulus()
{
    return [](tb::Testbench &bench) {
        for (const auto &in : bench.sim().inputNames())
            bench.driveRandom(in);
    };
}

/** What every job reports, whatever its shape. */
struct Outcome
{
    // verdict digest
    uint64_t cycles = 0;
    uint64_t toggles = 0;
    uint64_t failures = 0;
    std::string coverage;
    uint64_t state = 0;
    // end-to-end
    uint64_t t_start = 0, t_first_cycle = 0, t_verdict = 0;
    uint64_t run_ns = 0;
    double rss_mb = 0;
    bool fallback = false;
    // jobs: one single run, or one per farm worker
    struct Job
    {
        bool ok = true;
        uint64_t wall_ns = 0;
    };
    std::vector<Job> jobs;
    // exact counts and per-layer values
    std::map<std::string, double> counts;
    Ledger lg;
    std::string farm_metrics;   // merged anvil-metrics-v1 (farm only)
    // oracle
    std::string oracle;
};

/** The single-process simulation shape of aes_cold_compiled. */
struct SingleRun
{
    rtl::ModulePtr top;
    std::shared_ptr<const rtl::Netlist> netlist;
    std::vector<trace::ContractSpec> contracts;
    Stimulus stimulus;
    rtl::KernelRef kernel;
};

/**
 * The oracle: the first `prefix` cycles of the job's stimulus on the
 * job's engine (kernel attached when it has one) and on RefSim in
 * lockstep; a mirror driver copies every input the stimulus set
 * into RefSim, a check hook steps it.
 */
std::string
oracleCheck(const SingleRun &sr, uint64_t seed, uint64_t prefix)
{
    tb::Testbench bench(sr.top, sr.netlist, seed);
    bench.sim().setSweepMode(rtl::SweepMode::Dirty);
    if (sr.kernel.abi)
        require(bench.sim().attachKernel(sr.kernel),
                "oracle: kernel attach failed");
    rtl::RefSim ref(sr.top);
    sr.stimulus(bench);
    std::vector<std::string> inputs = bench.sim().inputNames();
    bench.driveWith([&](rtl::Sim &sim, uint64_t, tb::SplitMix64 &) {
        for (const std::string &in : inputs)
            ref.setInput(in, sim.peek(in));
    });
    bench.check("ref-step", [&](tb::Testbench &) { ref.step(); });
    bench.run(prefix);
    rtl::Sim &sim = bench.sim();

    if (sim.totalToggles() != ref.totalToggles())
        return strfmt("toggles %llu vs RefSim %llu",
                      (unsigned long long)sim.totalToggles(),
                      (unsigned long long)ref.totalToggles());
    if (sim.log() != ref.log())
        return "dprint output differs from RefSim";
    std::vector<std::string> names = sim.regNames();
    if (names.size() != ref.regNames().size())
        return "register count differs from RefSim";
    for (const std::string &n : names)
        if (sim.regValue(n) != ref.regValue(n))
            return "register " + n + " differs from RefSim";
    return "";
}

void
runSingle(const SingleRun &sr, const Options &opt, uint64_t cycles,
          Outcome &out)
{
    Ledger &lg = out.lg;
    out.counts["rtl.nets"] = static_cast<double>(sr.netlist->nets().size());
    out.counts["rtl.levels"] = static_cast<double>(sr.netlist->levelCount());
    CycleProbe probe;
    obs::TraceProfiler profiler(/*record_events=*/false);

    auto bench = lg.span("tb.setup_s", [&] {
        auto b = std::make_unique<tb::Testbench>(sr.top, sr.netlist,
                                                 opt.seed);
        b->sim().setSweepMode(rtl::SweepMode::Dirty);
        if (sr.kernel.abi && !b->sim().attachKernel(sr.kernel))
            out.fallback = true;
        if (opt.trace) {
            b->sim().setTelemetry(&probe);
            b->feed().setProfiler(&profiler);
            b->attachObserver(std::make_unique<FeedMark>(probe));
            b->addDriver(std::make_unique<DriveMark>(probe, true));
        }
        sr.stimulus(*b);
        if (opt.trace) {
            b->addDriver(std::make_unique<DriveMark>(probe, false));
            b->check("feed-open", [&probe](tb::Testbench &) {
                probe.open();
            });
        }
        if (!sr.contracts.empty())
            b->addMonitor(std::make_unique<trace::ContractMonitor>(
                sr.contracts, b->sim()));
        b->coverage();   // enables the coverage engine
        return b;
    });

    out.t_first_cycle = now();
    tb::TbResult result = bench->run(cycles);
    out.run_ns = now() - out.t_first_cycle;
    bench->feed().finish();

    rtl::Sim &sim = bench->sim();
    out.cycles = result.cycles;
    out.toggles = sim.totalToggles();
    out.failures = result.failures.size();
    out.coverage = bench->coverage().summaryJson();
    out.state = stateHash(sim);
    out.t_verdict = now();
    out.rss_mb = peakRssMb();
    out.jobs.push_back({true, out.run_ns});

    const rtl::SweepStats &ss = sim.sweepStats();
    // A kernel that stopped running frames is a silent fallback.
    if (sr.kernel.abi && (!sim.kernelAttached() || ss.kernel_frames == 0))
        out.fallback = true;
    out.counts["rtl.nodes_evaluated"] =
        static_cast<double>(ss.nodes_evaluated);
    out.counts["rtl.nets_changed"] = static_cast<double>(ss.nets_changed);
    out.counts["rtl.activity_pct"] =
        ss.strict_nodes ? 100.0 * ss.avgNodes() /
                              static_cast<double>(ss.strict_nodes)
                        : 0.0;
    if (opt.trace) {
        lg.ns["rtl.sweep_s"] +=
            probe.phase_ns[static_cast<int>(rtl::SimPhase::Sweep)];
        lg.ns["rtl.kernel_s"] +=
            probe.phase_ns[static_cast<int>(rtl::SimPhase::KernelEval)];
        lg.ns["rtl.commit_s"] +=
            probe.phase_ns[static_cast<int>(rtl::SimPhase::Commit)];
        lg.ns["tb.drive_s"] += probe.drive_ns;
        lg.ns["obs.feed_s"] += probe.feed_ns;
        for (const obs::ObserverCost &c : bench->feed().costs())
            if (c.name != "feed-mark")
                lg.ns["obs." + c.name + "_s"] += c.ns;
    }
    if (opt.oracle)
        out.oracle = oracleCheck(sr, opt.seed, opt.oracle);
}

void
runAes(const Options &opt, Outcome &out)
{
    Ledger &lg = out.lg;
    const std::string top = "aes";
    Frontend fe =
        compileFrontend(designs::anvilAesSource(), top, opt.trace, lg);
    SingleRun sr;
    sr.top = fe.modules[top];
    sr.netlist = lg.span("rtl.netlist_s", [&] {
        return std::make_shared<const rtl::Netlist>(*sr.top);
    });
    sr.contracts = typedContracts(fe, top, *sr.netlist, lg);
    sr.stimulus = randomStimulus();
    out.counts["ir.events"] = static_cast<double>(fe.events);

    if (opt.compiled) {
        uint64_t emit_ns = 0;
        if (opt.trace) {
            // Standalone emission, so the ledger can split the JIT
            // into emission and compiler+load (the JIT re-emits).
            uint64_t t0 = now();
            std::string unit = codegen::emitCppKernel(*sr.netlist, "jit");
            emit_ns = now() - t0;
            lg.ns["codegen.emit_s"] += emit_ns;
            require(!unit.empty(), "empty kernel unit");
        }
        uint64_t t0 = now();
        codegen::JitResult jr = codegen::jitCompileKernel(*sr.netlist);
        uint64_t jit_ns = now() - t0;
        if (opt.trace)
            lg.ns["codegen.jit_s"] += jit_ns > emit_ns ? jit_ns - emit_ns
                                                       : 0;
        out.counts["codegen.kernel_bytes"] =
            static_cast<double>(jr.source_bytes);
        out.counts["codegen.cache_hit"] = jr.cache_hit ? 1 : 0;
        if (jr.kernel)
            sr.kernel = codegen::kernelRef(jr.kernel);
        else
            out.fallback = true;
    }

    runSingle(sr, opt, kAesCycles, out);
}

void
runEncryptFarm(const Options &opt, Outcome &out)
{
    Ledger &lg = out.lg;
    const std::string top = "encrypt";
    Frontend fe = compileFrontend(kEncryptSource, top, opt.trace, lg);
    run::FarmConfig fc;
    fc.top = fe.modules[top];
    fc.netlist = lg.span("rtl.netlist_s", [&] {
        return std::make_shared<const rtl::Netlist>(*fc.top);
    });
    fc.contracts = typedContracts(fe, top, *fc.netlist, lg);
    fc.workers = kFarmWorkers;
    fc.seed_base = opt.seed;
    fc.cycles = kFarmCycles;
    fc.sweep_mode = rtl::SweepMode::Dirty;
    fc.coverage = true;
    fc.activity_window = 64;
    fc.flight_pre = 64;       // armed on contract violations
    out.counts["ir.events"] = static_cast<double>(fe.events);
    out.counts["rtl.nets"] = static_cast<double>(fc.netlist->nets().size());
    out.counts["rtl.levels"] =
        static_cast<double>(fc.netlist->levelCount());

    obs::Merger merger;
    out.t_first_cycle = now();
    run::FarmResult fr = run::runFarm(fc, merger);
    uint64_t farm_ns = now() - out.t_first_cycle;
    out.run_ns = fr.wall_ns;
    require(fr.jit_note.empty(), "farm: " + fr.jit_note);

    // Worker register state is private to runFarm; each worker's
    // normalised event stream (coverage, sweep and dprint counters,
    // activity windows, violations) stands in for it.
    uint64_t h = fnv1a("");
    uint64_t stream_bytes = 0;
    for (const run::JobResult &j : fr.jobs) {
        std::string stream = stableStream(j.events);
        h = fnv1a(stream, h);
        stream_bytes += stream.size();
    }
    out.state = h;
    out.counts["obs.stream_bytes"] = static_cast<double>(stream_bytes);

    uint64_t t_merge = now();
    obs::Merger::Totals t = merger.totals();
    out.cycles = t.cycles;
    out.toggles = t.toggles;
    out.failures = t.failures;
    require(merger.hasCoverage(), "farm: no merged coverage");
    out.coverage = merger.coverage().summaryJson();
    out.farm_metrics = merger.metricsJson(true);
    lg.ns["obs.merge_s"] += (farm_ns - fr.wall_ns) + (now() - t_merge);
    out.t_verdict = now();
    out.rss_mb = peakRssMb();

    for (const run::JobResult &j : fr.jobs)
        out.jobs.push_back({j.ok, j.wall_ns});

    if (opt.oracle) {
        SingleRun sr;
        sr.top = fc.top;
        sr.netlist = fc.netlist;
        sr.stimulus = randomStimulus();
        out.oracle = oracleCheck(sr, opt.seed, opt.oracle);
    }
}

std::string
numberJson(double v)
{
    return strfmt("%.17g", v);
}

void
printRecord(const Options &opt, const Outcome &out,
            const std::string &error)
{
    std::string s = "{";
    s += "\"workload\":" + jsonString(opt.workload);
    s += strfmt(",\"seed\":%llu,\"trace\":%d",
                (unsigned long long)opt.seed, opt.trace ? 1 : 0);
    s += ",\"backend\":" +
         jsonString(opt.compiled ? "compiled" : "interp");
    s += ",\"error\":" + jsonString(error);
    if (error.empty()) {
        s += ",\"digest\":{";
        s += strfmt("\"cycles\":%llu,\"toggles\":%llu,\"failures\":%llu",
                    (unsigned long long)out.cycles,
                    (unsigned long long)out.toggles,
                    (unsigned long long)out.failures);
        s += ",\"coverage\":" + jsonString(hex64(fnv1a(out.coverage)));
        s += ",\"state\":" + jsonString(hex64(out.state)) + "}";
        s += ",\"e2e\":{";
        s += "\"verdict_s\":" +
             numberJson(seconds(out.t_verdict - out.t_start));
        s += ",\"setup_s\":" +
             numberJson(seconds(out.t_first_cycle - out.t_start));
        s += ",\"run_s\":" + numberJson(seconds(out.run_ns));
        s += ",\"peak_rss_mb\":" + numberJson(out.rss_mb);
        s += std::string(",\"fallback\":") +
             (out.fallback ? "true" : "false") + "}";
        s += ",\"jobs\":[";
        for (size_t i = 0; i < out.jobs.size(); i++) {
            const Outcome::Job &j = out.jobs[i];
            s += strfmt("%s{\"ok\":%s,\"wall_s\":%s}", i ? "," : "",
                        j.ok ? "true" : "false",
                        numberJson(seconds(j.wall_ns)).c_str());
        }
        s += "],\"counts\":{";
        bool first = true;
        for (const auto &[k, v] : out.counts) {
            s += (first ? "" : ",") + jsonString(k) + ":" + numberJson(v);
            first = false;
        }
        s += "},\"layers\":{";
        first = true;
        for (const auto &[k, v] : out.lg.ns) {
            s += (first ? "" : ",") + jsonString(k) + ":" +
                 numberJson(seconds(v));
            first = false;
        }
        s += "}";
        if (!out.farm_metrics.empty())
            s += ",\"farm_metrics\":" + out.farm_metrics;
        if (opt.oracle)
            s += strfmt(",\"oracle\":{\"cycles\":%llu,\"mismatch\":",
                        (unsigned long long)opt.oracle) +
                 jsonString(out.oracle) + "}";
    }
    s += "}\n";
    fputs(s.c_str(), stdout);
    fflush(stdout);
}

[[noreturn]] void
usage()
{
    fprintf(stderr,
            "usage: verdict_job --workload aes_cold_compiled|"
            "encrypt_farm3 --seed N [--trace 0|1]\n"
            "                   [--backend compiled|interp] [--oracle P]\n");
    std::exit(2);
}

uint64_t
parseCount(const char *text)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (!end || *end != '\0' || end == text)
        usage();
    return static_cast<uint64_t>(v);
}

} // namespace

int
main(int argc, char **argv)
{
    Outcome out;
    out.t_start = now();

    Options opt;
    bool backend_set = false;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage();
        const char *v = argv[++i];
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = parseCount(v);
        } else if (a == "--trace") {
            opt.trace = parseCount(v) != 0;
        } else if (a == "--backend") {
            if (std::strcmp(v, "compiled") != 0 &&
                std::strcmp(v, "interp") != 0)
                usage();
            opt.compiled = std::strcmp(v, "compiled") == 0;
            backend_set = true;
        } else if (a == "--oracle") {
            opt.oracle = parseCount(v);
        } else {
            usage();
        }
    }
    if (!backend_set)
        opt.compiled = opt.workload == "aes_cold_compiled";
    if (opt.compiled && opt.workload != "aes_cold_compiled")
        usage();

    std::string error;
    try {
        if (opt.workload == "aes_cold_compiled")
            runAes(opt, out);
        else if (opt.workload == "encrypt_farm3")
            runEncryptFarm(opt, out);
        else
            usage();
    } catch (const std::exception &e) {
        error = e.what();
        if (error.empty())
            error = "exception";
    }
    printRecord(opt, out, error);
    return error.empty() ? 0 : 1;
}
