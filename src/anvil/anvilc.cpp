/**
 * @file
 * anvilc — the Anvil compiler command-line driver.
 *
 * Usage:
 *   anvilc [options] <input.anvil>
 *     -o <file>      write generated SystemVerilog to <file>
 *     --top <proc>   top process (default: last defined)
 *     --no-opt       skip the Fig. 8 event-graph passes
 *     --trace        print the timing-check derivation
 *     --stats        print event-graph, synthesis, and (with --sim)
 *                    simulation/coverage statistics
 *     --check-only   type check without generating code
 *     --sim <N>      simulate N cycles under a seeded random
 *                    testbench after compiling
 *     --seed <S>     testbench seed (default 1)
 *     --farm <N>     run N (at most 1024) parallel workers over one
 *                    shared immutable netlist (seeds seed-base ..
 *                    +N-1), stream per-worker telemetry events, and
 *                    print the merged closure report (byte-compatible
 *                    with single-run --cov/--metrics/--stats-json)
 *     --seed-base <S> first farm worker seed (default: --seed)
 *     --events <f>   write the run's live telemetry event stream
 *                    ("anvil-events-v1" JSONL); with --farm, one
 *                    stream per worker at <f>.<worker>
 *     --sweep <m>    interpreter sweep mode: full or dirty (default)
 *     --emit-cpp     dump the design's compiled-sim C++ kernel
 *                    (kernel_abi.h translation unit) to stdout, or
 *                    to -o <file> if given
 *     --backend <b>  simulation backend for --sim/--replay: interp
 *                    (default) or compiled — emit the kernel, build
 *                    it with the system C++ compiler, dlopen it;
 *                    falls back to the interpreter (with a note)
 *                    when no compiler is available
 *     --vcd <file>   write a VCD waveform of the simulation
 *     --cov          print the coverage report after simulation
 *     --replay <f>   re-execute a recorded VCD dump as stimulus and
 *                    diff the re-simulation against the recording
 *                    (--sim N overrides the cycle count, --vcd
 *                    re-dumps the replay)
 *     --check-trace <f>  check a recorded VCD dump against the
 *                    channel timing contracts
 *     --contracts    print the contract set in use; with --sim also
 *                    monitor the contracts live during simulation
 *     --contract <s> explicit contract spec (repeatable), e.g.
 *                    "io_pong: ack within 4, stable, hold";
 *                    replaces the inferred set
 *     --infer-contracts  print the contract set inferred from the
 *                    Anvil types (design obligations, environment
 *                    assumptions, lifetime provenance) and exit
 *                    unless another action is requested
 *     --prove [k]    compile the design-obligation contracts into
 *                    safety automata and prove them by k-induction
 *                    (max depth k, default 6); with --vcd, a
 *                    violated obligation's counterexample is dumped
 *                    as VCD (feed it to --replay / --check-trace)
 *     --prove-report detailed per-obligation report (cone sizes,
 *                    state counts, timings); implies --prove
 *     --diff-trace <A> <B>  diff two VCD dumps: report the first
 *                    divergent cycle and signal (no design needed)
 *     --flight <K>   attach the flight recorder: a ring of the last
 *                    K cycles of changed-net deltas; on a trigger
 *                    the [trigger-K, trigger+post] window is dumped
 *                    as VCD (byte-compatible with --vcd, so
 *                    --replay / --check-trace consume it directly)
 *     --flight-pre <P>  override the pre-trigger context (default:
 *                    the --flight argument)
 *     --flight-post <Q> cycles captured after a trigger before the
 *                    dump flushes (default 8)
 *     --dump-on <t>  flight trigger; only VIOLATION (any testbench
 *                    or contract failure), which is always armed
 *     --flight-out <p>  window dump path prefix (default "flight");
 *                    dumps land at <p>-<n>.vcd (farm workers:
 *                    <p>.w<worker>-<n>.vcd)
 *     --profile-hot <f> count every node evaluation during the run
 *                    and write the hot-spot attribution report
 *                    ("anvil-hot-v1": per-level totals, ranked hot
 *                    nets, ranked register cones) to <f>; the ranked
 *                    tables also print to stdout
 *     --metrics <f>  write run metrics (counters/gauges/histograms/
 *                    timers) as JSON ("anvil-metrics-v1"); with
 *                    --prove, prover telemetry (prove.* counters,
 *                    states/sec gauge)
 *     --profile <f>  write a Chrome-trace / Perfetto profile of the
 *                    run ("anvil-profile-v1"): one track per sim
 *                    phase (sweep, kernel, commit) and per observer;
 *                    with --prove, one track per obligation (base
 *                    and per-k induction windows)
 *     --stats-json   print a one-line machine-readable run summary
 *                    ("anvil-stats-v1") on stdout
 *     --slice <ch>   with --vcd: dump only channel <ch>'s signals
 *                    (a standalone sliced VCD window)
 *
 * Contract resolution order: explicit --contract specs; otherwise
 * the typed inference from the compiled program (formal::
 * inferContracts — design obligations only); otherwise the netlist
 * name-pair guess.
 *
 * Numeric values are strict: digits only (seeds also take 0x hex),
 * no sign, nothing trailing, within the flag's range.
 *
 * Exit codes: 0 success; 1 check failure (type/compile errors,
 * testbench or contract violations, replay or trace divergence,
 * disproved obligations); 2 usage error; 3 I/O error; 4 proof
 * inconclusive (bound or budget reached).
 */

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "anvil/compiler.h"
#include "anvil/sim_runner.h"
#include "codegen/cpp_emitter.h"
#include "codegen/jit.h"
#include "obs/flight.h"
#include "obs/hot.h"
#include "obs/merge.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "formal/contracts.h"
#include "formal/kinduction.h"
#include "formal/property.h"
#include "synth/cost_model.h"
#include "trace/contracts.h"
#include "trace/diff.h"
#include "trace/replay.h"
#include "trace/vcd_reader.h"

using namespace anvil;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitCheckFailure = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;
constexpr int kExitInconclusive = 4;

void
usage()
{
    fprintf(stderr,
            "usage: anvilc [options] <input.anvil>\n"
            "  -o <file>      write SystemVerilog to <file>\n"
            "  --top <proc>   top process (default: last defined)\n"
            "  --no-opt       skip event-graph optimizations\n"
            "  --trace        print the timing-check derivation\n"
            "  --stats        print event-graph/synthesis stats (and\n"
            "                 sim/coverage summaries with --sim)\n"
            "  --check-only   type check only\n"
            "  --sim <N>      simulate N cycles under a random\n"
            "                 testbench\n"
            "  --seed <S>     testbench seed (default 1)\n"
            "  --farm <N>     N (<= 1024) parallel workers over one\n"
            "                 shared netlist; merged closure report\n"
            "  --seed-base <S> first farm worker seed\n"
            "  --events <f>   write the live telemetry event stream\n"
            "                 (JSONL; --farm: <f>.<worker>)\n"
            "  --sweep <m>    sweep mode: full or dirty (default)\n"
            "  --emit-cpp     dump the compiled-sim C++ kernel\n"
            "  --backend <b>  sim backend: interp (default) or\n"
            "                 compiled (JIT via the system compiler;\n"
            "                 interpreter fallback if none)\n"
            "  --vcd <file>   write a VCD waveform of the simulation\n"
            "  --cov          print the coverage report\n"
            "  --replay <f>   replay a recorded VCD dump as stimulus\n"
            "                 and diff against the recording\n"
            "  --check-trace <f>  check a recorded VCD dump against\n"
            "                 the channel timing contracts\n"
            "  --contracts    print the contract set in use (with\n"
            "                 --sim: monitor live)\n"
            "  --contract <s> explicit contract spec (repeatable)\n"
            "  --infer-contracts  print the typed contract set\n"
            "  --prove [k]    prove the contracts by k-induction\n"
            "                 (--vcd dumps a counterexample)\n"
            "  --prove-report detailed prover report\n"
            "  --diff-trace <A> <B>  first divergence of two dumps\n"
            "  --flight <K>   flight recorder: keep the last K\n"
            "                 cycles; dump a VCD window on trigger\n"
            "  --flight-pre <P>  pre-trigger context override\n"
            "  --flight-post <Q> post-trigger capture (default 8)\n"
            "  --dump-on <t>  flight trigger: VIOLATION\n"
            "  --flight-out <p>  dump prefix (default \"flight\")\n"
            "  --profile-hot <f> write the hot-spot attribution\n"
            "                 report (levels, nets, cones) to <f>\n"
            "  --metrics <f>  write run metrics JSON\n"
            "  --profile <f>  write a Chrome-trace profile of the "
            "run\n"
            "  --stats-json   one-line machine-readable run summary\n"
            "  --slice <ch>   with --vcd: dump only channel <ch>\n"
            "exit codes: 0 ok, 1 check failure, 2 usage, 3 I/O "
            "error,\n            4 proof inconclusive\n");
}

/**
 * Resolve the contract set: explicit --contract specs if given,
 * otherwise the typed inference from the compiled program, otherwise
 * the netlist name-pair guess.  Returns false on a spec syntax
 * error.
 */
bool
resolveContracts(const std::vector<std::string> &spec_texts,
                 const rtl::Netlist &nl,
                 const formal::ContractSet *typed, bool print,
                 std::vector<trace::ContractSpec> *out)
{
    if (!spec_texts.empty()) {
        for (const auto &text : spec_texts) {
            try {
                out->push_back(trace::parseContractSpec(text));
            } catch (const std::invalid_argument &e) {
                fprintf(stderr, "anvilc: %s\n", e.what());
                return false;
            }
        }
    } else if (typed && !typed->channels.empty()) {
        // The one spec every consumer shares: typed design
        // obligations plus the netlist guess for internal child
        // channels the typed set cannot see.
        *out = formal::checkableSpecs(*typed, nl);
        if (print) {
            fputs(typed->str().c_str(), stdout);
            for (size_t i = typed->obligations().size();
                 i < out->size(); i++)
                printf("contract %s\n  // internal channel "
                       "(netlist-inferred)\n",
                       (*out)[i].str().c_str());
        }
        return true;
    } else {
        *out = trace::inferContracts(nl);
    }
    if (print)
        for (const auto &s : *out)
            printf("contract %s\n", s.str().c_str());
    return true;
}

/** Parse a --sweep argument: full or dirty. */
bool
parseSweepMode(const std::string &text, rtl::SweepMode *mode)
{
    if (text == "full") {
        *mode = rtl::SweepMode::Full;
        return true;
    }
    if (text == "dirty") {
        *mode = rtl::SweepMode::Dirty;
        return true;
    }
    return false;
}

/**
 * Parse the numeric value of `flag` strictly: digits only (no sign,
 * blank or trailing character) within [lo, hi]; base 0 also takes a
 * 0x hex or 0 octal prefix.  Prints the diagnostic and returns false
 * otherwise.
 */
bool
parseNumber(const char *flag, const char *text, uint64_t lo,
            uint64_t hi, uint64_t *out, int base = 10)
{
    bool ok = isdigit(static_cast<unsigned char>(text[0])) != 0;
    unsigned long long v = 0;
    if (ok) {
        char *end = nullptr;
        errno = 0;
        v = strtoull(text, &end, base);
        ok = errno == 0 && *end == '\0' && v >= lo && v <= hi;
    }
    if (!ok) {
        fprintf(stderr,
                "anvilc: bad %s value '%s' (expected an integer in "
                "%llu..%llu)\n",
                flag, text, (unsigned long long)lo,
                (unsigned long long)hi);
        return false;
    }
    *out = v;
    return true;
}

/** Flush an artifact and announce it on stderr; false (after the
 *  diagnostic) when the write failed. */
bool
closeArtifact(std::ostream &os, const std::string &path)
{
    os.flush();
    if (!os.good()) {
        fprintf(stderr, "anvilc: cannot write '%s'\n", path.c_str());
        return false;
    }
    fprintf(stderr, "anvilc: wrote %s\n", path.c_str());
    return true;
}

/** Write `text` to `path` as one artifact (see closeArtifact). */
bool
writeArtifact(const std::string &path, const std::string &text)
{
    std::ofstream os(path);
    os << text;
    return closeArtifact(os, path);
}

/** Open an artifact for writing; false (after the diagnostic) when
 *  it cannot be created. */
bool
openArtifact(std::ofstream &os, const std::string &path)
{
    os.open(path);
    if (!os)
        fprintf(stderr, "anvilc: cannot write '%s'\n", path.c_str());
    return static_cast<bool>(os);
}

/** The note for a compiled run that degraded to the interpreter. */
void
noteInterpreter(const std::string &why)
{
    fprintf(stderr,
            "anvilc: note: compiled backend unavailable (%s); "
            "using the interpreter\n",
            why.c_str());
}

/**
 * A simulation request (--sim, --replay, --farm) as parsed: the job
 * spec shared with the run spine plus what only the driver reads —
 * the contract sources, the report switches and the artifact paths.
 */
struct RunOptions
{
    run::JobConfig job;
    bool compiled_backend = false;              // --backend compiled
    bool cov = false;                           // --cov
    bool stats = false;                         // --stats
    bool stats_json = false;                    // --stats-json
    bool print_contracts = false;               // --contracts
    std::vector<std::string> contract_specs;    // --contract
    const formal::ContractSet *typed = nullptr;
    std::string vcd_path;                       // --vcd
    std::string events_path;                    // --events
    std::string metrics_path;                   // --metrics
    std::string profile_path;                   // --profile
    std::string hot_path;                       // --profile-hot

    /** True when contracts are monitored live. */
    bool monitored() const
    {
        return print_contracts || !contract_specs.empty();
    }

    /** True when any telemetry sink is requested. */
    bool telemetry() const
    {
        return !metrics_path.empty() || !profile_path.empty() ||
               stats_json || !events_path.empty();
    }

    /** Resolve the monitored contract set onto `out`; false on a
     *  spec syntax error. */
    bool monitoredContracts(const rtl::Netlist &nl,
                            std::vector<trace::ContractSpec> *out) const
    {
        return !monitored() ||
               resolveContracts(contract_specs, nl, typed,
                                print_contracts, out);
    }
};

/** Report half of --sim and --replay: stdout, artifacts, exit code. */
int
finishRun(run::Job &job, const RunOptions &ro,
          std::ofstream &events_os, std::ofstream &vcd_os)
{
    const tb::TbResult &result = job.result();
    rtl::Sim &sim = job.bench().sim();
    const tb::Coverage *coverage = job.coverage();
    printf("sim: %llu cycles, %llu toggles, %zu dprint line(s)\n",
           (unsigned long long)result.cycles,
           (unsigned long long)sim.totalToggles(), sim.log().size());
    const rtl::SweepStats &ss = sim.sweepStats();
    if (ro.stats) {
        // The activity factor is what the event-driven sweep
        // exploits.  Always name the backend actually used: a silent
        // JIT fallback must be visible here, not just in stats-json.
        // threads=1 is a fixed literal: the sweep is single-threaded.
        printf("sweep: mode=%s backend=%s threads=1 strict-nodes=%zu "
               "evaluated/cycle avg=%.1f peak=%llu "
               "changed-nets/cycle avg=%.1f peak=%llu "
               "activity=%.1f%%\n",
               rtl::sweepModeName(ss.mode),
               sim.kernelAttached() ? "compiled" : "interp",
               ss.strict_nodes, ss.avgNodes(),
               (unsigned long long)ss.peak_nodes, ss.avgChanged(),
               (unsigned long long)ss.peak_changed, ss.activityPct());
        if (sim.kernelAttached())
            printf("sweep-kernel: frames=%llu dense-frames=%llu "
                   "fallback-switches=%llu\n",
                   (unsigned long long)ss.kernel_frames,
                   (unsigned long long)ss.kernel_dense_frames,
                   (unsigned long long)ss.kernel_fallback_switches);
    }
    if (coverage && (ro.stats || ro.cov))
        printf("sim-summary %s\n", coverage->summaryJson().c_str());
    if (ro.cov && coverage)
        fputs(coverage->report().c_str(), stdout);
    if (vcd_os.is_open()) {
        vcd_os.flush();
        if (!vcd_os.good()) {
            fprintf(stderr, "anvilc: error writing '%s'\n",
                    ro.vcd_path.c_str());
            return kExitIo;
        }
        fprintf(stderr, "anvilc: wrote %s\n", ro.vcd_path.c_str());
    }
    if (const obs::FlightRecorder *flight = job.flight()) {
        for (const obs::FlightRecorder::DumpInfo &d : flight->dumps()) {
            printf("flight: dump %d: %s @%llu window "
                   "[%llu..%llu]%s%s\n",
                   d.index, d.trigger.c_str(),
                   (unsigned long long)d.trigger_cycle,
                   (unsigned long long)d.from,
                   (unsigned long long)d.to,
                   d.path.empty() ? "" : " -> ", d.path.c_str());
            if (!d.path.empty())
                fprintf(stderr, "anvilc: wrote %s\n", d.path.c_str());
        }
        for (const std::string &path : job.dumpWriteErrors())
            fprintf(stderr, "anvilc: cannot write '%s'\n",
                    path.c_str());
    }

    // Hot-spot attribution (--profile-hot): ranked tables on stdout,
    // the anvil-hot-v1 JSON report to the requested file.
    if (const obs::HotReport *hot = job.hot()) {
        fputs(hot->table().c_str(), stdout);
        if (!writeArtifact(ro.hot_path, hot->json() + "\n"))
            return kExitIo;
    }

    if (events_os.is_open() && !closeArtifact(events_os, ro.events_path))
        return kExitIo;
    if (!ro.metrics_path.empty() &&
        !writeArtifact(ro.metrics_path, job.metrics().json() + "\n"))
        return kExitIo;
    if (!ro.profile_path.empty()) {
        obs::TraceProfiler *profiler = job.profiler();
        profiler->setLevelActivity(job.bench().feed().levelActivity());
        std::ofstream os(ro.profile_path);
        profiler->writeJson(os);
        if (!closeArtifact(os, ro.profile_path))
            return kExitIo;
    }
    if (ro.stats_json) {
        uint64_t wall_ns = job.wallNs();
        double cps = wall_ns
            ? static_cast<double>(result.cycles) * 1e9 /
                static_cast<double>(wall_ns)
            : 0.0;
        // "threads" stays in anvil-stats-v1, fixed at 1.
        printf("stats-json {\"schema\":\"anvil-stats-v1\","
               "\"design\":\"%s\",\"cycles\":%llu,"
               "\"backend\":\"%s\",\"sweep\":\"%s\","
               "\"threads\":1,\"activity_pct\":%.2f,"
               "\"toggles\":%llu,\"failures\":%zu,"
               "\"wall_ns\":%llu,\"cycles_per_sec\":%.0f,"
               "\"coverage\":%s}\n",
               sim.topName().c_str(),
               (unsigned long long)result.cycles,
               sim.kernelAttached() ? "compiled" : "interp",
               rtl::sweepModeName(ss.mode), ss.activityPct(),
               (unsigned long long)sim.totalToggles(),
               result.failures.size(), (unsigned long long)wall_ns,
               cps,
               coverage ? coverage->summaryJson().c_str() : "null");
    }

    if (!result.ok()) {
        fprintf(stderr, "anvilc: %s\n", result.summary().c_str());
        return kExitCheckFailure;
    }
    return kExitOk;
}

/**
 * One run through the spine: --sim as is, --replay with its replay
 * stimulus installed in `jc`.  Opens the artifact files, resolves
 * the monitored contracts, JITs the backend, runs, reports.
 */
int
runSingle(const RunOptions &ro, run::JobConfig jc)
{
    std::ofstream events_os, vcd_os;
    if (!ro.events_path.empty()) {
        if (!openArtifact(events_os, ro.events_path))
            return kExitIo;
        jc.events = &events_os;
    }
    if (!ro.monitoredContracts(*jc.netlist, &jc.contracts))
        return kExitUsage;
    if (!ro.vcd_path.empty()) {
        if (!openArtifact(vcd_os, ro.vcd_path))
            return kExitIo;
        jc.waves = &vcd_os;
    }
    run::Backend backend;
    if (ro.compiled_backend) {
        backend = run::compileBackend(*jc.netlist);
        jc.backend = &backend;
    }
    jc.metrics = ro.telemetry();
    jc.profile_events = !ro.profile_path.empty();
    jc.hot = !ro.hot_path.empty();

    std::unique_ptr<run::Job> job;
    try {
        job = std::make_unique<run::Job>(jc);
    } catch (const std::invalid_argument &e) {
        fprintf(stderr, "anvilc: %s\n", e.what());
        return kExitUsage;
    }
    if (ro.compiled_backend && !job->bench().sim().kernelAttached())
        noteInterpreter(backend.note.empty() ? "kernel attach failed"
                                             : backend.note);
    job->run();
    return finishRun(*job, ro, events_os, vcd_os);
}

/**
 * In-process farm fan-out (--farm N): N workers over one shared
 * immutable netlist (and one JIT kernel), each running the standard
 * random testbench at seed_base + worker, streaming telemetry
 * events into an in-memory obs::Merger.  The merged report is
 * byte-compatible with single-run output.
 */
int
farm(const RunOptions &ro, int workers)
{
    run::FarmConfig fc;
    static_cast<run::RunSpec &>(fc) = ro.job;
    fc.workers = workers;
    fc.seed_base = ro.job.seed;
    fc.compiled_backend = ro.compiled_backend;
    if (!ro.monitoredContracts(*fc.netlist, &fc.contracts))
        return kExitUsage;

    obs::Merger merger;
    run::FarmResult fr;
    try {
        fr = run::runFarm(fc, merger);
    } catch (const std::exception &e) {
        fprintf(stderr, "anvilc: farm: %s\n", e.what());
        return kExitCheckFailure;
    }
    if (!fr.jit_note.empty())
        noteInterpreter(fr.jit_note);

    printf("farm: %d worker(s), %llu cycle(s) each, "
           "seeds %llu..%llu\n",
           workers, (unsigned long long)fc.cycles,
           (unsigned long long)fc.seed_base,
           (unsigned long long)(fc.seed_base +
                                static_cast<uint64_t>(workers) - 1));
    for (const run::JobResult &j : fr.jobs)
        printf("worker %d: seed %llu: %s\n", j.worker,
               (unsigned long long)j.seed, j.summary.c_str());

    obs::Merger::Totals t = merger.totals();
    printf("sim: %llu cycles, %llu toggles across %zu worker(s)\n",
           (unsigned long long)t.cycles,
           (unsigned long long)t.toggles, t.workers);
    if (merger.hasCoverage() && (ro.stats || ro.cov))
        printf("sim-summary %s\n",
               merger.coverage().summaryJson().c_str());
    if (ro.cov && merger.hasCoverage())
        fputs(merger.coverage().report().c_str(), stdout);
    if (ro.monitored())
        fputs(merger.triageReport().c_str(), stdout);
    for (const obs::Merger::WindowDump &wd : merger.windowDumps())
        printf("flight: worker %d: %s @%llu window [%llu..%llu]%s%s\n",
               wd.worker, wd.trigger.c_str(),
               (unsigned long long)wd.trigger_cycle,
               (unsigned long long)wd.from,
               (unsigned long long)wd.to,
               wd.path.empty() ? "" : " -> ", wd.path.c_str());

    // One on-disk stream per worker: <path>.<worker> — the same files
    // tools/anvil_merge consumes.
    if (!ro.events_path.empty())
        for (const run::JobResult &j : fr.jobs)
            if (!writeArtifact(ro.events_path + "." +
                                   std::to_string(j.worker),
                               j.events))
                return kExitIo;
    if (!ro.metrics_path.empty() &&
        !writeArtifact(ro.metrics_path, merger.metricsJson() + "\n"))
        return kExitIo;
    if (ro.stats_json)
        printf("stats-json %s\n",
               merger.statsJson(fr.wall_ns).c_str());

    if (fr.anyFailed()) {
        for (const run::JobResult &j : fr.jobs)
            if (!j.ok)
                fprintf(stderr,
                        "anvilc: worker %d (seed %llu): %s\n",
                        j.worker, (unsigned long long)j.seed,
                        j.summary.c_str());
        return kExitCheckFailure;
    }
    return kExitOk;
}

/** Replay a recorded dump as stimulus and diff the re-simulation. */
int
replay(const RunOptions &ro, const std::string &dump_path)
{
    trace::Trace t;
    try {
        t = trace::VcdReader::readFile(dump_path);
    } catch (const std::runtime_error &e) {
        fprintf(stderr, "anvilc: %s: %s\n", dump_path.c_str(),
                e.what());
        return kExitIo;
    }

    run::JobConfig jc = ro.job;
    if (!jc.cycles)   // --sim N overrides the recorded length
        jc.cycles = t.cycles();
    uint64_t cycles = jc.cycles;
    jc.stimulus = [&t, &dump_path, cycles](tb::Testbench &bench) {
        std::vector<std::string> missing;
        trace::attachReplay(bench, t, /*check=*/true, &missing);
        // Inputs the dump never recorded stay at zero; say so rather
        // than let the diff blame the design.
        for (const std::string &in : missing)
            fprintf(stderr,
                    "anvilc: note: input '%s' not recorded in %s; "
                    "replaying it as zero\n",
                    in.c_str(), dump_path.c_str());
        printf("replay: %s: %zu signals, %llu change(s), "
               "%llu cycle(s)\n",
               dump_path.c_str(), t.signals().size(),
               (unsigned long long)t.changeCount(),
               (unsigned long long)cycles);
    };
    return runSingle(ro, std::move(jc));
}

/** Offline contract check (and coverage grading) of a recorded dump. */
int
checkTraceFile(const rtl::ModulePtr &mod, const RunOptions &ro,
               const std::string &dump_path)
{
    trace::Trace t;
    try {
        t = trace::VcdReader::readFile(dump_path);
    } catch (const std::runtime_error &e) {
        fprintf(stderr, "anvilc: %s: %s\n", dump_path.c_str(),
                e.what());
        return kExitIo;
    }

    rtl::Sim sim(mod);
    std::vector<trace::ContractSpec> specs;
    if (!resolveContracts(ro.contract_specs, sim.netlist(), ro.typed,
                          ro.print_contracts, &specs))
        return kExitUsage;

    if (ro.cov) {
        // Offline coverage replay: grade the recording against the
        // design's coverage model without re-simulating.
        tb::Coverage coverage;
        uint64_t frames =
            trace::gradeCoverage(sim.netlist(), t, coverage);
        printf("coverage-replay: %s: %llu frame(s)\n",
               dump_path.c_str(), (unsigned long long)frames);
        printf("sim-summary %s\n", coverage.summaryJson().c_str());
        fputs(coverage.report().c_str(), stdout);
    }

    std::vector<std::string> skipped;
    auto violations = trace::checkTrace(specs, t, &skipped);
    for (const auto &ch : skipped)
        fprintf(stderr,
                "anvilc: note: channel '%s' not recorded in %s\n",
                ch.c_str(), dump_path.c_str());
    printf("check-trace: %s: %zu contract(s), %llu cycle(s), "
           "%zu violation(s)\n",
           dump_path.c_str(), specs.size() - skipped.size(),
           (unsigned long long)t.cycles(), violations.size());
    if (!violations.empty()) {
        fputs(trace::violationReport(violations).c_str(), stdout);
        return kExitCheckFailure;
    }
    return kExitOk;
}

/** Diff two recorded dumps; no design needed. */
int
diffTraceFiles(const std::string &path_a, const std::string &path_b)
{
    trace::Trace a, b;
    try {
        a = trace::VcdReader::readFile(path_a);
        b = trace::VcdReader::readFile(path_b);
    } catch (const std::runtime_error &e) {
        fprintf(stderr, "anvilc: %s\n", e.what());
        return kExitIo;
    }
    trace::TraceDiff d = trace::diffTraces(a, b);
    printf("diff-trace: %s (%zu signal(s)) vs %s (%zu signal(s))\n",
           path_a.c_str(), a.signals().size(), path_b.c_str(),
           b.signals().size());
    fputs(d.str().c_str(), stdout);
    return d.identical ? kExitOk : kExitCheckFailure;
}

/** Prove the contract obligations by k-induction. */
int
proveDesign(const rtl::ModulePtr &mod, const RunOptions &ro,
            int prove_k, bool detailed)
{
    rtl::Sim sim(mod);
    std::vector<trace::ContractSpec> specs;
    if (!resolveContracts(ro.contract_specs, sim.netlist(), ro.typed,
                          ro.print_contracts, &specs))
        return kExitUsage;

    formal::InstrumentedDesign inst =
        formal::compileProperties(*mod, specs);
    if (inst.props.empty()) {
        printf("prove: no checkable obligations\n");
        return kExitOk;
    }

    formal::ProveOptions opts;
    if (prove_k > 0)
        opts.k_max = prove_k;
    opts.sweep_mode = ro.job.sweep_mode;
    // The prover reports into the same telemetry spine as a
    // simulation run: per-obligation phase windows onto the profiler,
    // prove.* counters and the states/sec gauge into the registry.
    obs::TraceProfiler profiler(/*record_events=*/true);
    obs::MetricsRegistry reg;
    if (!ro.profile_path.empty())
        opts.profiler = &profiler;
    if (!ro.metrics_path.empty())
        opts.metrics = &reg;
    formal::ProveResult res = formal::prove(inst, opts);
    fputs(res.report(detailed).c_str(), stdout);

    if (!ro.metrics_path.empty() &&
        !writeArtifact(ro.metrics_path, reg.json() + "\n"))
        return kExitIo;
    if (!ro.profile_path.empty()) {
        std::ofstream os(ro.profile_path);
        profiler.writeJson(os);
        if (!closeArtifact(os, ro.profile_path))
            return kExitIo;
    }

    int proved = 0, violated = 0, unknown = 0, conditional = 0;
    const formal::ObligationOutcome *cex = nullptr;
    for (const auto &o : res.obligations) {
        switch (o.status) {
          case formal::ObligationOutcome::Status::Proved:
            proved++;
            break;
          case formal::ObligationOutcome::Status::Violated:
            violated++;
            if (!cex)
                cex = &o;
            break;
          case formal::ObligationOutcome::Status::Unknown:
            unknown++;
            break;
          case formal::ObligationOutcome::Status::Conditional:
            conditional++;
            break;
        }
    }
    printf("prove: %zu obligation(s), %d proved, %d conditional, "
           "%d violated, %d unknown\n",
           res.obligations.size(), proved, conditional, violated,
           unknown);

    if (cex && !ro.vcd_path.empty()) {
        std::ofstream os;
        if (!openArtifact(os, ro.vcd_path))
            return kExitIo;
        formal::writeCexVcd(inst, *cex, os, ro.job.sweep_mode);
        if (!os.good()) {
            fprintf(stderr, "anvilc: error writing '%s'\n",
                    ro.vcd_path.c_str());
            return kExitIo;
        }
        fprintf(stderr,
                "anvilc: wrote %s (counterexample for %s)\n",
                ro.vcd_path.c_str(), cex->name.c_str());
    }
    if (violated)
        return kExitCheckFailure;
    if (unknown)
        return kExitInconclusive;
    return kExitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string input, output, top;
    std::string replay_path, check_trace_path;
    std::string diff_a, diff_b;
    bool optimize = true, trace_flag = false;
    bool check_only = false;
    bool infer_contracts = false, prove = false;
    bool prove_report = false;
    int prove_k = 0;
    int farm_workers = 0;
    uint64_t seed_base = 0;
    bool seed_base_set = false;
    bool sweep_set = false;
    bool emit_cpp = false;
    bool backend_set = false;
    uint64_t flight = 0;       // --flight K (0: recorder off)
    uint64_t flight_pre = 0;   // --flight-pre (0: use K)
    bool flight_aux = false;   // any --flight-* / --dump-on given
    RunOptions ro;
    run::JobConfig &job = ro.job;
    job.flight_out = "flight";

    constexpr uint64_t kMaxCount = INT64_MAX;   // cycle-count flags
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        // Numeric values parse strictly, within the flag's range.
        uint64_t n = 0;
        auto number = [&](uint64_t lo, uint64_t hi, uint64_t *out,
                          int base = 10) {
            return parseNumber(arg.c_str(), argv[++i], lo, hi, out,
                               base);
        };
        if (arg == "-o" && i + 1 < argc) {
            output = argv[++i];
        } else if (arg == "--top" && i + 1 < argc) {
            top = argv[++i];
        } else if (arg == "--no-opt") {
            optimize = false;
        } else if (arg == "--trace") {
            trace_flag = true;
        } else if (arg == "--stats") {
            ro.stats = true;
        } else if (arg == "--check-only") {
            check_only = true;
        } else if (arg == "--sim" && i + 1 < argc) {
            if (!number(1, kMaxCount, &job.cycles))
                return kExitUsage;
        } else if (arg == "--seed" && i + 1 < argc) {
            if (!number(0, UINT64_MAX, &job.seed, 0))
                return kExitUsage;
        } else if (arg == "--farm" && i + 1 < argc) {
            if (!number(1, run::kMaxFarmWorkers, &n))
                return kExitUsage;
            farm_workers = static_cast<int>(n);
        } else if (arg == "--seed-base" && i + 1 < argc) {
            if (!number(0, UINT64_MAX, &seed_base, 0))
                return kExitUsage;
            seed_base_set = true;
        } else if (arg == "--events" && i + 1 < argc) {
            ro.events_path = argv[++i];
        } else if (arg == "--sweep" && i + 1 < argc) {
            if (!parseSweepMode(argv[++i], &job.sweep_mode)) {
                fprintf(stderr,
                        "anvilc: bad --sweep mode '%s' (expected "
                        "full or dirty)\n", argv[i]);
                return kExitUsage;
            }
            sweep_set = true;
        } else if (arg == "--emit-cpp") {
            emit_cpp = true;
        } else if (arg == "--backend" && i + 1 < argc) {
            std::string b = argv[++i];
            if (b == "compiled") {
                ro.compiled_backend = true;
            } else if (b != "interp") {
                fprintf(stderr,
                        "anvilc: bad --backend '%s' (expected "
                        "interp or compiled)\n", b.c_str());
                return kExitUsage;
            }
            backend_set = true;
        } else if (arg == "--vcd" && i + 1 < argc) {
            ro.vcd_path = argv[++i];
        } else if (arg == "--cov") {
            ro.cov = true;
        } else if (arg == "--replay" && i + 1 < argc) {
            replay_path = argv[++i];
        } else if (arg == "--check-trace" && i + 1 < argc) {
            check_trace_path = argv[++i];
        } else if (arg == "--contracts") {
            ro.print_contracts = true;
        } else if (arg == "--contract" && i + 1 < argc) {
            ro.contract_specs.push_back(argv[++i]);
        } else if (arg == "--infer-contracts") {
            infer_contracts = true;
        } else if (arg == "--prove") {
            prove = true;
            // Optional depth: `--prove 4`.
            if (i + 1 < argc && argv[i + 1][0] != '\0' &&
                strspn(argv[i + 1], "0123456789") ==
                    strlen(argv[i + 1])) {
                if (!number(0, INT_MAX, &n))
                    return kExitUsage;
                prove_k = static_cast<int>(n);
            }
        } else if (arg == "--prove-report") {
            prove = true;
            prove_report = true;
        } else if (arg == "--diff-trace" && i + 2 < argc) {
            diff_a = argv[++i];
            diff_b = argv[++i];
        } else if (arg == "--flight" && i + 1 < argc) {
            if (!number(1, obs::kMaxFlightWindow, &flight))
                return kExitUsage;
        } else if (arg == "--flight-pre" && i + 1 < argc) {
            if (!number(1, obs::kMaxFlightWindow, &flight_pre))
                return kExitUsage;
            flight_aux = true;
        } else if (arg == "--flight-post" && i + 1 < argc) {
            if (!number(0, obs::kMaxFlightWindow, &job.flight_post))
                return kExitUsage;
            flight_aux = true;
        } else if (arg == "--dump-on" && i + 1 < argc) {
            std::string t = argv[++i];
            if (t != "VIOLATION") {
                fprintf(stderr,
                        "anvilc: bad --dump-on trigger '%s' "
                        "(expected VIOLATION)\n",
                        t.c_str());
                return kExitUsage;
            }
            flight_aux = true;
        } else if (arg == "--flight-out" && i + 1 < argc) {
            job.flight_out = argv[++i];
            flight_aux = true;
        } else if (arg == "--profile-hot" && i + 1 < argc) {
            ro.hot_path = argv[++i];
        } else if (arg == "--metrics" && i + 1 < argc) {
            ro.metrics_path = argv[++i];
        } else if (arg == "--profile" && i + 1 < argc) {
            ro.profile_path = argv[++i];
        } else if (arg == "--stats-json") {
            ro.stats_json = true;
        } else if (arg == "--slice" && i + 1 < argc) {
            job.slice_channel = argv[++i];
        } else if (arg == "-h" || arg == "--help") {
            usage();
            return kExitOk;
        } else if (!arg.empty() && arg[0] == '-') {
            fprintf(stderr, "anvilc: unknown option '%s'\n",
                    arg.c_str());
            usage();
            return kExitUsage;
        } else if (input.empty()) {
            input = arg;
        } else {
            fprintf(stderr, "anvilc: multiple inputs\n");
            return kExitUsage;
        }
    }
    uint64_t sim_cycles = job.cycles;
    // Trace diffing needs no design at all.
    if (!diff_a.empty()) {
        if (!input.empty() || sim_cycles > 0 ||
            !replay_path.empty() || !check_trace_path.empty() ||
            prove || infer_contracts || ro.print_contracts || ro.cov ||
            !output.empty()) {
            fprintf(stderr, "anvilc: --diff-trace takes no other "
                            "action\n");
            return kExitUsage;
        }
        return diffTraceFiles(diff_a, diff_b);
    }
    if (input.empty()) {
        usage();
        return kExitUsage;
    }
    if (!replay_path.empty() && !check_trace_path.empty()) {
        fprintf(stderr,
                "anvilc: --replay and --check-trace conflict\n");
        return kExitUsage;
    }
    if (prove && (sim_cycles > 0 || !replay_path.empty() ||
                  !check_trace_path.empty())) {
        fprintf(stderr, "anvilc: --prove conflicts with "
                        "--sim/--replay/--check-trace\n");
        return kExitUsage;
    }
    bool runs_sim = sim_cycles > 0 || !replay_path.empty();
    if (!runs_sim && !prove &&
        (!ro.vcd_path.empty() || job.seed != 1 || sweep_set)) {
        fprintf(stderr, "anvilc: --vcd/--seed/--sweep require "
                        "--sim <N>, --replay, or --prove\n");
        return kExitUsage;
    }
    if (backend_set && !runs_sim) {
        fprintf(stderr, "anvilc: --backend requires --sim <N> or "
                        "--replay\n");
        return kExitUsage;
    }
    if (farm_workers > 0 && sim_cycles <= 0) {
        fprintf(stderr, "anvilc: --farm requires --sim <N>\n");
        return kExitUsage;
    }
    if (seed_base_set && farm_workers <= 0) {
        fprintf(stderr, "anvilc: --seed-base requires --farm <N>\n");
        return kExitUsage;
    }
    if (farm_workers > 0 &&
        (!replay_path.empty() || !ro.vcd_path.empty() ||
         !job.slice_channel.empty() || !ro.profile_path.empty() ||
         !ro.hot_path.empty())) {
        fprintf(stderr,
                "anvilc: --farm conflicts with --replay/--vcd/"
                "--slice/--profile/--profile-hot\n");
        return kExitUsage;
    }
    if (flight && (sim_cycles <= 0 || !replay_path.empty())) {
        fprintf(stderr,
                "anvilc: --flight requires --sim <N> (not "
                "--replay)\n");
        return kExitUsage;
    }
    if (flight_aux && !flight) {
        fprintf(stderr,
                "anvilc: --flight-pre/--flight-post/--dump-on/"
                "--flight-out require --flight <K>\n");
        return kExitUsage;
    }
    if (!ro.events_path.empty() &&
        (sim_cycles <= 0 || !replay_path.empty())) {
        fprintf(stderr,
                "anvilc: --events requires --sim <N> (not "
                "--replay)\n");
        return kExitUsage;
    }
    // --metrics/--profile also tap the prover's telemetry spine;
    // --stats-json/--slice/--profile-hot remain simulation-only.
    if ((!ro.metrics_path.empty() || !ro.profile_path.empty()) &&
        !runs_sim && !prove) {
        fprintf(stderr,
                "anvilc: --metrics/--profile require --sim <N>, "
                "--replay, or --prove\n");
        return kExitUsage;
    }
    if ((ro.stats_json || !job.slice_channel.empty() ||
         !ro.hot_path.empty()) &&
        !runs_sim) {
        fprintf(stderr,
                "anvilc: --stats-json/--slice/--profile-hot "
                "require --sim <N> or --replay\n");
        return kExitUsage;
    }
    if (!job.slice_channel.empty() && ro.vcd_path.empty()) {
        fprintf(stderr, "anvilc: --slice requires --vcd <file>\n");
        return kExitUsage;
    }
    if (emit_cpp &&
        (runs_sim || !check_trace_path.empty() || prove ||
         check_only)) {
        fprintf(stderr, "anvilc: --emit-cpp is a codegen action; it "
                        "conflicts with --sim/--replay/--check-trace/"
                        "--prove/--check-only\n");
        return kExitUsage;
    }
    if (!runs_sim && check_trace_path.empty() && ro.cov) {
        fprintf(stderr, "anvilc: --cov requires --sim <N>, "
                        "--replay, or --check-trace\n");
        return kExitUsage;
    }
    bool needs_module = runs_sim || !check_trace_path.empty() ||
                        ro.monitored() || prove || emit_cpp;
    if ((needs_module || infer_contracts) && check_only) {
        fprintf(stderr, "anvilc: --sim/--replay/--check-trace/"
                        "--contracts/--prove/--infer-contracts "
                        "need codegen (drop --check-only)\n");
        return kExitUsage;
    }
    if (flight)
        job.flight_pre = flight_pre ? flight_pre : flight;
    if (ro.cov || ro.stats)
        job.coverage = true;
    if (seed_base_set)
        job.seed = seed_base;

    std::ifstream in(input);
    if (!in) {
        fprintf(stderr, "anvilc: cannot open '%s'\n", input.c_str());
        return kExitIo;
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    CompileOptions opts;
    opts.top = top;
    opts.optimize = optimize;
    opts.codegen = !check_only;
    CompileOutput out = compileAnvil(buf.str(), opts);

    // Diagnostics (warnings and notes included).
    fputs(out.diags.render().c_str(), stderr);

    if (trace_flag) {
        for (const auto &[name, check] : out.checks) {
            printf("=== %s ===\n%s\n", name.c_str(),
                   check.traceStr().c_str());
        }
    }
    if (ro.stats) {
        for (const auto &[name, s] : out.opt_stats) {
            printf("%-20s events %4d -> %4d", name.c_str(), s.before,
                   s.after);
            auto mod = out.module(name);
            if (mod) {
                auto r = synth::synthesize(*mod);
                printf("   %s", r.str().c_str());
            }
            printf("\n");
        }
    }

    if (!out.ok) {
        fprintf(stderr, "anvilc: %d error(s)\n",
                out.diags.errorCount());
        return kExitCheckFailure;
    }

    if (!check_only && !emit_cpp) {
        if (output.empty()) {
            if (!needs_module && !infer_contracts)
                fputs(out.systemverilog.c_str(), stdout);
        } else {
            std::ofstream os(output);
            if (!os) {
                fprintf(stderr, "anvilc: cannot write '%s'\n",
                        output.c_str());
                return kExitIo;
            }
            os << out.systemverilog;
            fprintf(stderr, "anvilc: wrote %s\n", output.c_str());
        }
    }

    // The typed contract set: the single spec source shared by the
    // monitors, the offline checker, and the prover.  Only computed
    // when a contract consumer will read it — plain codegen and
    // contract-less --sim/--replay runs skip the re-elaboration it
    // costs.
    bool wants_contracts = infer_contracts || prove ||
        ro.monitored() || !check_trace_path.empty();
    formal::ContractSet typed;
    if (wants_contracts)
        typed = formal::inferContracts(out.program, out.top);
    ro.typed = &typed;
    if (infer_contracts) {
        printf("infer-contracts: %s: %zu channel(s)\n",
               typed.top.c_str(), typed.channels.size());
        fputs(typed.str().c_str(), stdout);
        if (!needs_module)
            return kExitOk;
    }

    if (needs_module) {
        rtl::ModulePtr mod = out.module(out.top);
        if (!mod) {
            fprintf(stderr, "anvilc: no module for top '%s'\n",
                    out.top.c_str());
            return kExitCheckFailure;
        }
        if (emit_cpp) {
            rtl::Netlist nl(*mod);
            std::string kernel = codegen::emitCppKernel(nl, out.top);
            if (output.empty()) {
                fputs(kernel.c_str(), stdout);
            } else {
                std::ofstream os(output);
                if (!os) {
                    fprintf(stderr, "anvilc: cannot write '%s'\n",
                            output.c_str());
                    return kExitIo;
                }
                os << kernel;
                fprintf(stderr, "anvilc: wrote %s\n",
                        output.c_str());
            }
            return kExitOk;
        }
        if (prove)
            return proveDesign(mod, ro, prove_k, prove_report);
        if (!check_trace_path.empty())
            return checkTraceFile(mod, ro, check_trace_path);
        if (runs_sim) {
            // One elaboration serves the contracts, the JIT and the
            // run (every farm worker shares it).
            job.top = mod;
            job.netlist = std::make_shared<const rtl::Netlist>(*mod);
            if (farm_workers > 0)
                return farm(ro, farm_workers);
            if (!replay_path.empty())
                return replay(ro, replay_path);
            return runSingle(ro, job);
        }
        // --contracts / --contract alone: print the contract set.
        rtl::Sim sim(mod);
        std::vector<trace::ContractSpec> specs;
        if (!resolveContracts(ro.contract_specs, sim.netlist(), &typed,
                              true, &specs))
            return kExitUsage;
    }
    return kExitOk;
}
