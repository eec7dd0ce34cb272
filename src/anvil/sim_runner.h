/**
 * @file
 * The one run spine: every simulation anvilc performs — `--sim`, the
 * run half of `--replay`, and each worker of the in-process farm
 * (`--farm N`) — is a run::Job.
 *
 * A Job builds the testbench and wires it in one fixed order:
 * stimulus (random drive unless a hook installs its own drivers and
 * monitors) → contract monitor → coverage → assertion triage →
 * rolling activity → flight recorder → waves.  Job::run then runs
 * the bench, builds the hot report, assembles the metrics registry
 * and closes the event stream with the run tail (coverage, metrics,
 * per-level activity, run_end).  The per-run stream and the
 * `--metrics`/`--stats-json` artifacts therefore come from the same
 * code, and `anvilc --farm 1` is byte-identical to `anvilc --sim` at
 * the same seed.
 *
 * A farm shares one immutable rtl::Netlist (and, with the compiled
 * backend, one JIT kernel) across N jobs on their own threads, each
 * at seed seed_base + worker; every job streams into memory and the
 * streams feed an obs::Merger whose artifacts are byte-compatible
 * with single-run output.
 */

#ifndef ANVIL_ANVIL_SIM_RUNNER_H
#define ANVIL_ANVIL_SIM_RUNNER_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "codegen/jit.h"
#include "obs/metrics.h"
#include "rtl/interp.h"
#include "tb/testbench.h"
#include "trace/contracts.h"

namespace anvil {
namespace obs {
class AssertionTriage;
class EventSink;
class FlightRecorder;
class HotReport;
class Merger;
class RollingActivity;
class TraceProfiler;
} // namespace obs

namespace run {

/** Upper bound on farm workers: each one is an OS thread. */
constexpr int kMaxFarmWorkers = 1024;

/** What a single job and a farm of them share. */
struct RunSpec
{
    rtl::ModulePtr top;
    /** Prebuilt immutable netlist; null builds a private one. */
    std::shared_ptr<const rtl::Netlist> netlist;
    uint64_t cycles = 0;
    rtl::SweepMode sweep_mode = rtl::SweepMode::Dirty;
    /** Contracts to monitor live; empty attaches no monitor. */
    std::vector<trace::ContractSpec> contracts;
    bool coverage = false;
    /** Rolling-activity window length K for streamed runs; 0
     *  disables the plugin. */
    uint64_t activity_window = 64;
    /** Flight-recorder pre-trigger window; 0 disables the recorder,
     *  which arms on VIOLATION (any bench failure).  Both windows are
     *  at most obs::kMaxFlightWindow. */
    uint64_t flight_pre = 0;
    /** Cycles captured after a trigger before the window flushes. */
    uint64_t flight_post = 8;
    /** Window dump path prefix: dumps land at <prefix>-<n>.vcd (a
     *  farm makes it <prefix>.w<worker> per job).  Empty keeps the
     *  dumps stream-only (window_dump events with no path). */
    std::string flight_out;
};

/** A netlist's compiled backend, JIT-built once and shared. */
struct Backend
{
    codegen::JitResult jit;
    /** The shared kernel; abi null when the JIT failed. */
    rtl::KernelRef kernel;
    /** Why runs use the interpreter instead ("" once built). */
    std::string note;
};

/** JIT `nl` once; a failure degrades to the interpreter with a note. */
Backend compileBackend(const rtl::Netlist &nl);

/** One job: the shared spec plus its seed and sinks. */
struct JobConfig : RunSpec
{
    uint64_t seed = 1;
    int worker = 0;
    /** Compiled backend (null: interpreter).  Non-null also puts its
     *  JIT provenance into the metrics, even when the JIT failed. */
    const Backend *backend = nullptr;
    /** Event stream; null runs no stream and no triage or
     *  rolling-activity plugin. */
    std::ostream *events = nullptr;
    /** Assemble the metrics registry (and time the run's phases);
     *  implied by `events`. */
    bool metrics = false;
    /** Let the phase profiler keep trace events (`--profile`). */
    bool profile_events = false;
    /** Count node evaluations and build the hot report. */
    bool hot = false;
    /** VCD sink; with `slice_channel`, only that channel's signals. */
    std::ostream *waves = nullptr;
    std::string slice_channel;
    /** Installs the run's stimulus (drivers and the monitors that go
     *  with them); null drives every input at random. */
    std::function<void(tb::Testbench &)> stimulus;
};

/**
 * One configured run.  The constructor builds the bench and attaches
 * everything; it throws std::invalid_argument on a bad contract
 * spec, flight window or slice channel.  Not movable: observers
 * hold pointers into it.
 */
class Job
{
  public:
    explicit Job(const JobConfig &cfg);
    ~Job();
    Job(const Job &) = delete;
    Job &operator=(const Job &) = delete;

    /** Run to completion, then build the hot report, assemble the
     *  metrics and close the event stream with the run tail. */
    const tb::TbResult &run();

    tb::Testbench &bench() { return _bench; }
    const tb::TbResult &result() const { return _result; }
    uint64_t wallNs() const { return _wall_ns; }
    /** Null unless the config asked for it. */
    const tb::Coverage *coverage() const { return _coverage; }
    const obs::FlightRecorder *flight() const { return _flight; }
    const obs::HotReport *hot() const { return _hot.get(); }
    obs::TraceProfiler *profiler() { return _profiler.get(); }
    /** Empty unless metrics were assembled. */
    const obs::MetricsRegistry &metrics() const { return _metrics; }
    /** Window dump files that could not be written. */
    const std::vector<std::string> &dumpWriteErrors() const
    {
        return _dump_errors;
    }

  private:
    uint64_t _cycles;
    uint64_t _seed;
    int _worker;
    const Backend *_backend;
    bool _count_hot;
    // Declared before the bench, which holds observers that point
    // at them, so they outlive it.
    std::unique_ptr<obs::EventSink> _sink;
    std::unique_ptr<obs::TraceProfiler> _profiler;
    std::vector<std::string> _dump_errors;
    tb::Testbench _bench;
    tb::Coverage *_coverage = nullptr;
    obs::AssertionTriage *_triage = nullptr;
    obs::RollingActivity *_activity = nullptr;
    obs::FlightRecorder *_flight = nullptr;
    tb::TbResult _result;
    uint64_t _wall_ns = 0;
    std::unique_ptr<obs::HotReport> _hot;
    obs::MetricsRegistry _metrics;
};

/** One worker's outcome plus its serialized event stream. */
struct JobResult
{
    int worker = 0;
    uint64_t seed = 0;
    bool ok = false;
    uint64_t cycles = 0;
    uint64_t toggles = 0;
    size_t failures = 0;
    uint64_t wall_ns = 0;
    std::string summary;   // tb::TbResult::summary()
    std::string events;    // the full "anvil-events-v2" stream
};

/** Run one job into an in-memory stream (replacing cfg.events).
 *  Thread-safe per job: every spine is per-instance, the shared
 *  netlist and kernel are read-only. */
JobResult runJob(JobConfig cfg);

/** Farm fan-out configuration. */
struct FarmConfig : RunSpec
{
    /** 1 .. kMaxFarmWorkers. */
    int workers = 1;
    uint64_t seed_base = 1;
    bool compiled_backend = false;
};

/** Farm outcome: per-worker results in worker order. */
struct FarmResult
{
    std::vector<JobResult> jobs;
    uint64_t wall_ns = 0;     // whole-farm elapsed wall time
    std::string jit_note;     // non-empty: degraded to interpreter
    bool anyFailed() const
    {
        for (const JobResult &j : jobs)
            if (!j.ok)
                return true;
        return false;
    }
};

/**
 * Elaborate once, JIT once (when asked), run cfg.workers jobs on
 * their own threads, and feed every event stream into `merger`
 * (worker order, though the merger re-sorts anyway).  Throws
 * std::invalid_argument on a worker count outside 1 ..
 * kMaxFarmWorkers.
 */
FarmResult runFarm(const FarmConfig &cfg, obs::Merger &merger);

} // namespace run
} // namespace anvil

#endif // ANVIL_ANVIL_SIM_RUNNER_H
