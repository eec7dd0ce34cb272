#include "anvil/sim_runner.h"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/activity.h"
#include "obs/flight.h"
#include "obs/hot.h"
#include "obs/merge.h"
#include "obs/profiler.h"
#include "obs/slice.h"
#include "obs/stream.h"
#include "obs/triage.h"
#include "support/strings.h"

namespace anvil {
namespace run {

namespace {

/**
 * Assemble the metrics registry from every spine a run exposes.
 * Null spines (no coverage, no plugins) skip their sections; the
 * layout is the same for a single run and a farm worker.
 */
void
collectRunMetrics(obs::MetricsRegistry &reg, tb::Testbench &bench,
                  const tb::TbResult &result,
                  const tb::Coverage *coverage,
                  const obs::TraceProfiler &profiler,
                  const codegen::JitResult *jit, uint64_t wall_ns,
                  const obs::RollingActivity *activity,
                  const obs::AssertionTriage *triage)
{
    const rtl::SweepStats &ss = bench.sim().sweepStats();
    reg.counter("sim.cycles") = result.cycles;
    reg.counter("sim.toggles") = bench.sim().totalToggles();
    reg.counter("sim.dprint_lines") = bench.sim().log().size();
    reg.counter("tb.failures") = result.failures.size();
    reg.counter("sweep.strict_nodes") = ss.strict_nodes;
    reg.counter("sweep.frames") = ss.cycles;
    reg.counter("sweep.nodes_evaluated") = ss.nodes_evaluated;
    reg.counter("sweep.peak_nodes") = ss.peak_nodes;
    reg.counter("sweep.nets_changed") = ss.nets_changed;
    reg.counter("sweep.peak_changed") = ss.peak_changed;
    // Always 0 (the sweep is single-threaded); the counter stays so
    // metrics remain byte-compatible with recorded runs.
    reg.counter("sweep.sharded_levels") = 0;
    reg.counter("sweep.kernel_frames") = ss.kernel_frames;
    reg.counter("sweep.dense_fallback_switches") =
        ss.dense_fallback_switches;
    reg.counter("sweep.kernel_dense_frames") = ss.kernel_dense_frames;
    reg.counter("sweep.kernel_fallback_switches") =
        ss.kernel_fallback_switches;
    reg.counter("backend.compiled") =
        bench.sim().kernelAttached() ? 1 : 0;
    reg.gauge("sweep.activity_pct") = ss.activityPct();
    if (jit) {
        reg.counter("jit.cache_hit") = jit->cache_hit ? 1 : 0;
        reg.timerNs("jit.compile") = jit->compile_ns;
    }
    if (coverage) {
        reg.gauge("cov.toggle_pct") = coverage->togglePct();
        reg.gauge("cov.reg_bin_pct") = coverage->regBinPct();
        reg.counter("cov.samples") = coverage->samples();
    }
    for (const obs::ObserverCost &c : bench.feed().costs()) {
        reg.counter("obs." + c.name + ".visits") = c.visits;
        reg.counter("obs." + c.name + ".primes") = c.primes;
        reg.counter("obs." + c.name + ".nets") = c.nets;
        reg.timerNs("obs." + c.name) = c.ns;
    }
    obs::MetricsRegistry::Histogram &lvl =
        reg.histogram("sweep.level_activity");
    const std::vector<uint64_t> &levels =
        bench.feed().levelActivity();
    for (size_t i = 0; i < levels.size(); i++)
        lvl.bump(i, levels[i]);
    for (const auto &t : profiler.totals())
        reg.timerNs("phase." + t.name) = t.ns;
    if (activity)
        activity->exportMetrics(reg);
    if (triage)
        triage->exportMetrics(reg);
    reg.timerNs("run.wall") = wall_ns;
}

/**
 * Emit the end-of-run event tail: coverage snapshot, metrics
 * snapshot, per-level activity, run_end.  Call after
 * bench.feed().finish().
 */
void
emitRunTail(obs::EventSink &sink, tb::Testbench &bench,
            const tb::TbResult &result, const tb::Coverage *coverage,
            const obs::MetricsRegistry &reg, uint64_t wall_ns)
{
    if (coverage)
        sink.coverage(*coverage);
    sink.metrics(reg);
    if (!bench.feed().levelActivity().empty())
        sink.activity(bench.feed().levelActivity());
    sink.runEnd(result.cycles, bench.sim().totalToggles(),
                result.failures.size(), wall_ns,
                bench.sim().kernelAttached(),
                bench.sim().sweepStats().activityPct());
}

} // namespace

Backend
compileBackend(const rtl::Netlist &nl)
{
    Backend b;
    b.jit = codegen::jitCompileKernel(nl);
    if (b.jit.kernel)
        b.kernel = codegen::kernelRef(b.jit.kernel);
    else
        b.note = b.jit.error.empty() ? "jit unavailable" : b.jit.error;
    return b;
}

Job::Job(const JobConfig &cfg)
    : _cycles(cfg.cycles), _seed(cfg.seed), _worker(cfg.worker),
      _backend(cfg.backend), _count_hot(cfg.hot),
      _bench(cfg.top, cfg.netlist, cfg.seed)
{
    if (cfg.events)
        _sink = std::make_unique<obs::EventSink>(*cfg.events);
    // One profiler feeds both the simulator's phase timing and the
    // change feed's per-observer tracks; trace events are only kept
    // when a profile will be written.
    if (cfg.metrics || _sink)
        _profiler =
            std::make_unique<obs::TraceProfiler>(cfg.profile_events);

    rtl::Sim &sim = _bench.sim();
    sim.setSweepMode(cfg.sweep_mode);
    if (cfg.hot)
        sim.setEvalCounting(true);
    if (_backend && _backend->kernel.abi)
        sim.attachKernel(_backend->kernel);   // false: interpreter
    if (_profiler) {
        sim.setTelemetry(_profiler.get());
        _bench.feed().setProfiler(_profiler.get());
    }

    if (cfg.stimulus)
        cfg.stimulus(_bench);
    else
        for (const auto &in : sim.inputNames())
            _bench.driveRandom(in);

    trace::ContractMonitor *monitor = nullptr;
    if (!cfg.contracts.empty())
        monitor = static_cast<trace::ContractMonitor *>(
            &_bench.addMonitor(
                std::make_unique<trace::ContractMonitor>(cfg.contracts,
                                                         sim)));

    if (cfg.coverage)
        _coverage = &_bench.coverage();

    // The stream-side plugins ride along whenever the run streams
    // events, so every stream (single run or farm worker) merges and
    // compares cleanly against every other.
    if (_sink && monitor)
        _triage = static_cast<obs::AssertionTriage *>(
            &_bench.attachObserver(
                std::make_unique<obs::AssertionTriage>(*monitor,
                                                       _sink.get())));
    if (_sink && cfg.activity_window)
        _activity = static_cast<obs::RollingActivity *>(
            &_bench.attachObserver(
                std::make_unique<obs::RollingActivity>(
                    cfg.activity_window, _sink.get())));

    // Flight recorder after the monitor and coverage, so its trigger
    // poll sees the cycle's updates.  It arms on VIOLATION: the
    // bench's total failure count (contract violations, scoreboard
    // and assertion failures).  Each dump lands at <prefix>-<n>.vcd
    // and is referenced from the stream (window_dump), which the
    // merger dedupes by path.
    if (cfg.flight_pre) {
        obs::FlightRecorder::Options fo;
        fo.pre = cfg.flight_pre;
        fo.post = cfg.flight_post;
        auto rec = std::make_unique<obs::FlightRecorder>(sim, fo);
        rec->addTrigger("VIOLATION", [this]() {
            return static_cast<uint64_t>(_bench.totalFailures());
        });
        std::string prefix = cfg.flight_out;
        rec->setDumpSink([this, prefix](
                             const obs::FlightRecorder::DumpInfo &d,
                             const std::string &vcd) {
            std::string path;
            if (!prefix.empty()) {
                path = strfmt("%s-%d.vcd", prefix.c_str(), d.index);
                std::ofstream os(path);
                os << vcd;
                os.flush();
                if (!os.good()) {
                    _dump_errors.push_back(path);
                    path.clear();
                }
            }
            if (_sink)
                _sink->windowDump(d.trigger_cycle, d.trigger, path,
                                  d.from, d.to);
            return path;
        });
        _flight = static_cast<obs::FlightRecorder *>(
            &_bench.attachObserver(std::move(rec)));
    }

    if (cfg.waves) {
        if (cfg.slice_channel.empty())
            _bench.attachVcd(*cfg.waves);
        else
            _bench.attachObserver(std::make_unique<obs::ChannelSlicer>(
                sim, *cfg.waves, cfg.slice_channel));
    }
}

Job::~Job() = default;

const tb::TbResult &
Job::run()
{
    if (_sink)
        _sink->runBegin(_bench.sim().topName(), _worker, _seed,
                        _cycles, _bench.sim().sweepMode());

    uint64_t wall0 = rtl::monotonicNanos();
    _result = _bench.run(_cycles);
    _wall_ns = rtl::monotonicNanos() - wall0;
    _bench.feed().finish();

    if (_count_hot)
        _hot = std::make_unique<obs::HotReport>(
            obs::buildHotReport(_bench.sim()));
    if (!_profiler)
        return _result;
    collectRunMetrics(_metrics, _bench, _result, _coverage, *_profiler,
                      _backend ? &_backend->jit : nullptr, _wall_ns,
                      _activity, _triage);
    if (_flight)
        _flight->exportMetrics(_metrics);
    if (_hot)
        _hot->exportMetrics(_metrics);
    if (_sink)
        emitRunTail(*_sink, _bench, _result, _coverage, _metrics,
                    _wall_ns);
    return _result;
}

JobResult
runJob(JobConfig cfg)
{
    std::ostringstream es;
    cfg.events = &es;
    Job job(cfg);
    const tb::TbResult &result = job.run();

    JobResult jr;
    jr.worker = cfg.worker;
    jr.seed = cfg.seed;
    jr.ok = result.ok();
    jr.cycles = result.cycles;
    jr.toggles = job.bench().sim().totalToggles();
    jr.failures = result.failures.size();
    jr.wall_ns = job.wallNs();
    jr.summary = result.summary();
    jr.events = es.str();
    return jr;
}

FarmResult
runFarm(const FarmConfig &cfg, obs::Merger &merger)
{
    if (cfg.workers < 1 || cfg.workers > kMaxFarmWorkers)
        throw std::invalid_argument(
            strfmt("farm worker count %d outside 1..%d", cfg.workers,
                   kMaxFarmWorkers));
    FarmResult fr;
    uint64_t wall0 = rtl::monotonicNanos();

    // Elaborate once: every worker rides this immutable netlist.
    std::shared_ptr<const rtl::Netlist> netlist = cfg.netlist;
    if (!netlist)
        netlist = std::make_shared<const rtl::Netlist>(*cfg.top);

    // JIT once; the kernel object is shared, each Sim gets its own
    // kernel context on attach.
    Backend backend;
    if (cfg.compiled_backend) {
        backend = compileBackend(*netlist);
        fr.jit_note = backend.note;
    }

    std::vector<JobConfig> jobs(static_cast<size_t>(cfg.workers));
    for (int w = 0; w < cfg.workers; w++) {
        JobConfig &jc = jobs[static_cast<size_t>(w)];
        static_cast<RunSpec &>(jc) = cfg;
        jc.netlist = netlist;
        jc.seed = cfg.seed_base + static_cast<uint64_t>(w);
        jc.worker = w;
        jc.backend = cfg.compiled_backend ? &backend : nullptr;
        if (!cfg.flight_out.empty())
            jc.flight_out = strfmt("%s.w%d", cfg.flight_out.c_str(), w);
    }

    fr.jobs.resize(jobs.size());
    std::vector<std::thread> threads;
    threads.reserve(jobs.size());
    auto work = [&fr, &jobs](size_t w) {
        try {
            fr.jobs[w] = runJob(jobs[w]);
        } catch (const std::exception &e) {
            fr.jobs[w].worker = static_cast<int>(w);
            fr.jobs[w].seed = jobs[w].seed;
            fr.jobs[w].summary = strfmt("worker exception: %s", e.what());
        }
    };
    try {
        for (size_t w = 0; w < jobs.size(); w++)
            threads.emplace_back(work, w);
    } catch (...) {
        // A thread that cannot be created must not leave the started
        // ones joinable at unwind (std::terminate).
        for (std::thread &t : threads)
            t.join();
        throw;
    }
    for (std::thread &t : threads)
        t.join();
    fr.wall_ns = rtl::monotonicNanos() - wall0;

    for (const JobResult &j : fr.jobs)
        if (!j.events.empty())
            merger.addStreamText(j.events,
                                 strfmt("worker-%d", j.worker));
    return fr;
}

} // namespace run
} // namespace anvil
