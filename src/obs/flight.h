/**
 * @file
 * Flight recorder: always-on ring buffer of per-cycle changed-net
 * deltas that turns into a waveform only when something goes wrong.
 *
 * A full `--vcd` of a million-cycle farm run is unaffordable, yet a
 * violation deep in such a run leaves only a triage line — no
 * waveform context.  The FlightRecorder closes that gap with the
 * classic production-tracing pattern: it rides the shared
 * obs::ChangeFeed like any observer, but instead of formatting VCD
 * text it memcpy's each cycle's changed values into a fixed-size
 * ring (cost proportional to activity, no I/O, no string work).  On
 * a trigger — any monotonic counter that increased this cycle:
 * contract violations, scoreboard/assertion failures, a named cover
 * point — it keeps capturing for `post` more cycles and then
 * reconstructs the [trigger - pre, trigger + post] window as a
 * standard VCD dump, byte-compatible with what rtl::VcdWriter primed
 * at the window's first cycle would have written, so `--replay` and
 * `--check-trace` consume it unmodified.
 *
 * Reconstruction works from a base snapshot plus the ring: evicting
 * a cycle record folds its deltas into the base, so the base always
 * holds the values just before the oldest retained record and a
 * window checkpoint is base + records up to the window start.
 * Triggers landing inside an open window coalesce (the window's end
 * extends); triggers after a dump flushes open a new window, so
 * distinct failures in one run produce distinct dumps.  A window
 * still open when the run ends is flushed by onFinish — a trigger on
 * the final cycle loses nothing.
 */

#ifndef ANVIL_OBS_FLIGHT_H
#define ANVIL_OBS_FLIGHT_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/observer.h"
#include "rtl/interp.h"
#include "rtl/vcd.h"

namespace anvil {
namespace obs {

class MetricsRegistry;

/** Largest pre- or post-trigger window, in cycles.  The ring grows
 *  on demand up to pre + post + 2 cycle records, so this bounds its
 *  allocation. */
constexpr uint64_t kMaxFlightWindow = uint64_t(1) << 20;

class FlightRecorder : public Observer
{
  public:
    struct Options
    {
        /** Cycles of context kept before a trigger. */
        uint64_t pre = 64;
        /** Cycles captured after a trigger before the dump flushes. */
        uint64_t post = 8;
        /** Signals to record (flat dotted names); empty records
         *  every named signal, exactly like VcdWriter. */
        std::vector<std::string> signals;
    };

    /** One flushed window dump. */
    struct DumpInfo
    {
        int index = 0;            // 0-based flush order
        std::string trigger;      // trigger name that opened it
        uint64_t trigger_cycle = 0;
        uint64_t from = 0;        // first cycle in the window
        uint64_t to = 0;          // last cycle in the window
        std::string path;         // sink-assigned label ("" = none)
    };

    /**
     * A trigger is a monotonic counter; the recorder polls it once
     * per cycle (after capturing that cycle) and fires when the
     * count increased.  Wraps naturally around ContractMonitor
     * violation counts, Testbench failure totals, and Coverage
     * cover-point hits.
     */
    using Trigger = std::function<uint64_t()>;

    /**
     * Receives each flushed window (the full VCD text) and returns
     * the label recorded in DumpInfo::path — typically the file it
     * wrote.  Without a sink, dumps are recorded but the text is
     * dropped.
     */
    using DumpSink =
        std::function<std::string(const DumpInfo &info,
                                  const std::string &vcd)>;

    explicit FlightRecorder(rtl::Sim &sim)
        : FlightRecorder(sim, Options())
    {
    }
    /** Throws std::invalid_argument on an unknown signal or a pre or
     *  post window above kMaxFlightWindow. */
    FlightRecorder(rtl::Sim &sim, Options opts);
    ~FlightRecorder() override;

    void addTrigger(const std::string &name, Trigger counter);
    void setDumpSink(DumpSink sink) { _sink = std::move(sink); }

    /** Flushed window dumps, in flush order. */
    const std::vector<DumpInfo> &dumps() const { return _dumps; }

    /** Cycle records currently retained in the ring. */
    size_t ringRecords() const { return _count; }

    /** Record slots allocated so far (grows on demand, at most
     *  pre + post + 2). */
    size_t ringSlots() const { return _ring.size(); }

    /** hot counters for a metrics run: flight.dumps,
     *  flight.ring_records, flight.capture_bytes. */
    void exportMetrics(MetricsRegistry &reg) const;

    // obs::Observer
    void onAttach(ChangeFeed &feed) override;
    void onPrime(rtl::Sim &sim, uint64_t cycle) override;
    void onCycle(rtl::Sim &sim, uint64_t cycle,
                 const std::vector<rtl::NetId> &changed) override;
    void onFinish(rtl::Sim &sim) override;
    const char *observerName() const override { return "flight"; }

  private:
    /** One recorded signal; mirrors VcdWriter's selection exactly
     *  (same id-codes, same dup chaining, same lazy handling) so the
     *  reconstructed dumps are byte-compatible. */
    struct Traced
    {
        std::string name;
        std::string id;
        rtl::NetId net;
        int width;
        int words;     // value words: (width + 63) / 64
        bool is_reg;
        bool fed;
    };

    /** Hot per-slot fields split out of the cold Traced so the
     *  per-cycle walk touches 8 bytes per slot, not a ~100-byte
     *  struct with strings. */
    struct HotSlot
    {
        int32_t dup_next = -1;   // next traced slot on the same net
        int32_t words = 1;       // == Traced::words
        rtl::NetId net = rtl::kNoNet;
    };

    /** One cycle's deltas: parallel slot/word arrays, values packed
     *  back to back (each slot contributes its `words` words) in
     *  capture order — flushDump re-sorts into declaration order, so
     *  the hot path never sorts. */
    struct CycleRec
    {
        uint64_t cycle = 0;
        std::vector<uint32_t> slots;
        std::vector<uint64_t> words;
    };

    struct TriggerSlot
    {
        std::string name;
        Trigger fn;
        uint64_t seen = 0;
    };

    void beginCycle(uint64_t cycle);
    void openRecord();
    void captureSlot(size_t slot, const BitVec &v);
    void endCycle(uint64_t cycle);
    void pollTriggers(uint64_t cycle);
    void evictOldest();
    void applyRec(const CycleRec &rec, std::vector<BitVec> &vals) const;
    void flushDump(uint64_t to);

    rtl::Sim &_sim;
    Options _opts;
    std::string _header;              // cached VCD header bytes
    std::vector<Traced> _traced;
    std::vector<HotSlot> _hot;        // parallel to _traced
    std::vector<int32_t> _net_slot;   // net -> first traced slot or -1
    /** One bit per net: is it traced?  The raw frame list is mostly
     *  unnamed internal nets; testing this L1-resident mask first
     *  keeps them from dragging the int32 table into cache. */
    std::vector<uint64_t> _net_mask;
    std::vector<size_t> _unfed;       // lazy slots, re-read per cycle
    /** Previous captured value: narrow slots (words == 1, the vast
     *  majority) live in the raw-word shadow so the per-cycle
     *  compare-and-copy never crosses into BitVec; wide slots use
     *  the BitVec table. */
    std::vector<uint64_t> _last_w0;
    std::vector<BitVec> _last;        // wide slots only
    std::vector<BitVec> _base;        // values before the oldest record

    // Ring of cycle records, oldest at _head, recycled in place so
    // the steady state allocates nothing; grown up to _capacity.
    std::vector<CycleRec> _ring;
    size_t _capacity = 0;
    size_t _head = 0;
    size_t _count = 0;
    CycleRec *_cur = nullptr;         // this cycle's record, once opened

    bool _started = false;
    uint64_t _first_cycle = 0;
    uint64_t _last_cycle = 0;
    uint64_t _captured_words = 0;

    std::vector<TriggerSlot> _triggers;
    bool _armed = false;
    std::string _armed_trigger;
    uint64_t _armed_cycle = 0;
    uint64_t _dump_at = 0;

    DumpSink _sink;
    std::vector<DumpInfo> _dumps;
};

} // namespace obs
} // namespace anvil

#endif // ANVIL_OBS_FLIGHT_H
