#include "obs/triage.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/stream.h"
#include "support/strings.h"

namespace anvil {
namespace obs {

AssertionTriage::AssertionTriage(
    const trace::ContractMonitor &monitor, EventSink *sink)
    : _monitor(monitor), _sink(sink)
{
}

void
AssertionTriage::onAttach(ChangeFeed &)
{
    // No net subscriptions: the feed visit is just the per-cycle
    // hook that drains the monitor's violation log.
}

void
AssertionTriage::onPrime(rtl::Sim &, uint64_t)
{
    drain();
}

void
AssertionTriage::onCycle(rtl::Sim &, uint64_t,
                         const std::vector<rtl::NetId> &)
{
    drain();
}

void
AssertionTriage::onFinish(rtl::Sim &)
{
    // The monitor's visit order within the feed is not guaranteed to
    // precede ours; pick up anything logged after our last visit.
    drain();
}

void
AssertionTriage::drain()
{
    const auto &log = _monitor.violations();
    for (; _seen < log.size(); _seen++) {
        const trace::ContractViolation &v = log[_seen];
        if (_sink)
            _sink->violation(v.cycle, v.channel, v.rule, v.message);
        fold(_entries, v.channel, v.rule, v.cycle);
    }
}

void
AssertionTriage::fold(std::vector<Entry> &entries,
                      const std::string &channel, const std::string &rule,
                      uint64_t cycle)
{
    for (Entry &e : entries)
        if (e.channel == channel && e.rule == rule) {
            e.count++;
            e.first_cycle = std::min(e.first_cycle, cycle);
            return;
        }
    entries.push_back({channel, rule, cycle, 1});
}

std::vector<AssertionTriage::Entry>
AssertionTriage::rank(std::vector<Entry> entries)
{
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  if (a.first_cycle != b.first_cycle)
                      return a.first_cycle < b.first_cycle;
                  if (a.channel != b.channel)
                      return a.channel < b.channel;
                  return a.rule < b.rule;
              });
    return entries;
}

void
AssertionTriage::exportMetrics(MetricsRegistry &reg,
                               const std::vector<Entry> &entries)
{
    uint64_t total = 0;
    for (const Entry &e : entries) {
        total += e.count;
        reg.counter("triage.sig." + e.channel + "." + e.rule) =
            e.count;
    }
    reg.counter("triage.signatures") = entries.size();
    reg.counter("triage.violations") = total;
}

std::string
AssertionTriage::format(const std::vector<Entry> &entries)
{
    if (entries.empty())
        return "triage: no contract violations\n";
    std::string out = strfmt("triage: %zu signature(s)\n",
                             entries.size());
    for (const Entry &e : entries)
        out += strfmt("  %-24s %-10s x%-6llu first @%llu\n",
                      e.channel.c_str(), e.rule.c_str(),
                      static_cast<unsigned long long>(e.count),
                      static_cast<unsigned long long>(e.first_cycle));
    return out;
}

} // namespace obs
} // namespace anvil
