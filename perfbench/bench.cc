#include "bench.hh"

#include <sys/resource.h>

#include <cmath>
#include <cstring>

namespace freepart::perfbench {

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

size_t
Tracer::open(const char *name, uint64_t call)
{
    int64_t parent =
        stack_.empty() ? -1 : static_cast<int64_t>(stack_.back());
    spans_.push_back({name, call, parent, wallNow(), 0.0});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
Tracer::close(size_t index)
{
    spans_[index].end = wallNow();
    stack_.pop_back();
}

std::map<std::string, double>
Tracer::selfTimes() const
{
    std::vector<double> childTime(spans_.size(), 0.0);
    for (const Span &span : spans_)
        if (span.parent >= 0)
            childTime[static_cast<size_t>(span.parent)] +=
                span.end - span.start;
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i)
        self[spans_[i].name] +=
            spans_[i].end - spans_[i].start - childTime[i];
    return self;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file)
        return false;
    double origin = spans_.empty() ? 0.0 : spans_.front().start;
    std::fprintf(file, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        const char *dot = std::strchr(span.name, '.');
        std::string layer =
            dot ? std::string(span.name, dot) : std::string(span.name);
        std::fprintf(file,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"call\":%llu,\"parent\":%lld}}",
                     i ? "," : "", span.name, layer.c_str(),
                     (span.start - origin) * 1e6,
                     (span.end - span.start) * 1e6,
                     static_cast<unsigned long long>(span.call),
                     static_cast<long long>(span.parent));
    }
    std::fprintf(file, "\n]}\n");
    return std::fclose(file) == 0;
}

std::string
Fingerprint::firstDifference(const Fingerprint &other) const
{
    if (entries.size() != other.entries.size())
        return "entry count";
    for (size_t i = 0; i < entries.size(); ++i)
        if (entries[i] != other.entries[i])
            return entries[i].first;
    return "";
}

void
reportTracing(const Options &options, const CallRates &rates,
              const Tracer &tracer, RunResult &result)
{
    MetricSet &layer = result.perLayer;
    layer.set("trace.untraced_calls_per_s", rates.untracedWarm, "calls/s",
              "wall");
    layer.set("trace.traced_calls_per_s", rates.traced, "calls/s", "wall");
    layer.set("trace.overhead_pct",
              (rates.untracedWarm - rates.traced) / rates.untracedWarm *
                  100.0,
              "%", "wall");
    layer.set("trace.spans", static_cast<double>(tracer.spanCount()),
              "count", "count");
    if (!options.traceOut.empty() &&
        !tracer.writeChromeTrace(options.traceOut))
        result.violation("cannot write " + options.traceOut);
}

void
MetricSet::set(const std::string &name, double value,
               const std::string &unit, const std::string &clock)
{
    if (!values_.count(name))
        order_.push_back(name);
    values_[name] = {value, unit, clock};
}

void
MetricSet::printTable(const char *title) const
{
    std::printf("%s\n", title);
    for (const std::string &name : order_) {
        const Metric &metric = values_.at(name);
        std::printf("  %-34s %18.6f  %-8s [%s]\n", name.c_str(),
                    metric.value, metric.unit.c_str(),
                    metric.clock.c_str());
    }
}

std::string
MetricSet::json() const
{
    std::string out = "{";
    for (size_t i = 0; i < order_.size(); ++i) {
        const Metric &metric = values_.at(order_[i]);
        char value[64];
        // Finite values only: JSON has no NaN or infinity.
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(metric.value) ? metric.value : 0.0);
        out += (i ? ", \"" : "\"") + order_[i] + "\": {\"value\": " +
               value + ", \"unit\": \"" + metric.unit + "\"}";
    }
    return out + "}";
}

} // namespace freepart::perfbench
