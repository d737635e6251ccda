/**
 * @file
 * Shared support for the repository benchmark: the wall clock, the
 * span recorder behind traced runs, the metric sink that prints the
 * result line, and the per-pass fingerprint that checks simulated
 * results repeat exactly.
 *
 * Everything here lives in the benchmark's own files. Spans wrap the
 * calls the benchmark makes into each module's public functions; no
 * span is recorded inside the program.
 */

#ifndef FREEPART_PERFBENCH_BENCH_HH
#define FREEPART_PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/hybrid_categorizer.hh"
#include "fw/api_registry.hh"

namespace freepart::perfbench {

/** Seconds on the monotonic wall clock. */
inline double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Nearest-rank percentile of a sorted sample (p in [0, 1]); the
 *  same rule serve::percentileUs applies to simulated latencies. */
inline double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    size_t idx = static_cast<size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2.0;
}

/** Peak resident set of this process, in MB. */
double peakRssMb();

/** Spans a traced run reserves room for (about 5 MB). */
constexpr size_t kSpanReserve = size_t(1) << 17;

/**
 * In-memory span recorder. A span is one timed call into a layer's
 * public function: name ("<layer>.<function>"), call id, parent span
 * and wall start/end. Spans of one API call share its call id. When
 * disabled, Scope does nothing and nothing is stored.
 */
class Tracer
{
  public:
    struct Span {
        const char *name;
        uint64_t call;
        int64_t parent; //!< index of the enclosing span, -1 = none
        double start;   //!< wall seconds
        double end;
    };

    /** RAII span around one call. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, uint64_t call)
            : tracer_(tracer.enabled ? &tracer : nullptr)
        {
            if (tracer_)
                index_ = tracer_->open(name, call);
        }
        ~Scope()
        {
            if (tracer_)
                tracer_->close(index_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        size_t index_ = 0;
    };

    bool enabled = false;

    /** Allocate room for `count` spans up front, so that recording
     *  neither reallocates mid-pass nor shifts the heap between
     *  untraced and traced passes. */
    void reserve(size_t count) { spans_.reserve(count); }

    /** A fresh call id (one per API call the benchmark makes). */
    uint64_t nextCall() { return ++lastCall_; }

    /** Self time per span name in seconds: a span's duration minus
     *  the part its child spans cover, summed over spans. */
    std::map<std::string, double> selfTimes() const;

    /** Write the spans as Chrome trace-event JSON. */
    bool writeChromeTrace(const std::string &path) const;

    size_t spanCount() const { return spans_.size(); }

  private:
    size_t open(const char *name, uint64_t call);
    void close(size_t index);

    std::vector<Span> spans_;
    std::vector<size_t> stack_;
    uint64_t lastCall_ = 0;
};

/**
 * Values one pass of a workload produced on the simulated clock plus
 * its work counters. Two passes of one seed must produce identical
 * fingerprints; a mismatch is a correctness failure.
 */
struct Fingerprint {
    std::vector<std::pair<std::string, double>> entries;

    void add(const std::string &name, double value)
    {
        entries.emplace_back(name, value);
    }

    /** Name of the first entry that differs, or "" when identical. */
    std::string firstDifference(const Fingerprint &other) const;
};

/** One reported metric: value, unit and clock ("wall", "sim" or
 *  "count"; "-" for plain ratios). */
struct Metric {
    double value = 0.0;
    std::string unit;
    std::string clock;
};

/** Ordered metric set printed in the report and the result line. */
class MetricSet
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit, const std::string &clock);
    const std::map<std::string, Metric> &all() const { return values_; }

    /** Human-readable table on stdout. */
    void printTable(const char *title) const;

    /** The metrics object of the result line. */
    std::string json() const;

  private:
    std::map<std::string, Metric> values_;
    std::vector<std::string> order_;
};

/** Outcome of one workload run, as the result line reports it. */
struct RunResult {
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> violations;
    MetricSet endToEnd; //!< untraced run metrics
    MetricSet perLayer; //!< traced run metrics

    void
    violation(const std::string &what)
    {
        correct = false;
        ++failed;
        violations.push_back(what);
    }
};

/** Run options from the command line. */
struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string traceOut; //!< Chrome trace path ("" = none)
};

/**
 * Registry and offline categorization, built once per process (and
 * again inside every timed set-up repetition).
 */
struct Frameworks {
    fw::ApiRegistry registry;
    analysis::Categorization categorization;

    Frameworks()
        : registry(fw::buildFullRegistry()),
          categorization(
              analysis::HybridCategorizer(registry).categorizeAll())
    {
    }
};

/** Traced runs alternate untraced and traced passes, starting
 *  untraced, so both come from one process. */
inline bool
tracedPass(const Options &options, size_t pass)
{
    return options.trace && pass % 2 == 1;
}

/**
 * The timed phase: whole passes until the next one would overrun
 * options.seconds, at least min_passes (three when traced: untraced,
 * traced, untraced). A pass is whatever run_pass returns; it must
 * carry `calls` and `callWall` (wall seconds spent issuing them).
 */
template <typename Pass, typename RunPass>
std::vector<Pass>
timedPasses(const Options &options, Tracer &tracer, size_t min_passes,
            RunPass run_pass)
{
    if (options.trace)
        min_passes = std::max<size_t>(min_passes, 3);
    std::vector<Pass> passes;
    double start = wallNow();
    while (true) {
        tracer.enabled = tracedPass(options, passes.size());
        passes.push_back(run_pass());
        double elapsed = wallNow() - start;
        double next_end = elapsed * static_cast<double>(passes.size() + 1) /
                          static_cast<double>(passes.size());
        if (passes.size() >= min_passes && next_end > options.seconds)
            break;
    }
    tracer.enabled = false;
    return passes;
}

/** Call rates of a timed phase: medians over passes of each pass's
 *  calls per wall second, so one disturbed pass does not move them.
 *  callRates() also prints every pass's rate ("t" = traced). */
struct CallRates {
    double untraced = 0.0; //!< every untraced pass: calls_per_s
    /** For the tracing overhead: untraced and traced passes after the
     *  first, which also warms the allocator. */
    double untracedWarm = 0.0;
    double traced = 0.0;
};

template <typename Pass>
CallRates
callRates(const Options &options, const std::vector<Pass> &passes)
{
    std::vector<double> untraced, warm, traced;
    std::printf("calls/s per pass:");
    for (size_t p = 0; p < passes.size(); ++p) {
        double rate =
            static_cast<double>(passes[p].calls) / passes[p].callWall;
        std::printf(" %.1f%s", rate, tracedPass(options, p) ? "t" : "");
        if (tracedPass(options, p)) {
            traced.push_back(rate);
            continue;
        }
        untraced.push_back(rate);
        if (p > 0)
            warm.push_back(rate);
    }
    std::printf("\n");
    return {median(untraced), median(warm), median(traced)};
}

/** Number of traced passes among `passes` (see tracedPass). */
inline double
tracedPassCount(size_t passes)
{
    return static_cast<double>(passes / 2);
}

/** The trace.* per-layer metrics of a traced run, and its Chrome
 *  trace file when one was asked for. */
void reportTracing(const Options &options, const CallRates &rates,
                   const Tracer &tracer, RunResult &result);

/** Workload entry points (apps-768-sync and apps-64-sync-async share
 *  the first, serve-zipf-192 is the second). */
RunResult runAppsWorkload(const Options &options);
RunResult runServeWorkload(const Options &options);

} // namespace freepart::perfbench

#endif // FREEPART_PERFBENCH_BENCH_HH
