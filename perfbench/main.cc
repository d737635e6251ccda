/**
 * @file
 * Repository benchmark entry point: runs one named workload in this
 * process, checks its outputs, and prints a report followed by one
 * JSON result line (the last line of stdout):
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <chrome-trace.json>]
 *
 * With --trace 0 the result carries the end-to-end metrics; with
 * --trace 1 it carries the per-layer metrics of a traced run. The
 * exit code is 0 only when every correctness check passed.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hh"

using namespace freepart::perfbench;

namespace {

struct MetricDef {
    const char *name;
    const char *unit;
    const char *clock;
};

/** End-to-end metrics: every workload reports each of them. */
const MetricDef kEndToEnd[] = {
    {"calls_per_s", "calls/s", "wall"},
    {"setup_s", "s", "wall"},
    {"peak_rss_mb", "MB", "wall"},
    {"slo_attainment", "ratio", "sim"},
};

/** Per-layer metrics of a traced run. A layer a workload bypasses
 *  reports 0. */
const MetricDef kPerLayer[] = {
    {"sim_p50_us", "us", "sim"},
    {"sim_p99_us", "us", "sim"},
    {"shard_seconds", "s", "sim"},
    {"call_p50_us", "us", "wall"},
    {"call_p99_us", "us", "wall"},
    {"sim_overhead_pct", "%", "sim"},
    {"sim_async_speedup", "ratio", "sim"},
    {"failed_frac", "ratio", "-"},
    {"osim.sim_elapsed_ms", "ms", "sim"},
    {"osim.inhost_sim_elapsed_ms", "ms", "sim"},
    {"osim.events", "count", "count"},
    {"osim.processes", "count", "count"},
    {"osim.syscall_denials", "count", "count"},
    {"osim.mem_faults", "count", "count"},
    {"fw.prepare_args_s", "s", "wall"},
    {"fw.inhost_call_s", "s", "wall"},
    {"fw.seed_inputs_s", "s", "wall"},
    {"core.runtime_init_s", "s", "wall"},
    {"core.call_s", "s", "wall"},
    {"core.isolation_s", "s", "wall"},
    {"core.fetch_s", "s", "wall"},
    {"core.drain_s", "s", "wall"},
    {"core.checkpoints", "count", "count"},
    {"core.checkpoint_bytes", "bytes", "count"},
    {"core.state_changes", "count", "count"},
    {"core.protection_flips", "count", "count"},
    {"core.lazy_copies", "count", "count"},
    {"core.direct_copies", "count", "count"},
    {"core.eager_copies", "count", "count"},
    {"core.overlap_fraction", "ratio", "sim"},
    {"core.pipeline_barriers", "count", "count"},
    {"core.inflight_stalls", "count", "count"},
    {"core.speculation_starts", "count", "count"},
    {"core.speculation_rollbacks", "count", "count"},
    {"ipc.messages", "count", "count"},
    {"ipc.bytes", "bytes", "count"},
    {"ipc.hot_sends", "count", "count"},
    {"ipc.piggybacked_fetches", "count", "count"},
    {"shard.router_init_s", "s", "wall"},
    {"shard.migrations", "count", "count"},
    {"shard.migrated_bytes", "bytes", "count"},
    {"shard.proxied_calls", "count", "count"},
    {"shard.cross_shard_calls", "count", "count"},
    {"shard.queue_depth_peak", "count", "count"},
    {"shard.imbalance", "ratio", "count"},
    {"shard.replica_saves", "count", "count"},
    {"shard.replica_bytes", "bytes", "count"},
    {"shard.hedged_calls", "count", "count"},
    {"shard.degraded_calls", "count", "count"},
    {"shard.shed_calls", "count", "count"},
    {"shard.deadline_misses", "count", "count"},
    {"shard.dedup_hits", "count", "count"},
    {"serve.run_s", "s", "wall"},
    {"serve.sessions_started", "count", "count"},
    {"serve.warm_checkouts", "count", "count"},
    {"serve.cold_starts", "count", "count"},
    {"serve.checkout_mean_us", "us", "sim"},
    {"serve.scale_ups", "count", "count"},
    {"serve.scale_downs", "count", "count"},
    {"serve.live_peak", "count", "count"},
    {"serve.objects_scrubbed", "count", "count"},
    {"apps.replay_loop_s", "s", "wall"},
    {"trace.untraced_calls_per_s", "calls/s", "wall"},
    {"trace.traced_calls_per_s", "calls/s", "wall"},
    {"trace.overhead_pct", "%", "wall"},
    {"trace.spans", "count", "count"},
};

/** The workload's values in canonical order, 0 where it has none. */
template <size_t N>
MetricSet
canonical(const MetricDef (&defs)[N], const MetricSet &measured)
{
    MetricSet out;
    for (const MetricDef &def : defs) {
        auto it = measured.all().find(def.name);
        if (it != measured.all().end())
            out.set(def.name, it->second.value, it->second.unit,
                    it->second.clock);
        else
            out.set(def.name, 0.0, def.unit, def.clock);
    }
    return out;
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload apps-768-sync|apps-64-sync-async|"
                 "serve-zipf-192 --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <path>]\n",
                 argv0);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        std::string value = argv[++i];
        if (arg == "--workload")
            options.workload = value;
        else if (arg == "--seed")
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            options.seconds = std::strtod(value.c_str(), nullptr);
        else if (arg == "--trace")
            options.trace = value == "1";
        else if (arg == "--trace-out")
            options.traceOut = value;
        else
            usage(argv[0]);
    }
    if (options.workload.empty() || options.seconds <= 0.0)
        usage(argv[0]);
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options = parseOptions(argc, argv);
    RunResult result;
    try {
        if (options.workload == "apps-768-sync" ||
            options.workload == "apps-64-sync-async")
            result = runAppsWorkload(options);
        else if (options.workload == "serve-zipf-192")
            result = runServeWorkload(options);
        else
            usage(argv[0]);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 1;
    }

    MetricSet e2e = canonical(kEndToEnd, result.endToEnd);
    MetricSet layers = canonical(kPerLayer, result.perLayer);
    std::printf("workload %s seed %llu%s\n", options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.trace ? " (traced)" : "");
    e2e.printTable("end-to-end metrics (name, value, unit, clock):");
    layers.printTable(options.trace
                          ? "per-layer metrics (traced run):"
                          : "per-layer counts (wall spans need --trace 1):");
    for (const std::string &violation : result.violations)
        std::printf("CHECK FAILED: %s\n", violation.c_str());
    std::printf("correctness: %s\n", result.correct ? "ok" : "FAILED");

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                (options.trace ? layers : e2e).json().c_str());
    return result.correct ? 0 : 1;
}
