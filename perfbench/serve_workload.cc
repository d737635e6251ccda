/**
 * @file
 * serve-zipf-192: open loop on the simulated arrival axis. 1,500
 * Zipf(1.1) tenants replay 6-call sessions of the Table 6 app models
 * on 192x192 frames through a low -> peak -> cool Poisson ramp, into
 * a ShardRouter with the SLO autoscaler (2..6 shards), the warm agent
 * pool and result replication. Driven through
 * serve::TenantTrafficGenerator::run, one run per pass.
 *
 * The schedule is fixed in simulated time: the gaps and the deadline
 * below were taken once from the calibration bench_serve_autoscale
 * performs (mean service of the op mix on an unloaded shard, 300,167
 * ns) and are never re-calibrated, so a faster or slower program
 * faces the same offered load. Arrivals live on the simulated axis,
 * so the generator is never late: its lateness is zero by
 * construction.
 *
 * The traffic realization (tenant draws and Poisson gaps) is part of
 * that fixed schedule: the generator keeps its default seed, as the
 * bench does. The autoscaler's response to a different realization
 * changes the work done by up to 2x (checkpoint bytes ranged 0.52 to
 * 1.20 GB over five seeds), which would swamp any change to the
 * program. The benchmark seed sets the pixels of the frame every
 * session loads.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "apps/workload.hh"
#include "bench.hh"
#include "fw/image_format.hh"
#include "fw/invoker.hh"
#include "serve/agent_pool.hh"
#include "serve/autoscaler.hh"
#include "serve/tenant_workload.hh"
#include "shard/shard_router.hh"

namespace freepart::perfbench {

namespace {

constexpr osim::SimTime kValleyGap = 375'208; //!< mean gap, low/cool
constexpr osim::SimTime kPeakGap = 85'762;    //!< mean gap, peak
constexpr osim::SimTime kDeadline = 2'401'336; //!< per call
constexpr uint32_t kTenants = 1500;
constexpr uint32_t kImageDim = 192;
constexpr uint32_t kMinShards = 2;
constexpr uint32_t kMaxShards = 6;
constexpr uint32_t kSessionCap = 40;
constexpr int kSetupReps = 25; // each one is only a few ms

const std::vector<serve::RampPhase> &
ramp()
{
    static const std::vector<serve::RampPhase> phases = {
        {1200, kValleyGap}, {3600, kPeakGap}, {1200, kValleyGap}};
    return phases;
}

/** The serving stack of one pass, in construction order (and so
 *  destroyed scaler first, generator last). */
struct Stack {
    std::unique_ptr<apps::WorkloadGenerator> generator;
    std::unique_ptr<shard::ShardRouter> router;
    std::unique_ptr<serve::WarmAgentPool> pool;
    std::unique_ptr<serve::Autoscaler> scaler;
    std::unique_ptr<serve::TenantTrafficGenerator> traffic;
};

std::unique_ptr<Stack>
buildStack(const Frameworks &fws, uint64_t seed, Tracer &tracer,
           uint64_t call)
{
    auto stack = std::make_unique<Stack>();
    apps::WorkloadGenerator::Config wconfig;
    wconfig.maxRounds = 1;
    wconfig.maxCallsPerRound = 6;
    wconfig.imageRows = kImageDim;
    wconfig.imageCols = kImageDim;
    stack->generator = std::make_unique<apps::WorkloadGenerator>(
        fws.registry, wconfig);

    shard::ShardRouterConfig config;
    config.shardCount = kMinShards;
    config.runtime.ringBytes = 2 << 20;
    config.dedupEntries = 1 << 13; // hold every token of the run
    config.replicateObjects = true;
    config.defaultDeadline = kDeadline;
    const apps::WorkloadGenerator *generator = stack->generator.get();
    shard::ShardRouter::SeedFn seed_fn =
        [generator, seed](osim::Kernel &kernel) {
            generator->seedInputs(kernel);
            fw::TestFixture fixture;
            kernel.vfs().putFile(
                fixture.imagePath,
                fw::encodeImageFile(kImageDim, kImageDim, fixture.channels,
                                    fw::synthPixels(kImageDim, kImageDim,
                                                    fixture.channels,
                                                    seed)));
        };
    {
        Tracer::Scope span(tracer, "shard.routerInit", call);
        stack->router = std::make_unique<shard::ShardRouter>(
            fws.registry, fws.categorization,
            core::PartitionPlan::freePartDefault(), std::move(config),
            seed_fn);
    }

    Tracer::Scope span(tracer, "serve.setup", call);
    core::FreePartRuntime &probe = stack->router->runtime(0);
    serve::AgentPoolConfig pool_config;
    pool_config.enabled = true;
    pool_config.initialSize = kSessionCap / kMinShards;
    pool_config.maxSize = kSessionCap + 8;
    pool_config.warmHandoff = probe.sessionWarmHandoffCost();
    pool_config.epochReset = probe.sessionEpochResetCost();
    pool_config.coldSpawn = probe.sessionColdStartCost();
    stack->pool = std::make_unique<serve::WarmAgentPool>(pool_config);

    serve::AutoscalerConfig scaler_config;
    scaler_config.minLiveShards = kMinShards;
    scaler_config.maxLiveShards = kMaxShards;
    scaler_config.tickInterval = 250'000;
    scaler_config.scaleUpDepth = 4.0;
    scaler_config.scaleDownDepth = 0.6;
    scaler_config.panicDepth = 16.0;
    scaler_config.sustainUp = 3;
    scaler_config.sustainDown = 12;
    scaler_config.cooldown = 2'000'000;
    scaler_config.seed = seed_fn;
    scaler_config.poolMin = pool_config.initialSize;
    scaler_config.poolMax = pool_config.maxSize;
    stack->scaler = std::make_unique<serve::Autoscaler>(
        *stack->router, scaler_config, stack->pool.get());

    serve::TenantWorkloadConfig tconfig;
    tconfig.tenants = kTenants;
    tconfig.zipfExponent = 1.1;
    tconfig.maxConcurrentSessions = kSessionCap;
    stack->traffic = std::make_unique<serve::TenantTrafficGenerator>(
        *stack->generator, tconfig);
    return stack;
}

/** One pass: a fresh serving stack and one run of the ramp. */
struct Pass {
    serve::ServeOutcome outcome;
    double events = 0, processes = 0;
    uint64_t calls = 0;    //!< issued
    double callWall = 0.0; //!< wall time of run(), set-up excluded
    Fingerprint fingerprint;
};

Pass
runPass(const Frameworks &fws, uint64_t seed, Tracer &tracer)
{
    Pass pass;
    std::unique_ptr<Stack> stack =
        buildStack(fws, seed, tracer, tracer.nextCall());
    double start = wallNow();
    {
        Tracer::Scope span(tracer, "serve.run", tracer.nextCall());
        pass.outcome = stack->traffic->run(*stack->router, ramp(),
                                           stack->scaler.get(),
                                           stack->pool.get());
    }
    pass.callWall = wallNow() - start;
    pass.calls = pass.outcome.issued;
    for (uint32_t s = 0; s < stack->router->shardCount(); ++s) {
        pass.events +=
            static_cast<double>(stack->router->kernel(s).events().size());
        pass.processes +=
            static_cast<double>(stack->router->kernel(s).processCount());
    }

    const serve::ServeOutcome &o = pass.outcome;
    const shard::ClusterStats &c = o.cluster;
    const core::RunStats &t = c.shardTotals;
    Fingerprint &f = pass.fingerprint;
    for (auto [name, value] : std::initializer_list<
             std::pair<const char *, double>>{
             {"issued", static_cast<double>(o.issued)},
             {"acked", static_cast<double>(o.acked)},
             {"in_deadline", static_cast<double>(o.ackedInDeadline)},
             {"lost_acks", static_cast<double>(o.lostAcks)},
             {"p50", o.p50Us},
             {"p99", o.p99Us},
             {"p999", o.p999Us},
             {"shard_seconds", o.shardSeconds},
             {"makespan", static_cast<double>(c.makespan)},
             {"events", pass.events},
             {"processes", pass.processes},
             {"migrations", static_cast<double>(c.migrations)},
             {"migrated_bytes", static_cast<double>(c.migratedBytes)},
             {"proxied", static_cast<double>(c.proxiedCalls)},
             {"cross_shard", static_cast<double>(c.crossShardCalls)},
             {"replica_bytes", static_cast<double>(c.replicaBytes)},
             {"shed", static_cast<double>(c.shedCalls)},
             {"hedged", static_cast<double>(c.hedgedCalls)},
             {"dedup_hits", static_cast<double>(c.dedupHits)},
             {"scrubbed", static_cast<double>(c.sessionObjectsScrubbed)},
             {"scale_ups", static_cast<double>(o.scaler.scaleUps)},
             {"scale_downs", static_cast<double>(o.scaler.scaleDowns)},
             {"warm", static_cast<double>(o.pool.warmCheckouts)},
             {"messages", static_cast<double>(t.ipcMessages)},
             {"bytes", static_cast<double>(t.bytesTransferred)},
             {"checkpoint_bytes",
              static_cast<double>(t.checkpointBytesSaved)},
             {"flips", static_cast<double>(t.protectionFlips)}})
        f.add(name, value);
    return pass;
}

double
timedSetup(uint64_t seed)
{
    Tracer off;
    double start = wallNow();
    Frameworks fws;
    std::unique_ptr<Stack> stack = buildStack(fws, seed, off, 0);
    return wallNow() - start;
}

} // namespace

RunResult
runServeWorkload(const Options &options)
{
    RunResult result;
    Tracer tracer;
    if (options.trace)
        tracer.reserve(kSpanReserve);
    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps; ++rep)
        setups.push_back(timedSetup(options.seed));

    Frameworks fws;
    // Two passes at least, so every run checks that the simulated
    // results repeat.
    std::vector<Pass> passes = timedPasses<Pass>(
        options, tracer, 2, [&] { return runPass(fws, options.seed, tracer); });

    const Pass &first = passes.front();
    const serve::ServeOutcome &o = first.outcome;
    const shard::ClusterStats &c = o.cluster;
    const core::RunStats &t = c.shardTotals;
    for (size_t p = 1; p < passes.size(); ++p) {
        std::string diff =
            first.fingerprint.firstDifference(passes[p].fingerprint);
        if (!diff.empty())
            result.violation("pass " + std::to_string(p) +
                             " differs from pass 0 in " + diff);
    }
    if (o.lostAcks != 0)
        result.violation(std::to_string(o.lostAcks) +
                         " acknowledged calls lost in the audit");
    if (t.syscallDenials != 0 || t.memFaults != 0)
        result.violation("syscall denials or memory faults in a benign "
                         "run");

    // A call the admission control refused (shed) is an SLO miss, not
    // a failed operation: it counts in slo_attainment and failed_frac.
    for (const Pass &pass : passes) {
        const serve::ServeOutcome &po = pass.outcome;
        result.attempted += po.issued;
        uint64_t unacked = po.issued - po.acked;
        result.failed += unacked - std::min(unacked, po.cluster.shedCalls);
    }
    CallRates rates = callRates(options, passes);

    MetricSet &e2e = result.endToEnd;
    MetricSet &layer = result.perLayer;
    e2e.set("calls_per_s", rates.untraced, "calls/s", "wall");
    e2e.set("setup_s", median(setups), "s", "wall");
    e2e.set("peak_rss_mb", peakRssMb(), "MB", "wall");
    e2e.set("slo_attainment", o.sloAttainment, "ratio", "sim");
    layer.set("sim_p50_us", o.p50Us, "us", "sim");
    layer.set("sim_p99_us", o.p99Us, "us", "sim");
    layer.set("shard_seconds", o.shardSeconds, "s", "sim");

    layer.set("failed_frac",
              static_cast<double>(o.issued - o.acked) /
                  static_cast<double>(o.issued),
              "ratio", "-");
    layer.set("osim.sim_elapsed_ms", static_cast<double>(c.makespan) / 1e6,
              "ms", "sim");
    layer.set("osim.events", first.events, "count", "count");
    layer.set("osim.processes", first.processes, "count", "count");
    layer.set("osim.syscall_denials",
              static_cast<double>(t.syscallDenials), "count", "count");
    layer.set("osim.mem_faults", static_cast<double>(t.memFaults),
              "count", "count");
    auto count = [&layer](const char *name, uint64_t value,
                          const char *unit = "count") {
        layer.set(name, static_cast<double>(value), unit, "count");
    };
    count("core.checkpoints", t.checkpointsTaken);
    count("core.checkpoint_bytes", t.checkpointBytesSaved, "bytes");
    count("core.state_changes", t.stateChanges);
    count("core.protection_flips", t.protectionFlips);
    count("core.lazy_copies", t.lazyCopies);
    count("core.direct_copies", t.directCopies);
    count("core.eager_copies", t.eagerCopies);
    layer.set("core.overlap_fraction", t.overlapFraction(), "ratio", "sim");
    count("core.pipeline_barriers", t.pipelineBarriers);
    count("core.inflight_stalls", t.inFlightStalls);
    count("core.speculation_starts", t.speculationStarts);
    count("core.speculation_rollbacks", t.speculationRollbacks);
    count("ipc.messages", t.ipcMessages);
    count("ipc.bytes", t.bytesTransferred, "bytes");
    count("ipc.hot_sends", t.hotSends);
    count("ipc.piggybacked_fetches", t.piggybackedFetches);
    count("shard.migrations", c.migrations);
    count("shard.migrated_bytes", c.migratedBytes, "bytes");
    count("shard.proxied_calls", c.proxiedCalls);
    count("shard.cross_shard_calls", c.crossShardCalls);
    count("shard.queue_depth_peak", c.queueDepthPeak);
    layer.set("shard.imbalance", c.imbalance(), "ratio", "count");
    count("shard.replica_saves", c.replicaSaves);
    count("shard.replica_bytes", c.replicaBytes, "bytes");
    count("shard.hedged_calls", c.hedgedCalls);
    count("shard.degraded_calls", c.degradedCalls);
    count("shard.shed_calls", c.shedCalls);
    count("shard.deadline_misses", c.deadlineMisses);
    count("shard.dedup_hits", c.dedupHits);
    count("serve.sessions_started", o.sessionsStarted);
    count("serve.warm_checkouts", o.pool.warmCheckouts);
    count("serve.cold_starts", o.pool.coldFallbacks);
    layer.set("serve.checkout_mean_us", o.pool.meanCheckoutUs(), "us",
              "sim");
    count("serve.scale_ups", o.scaler.scaleUps);
    count("serve.scale_downs", o.scaler.scaleDowns);
    count("serve.live_peak", o.scaler.livePeak);
    count("serve.objects_scrubbed", c.sessionObjectsScrubbed);

    if (options.trace) {
        std::map<std::string, double> self = tracer.selfTimes();
        double traced_passes = tracedPassCount(passes.size());
        auto per_pass = [&](const char *name) {
            return self[name] / traced_passes;
        };
        layer.set("shard.router_init_s", per_pass("shard.routerInit"),
                  "s", "wall");
        layer.set("serve.run_s", per_pass("serve.run"), "s", "wall");
        reportTracing(options, rates, tracer, result);
    }
    std::printf("serve: %zu pass(es) of %llu calls; wall time inside "
                "ShardRouter::invokeAt is not separable from serve.run_s "
                "until the program records its own spans\n",
                passes.size(), static_cast<unsigned long long>(o.issued));
    return result;
}

} // namespace freepart::perfbench
