/**
 * @file
 * Pipeline-parallel execution tests: per-agent virtual timelines,
 * async invoke with object-dependency scheduling, bounded in-flight
 * queues, and the protection-flip barrier. The invariants under test:
 * async replays are byte-identical to sync ones and deterministic,
 * overlap only ever shrinks the makespan, and with the gate off the
 * runtime keeps the classic serialized accounting bit-for-bit.
 */

#include <gtest/gtest.h>

#include "apps/app_models.hh"
#include "apps/workload.hh"
#include "core/runtime.hh"
#include "util/logging.hh"

namespace freepart::core {
namespace {

struct PipeEnv {
    PipeEnv() : registry(fw::buildFullRegistry())
    {
        analysis::HybridCategorizer categorizer(registry);
        cats = categorizer.categorizeAll();
    }

    std::unique_ptr<FreePartRuntime>
    makeRuntime(RuntimeConfig config = {})
    {
        kernel = std::make_unique<osim::Kernel>();
        fw::seedFixtureFiles(*kernel);
        return std::make_unique<FreePartRuntime>(
            *kernel, registry, cats, PartitionPlan::freePartDefault(),
            config);
    }

    /** Replay one Table 6 app against a fresh runtime. */
    apps::WorkloadResult
    replayApp(size_t model_index, bool pipeline_gate, bool async)
    {
        apps::WorkloadGenerator::Config wconfig;
        wconfig.imageRows = 64;
        wconfig.imageCols = 64;
        wconfig.tensorDim = 16;
        wconfig.maxRounds = 3;
        wconfig.maxCallsPerRound = 2;
        apps::WorkloadGenerator generator(registry, wconfig);
        kernel = std::make_unique<osim::Kernel>();
        generator.seedInputs(*kernel);
        RuntimeConfig config;
        config.pipelineParallel = pipeline_gate;
        FreePartRuntime runtime(*kernel, registry, cats,
                                PartitionPlan::freePartDefault(),
                                config);
        const apps::AppModel &model =
            apps::appModels().at(model_index);
        return async ? generator.runAsync(runtime, model)
                     : generator.run(runtime, model);
    }

    fw::ApiRegistry registry;
    analysis::Categorization cats;
    std::unique_ptr<osim::Kernel> kernel;
};

PipeEnv &
env()
{
    static PipeEnv instance;
    return instance;
}

ipc::Value
imreadArg()
{
    return ipc::Value(std::string("/data/test.fpim"));
}

TEST(Pipeline, AsyncReplayIsByteIdenticalAndFaster)
{
    // FaceTracker: a multi-round load->process->visualize/store app.
    apps::WorkloadResult sync = env().replayApp(1, false, false);
    apps::WorkloadResult async = env().replayApp(1, true, true);
    ASSERT_EQ(sync.callsFailed, 0u);
    ASSERT_EQ(async.callsFailed, 0u);
    ASSERT_TRUE(sync.hasFinalObject);
    ASSERT_TRUE(async.hasFinalObject);
    EXPECT_EQ(sync.finalDigest, async.finalDigest);
    EXPECT_LT(async.stats.elapsed(), sync.stats.elapsed());
    EXPECT_GT(async.stats.asyncCalls, 0u);
    EXPECT_GT(async.stats.overlapFraction(), 0.0);
    EXPECT_GT(async.stats.totalBusyTime(), 0u);
}

TEST(Pipeline, AsyncReplayIsDeterministic)
{
    apps::WorkloadResult a = env().replayApp(1, true, true);
    apps::WorkloadResult b = env().replayApp(1, true, true);
    EXPECT_EQ(a.finalDigest, b.finalDigest);
    EXPECT_EQ(a.stats.elapsed(), b.stats.elapsed());
    EXPECT_EQ(a.stats.asyncCalls, b.stats.asyncCalls);
    EXPECT_EQ(a.stats.ipcMessages, b.stats.ipcMessages);
}

TEST(Pipeline, GateOffKeepsSerializedAccounting)
{
    // Async call sites must degrade to the classic sync path when the
    // gate is off: same makespan, same contents, no async counters —
    // the Table 9 baselines depend on this invariance.
    apps::WorkloadResult sync = env().replayApp(2, false, false);
    apps::WorkloadResult async_off = env().replayApp(2, false, true);
    EXPECT_EQ(sync.finalDigest, async_off.finalDigest);
    EXPECT_EQ(sync.stats.elapsed(), async_off.stats.elapsed());
    EXPECT_EQ(async_off.stats.asyncCalls, 0u);
    EXPECT_EQ(async_off.stats.pipelineBarriers, 0u);
}

TEST(Pipeline, WaitAndPeekTicketSemantics)
{
    RuntimeConfig config;
    config.pipelineParallel = true;
    auto runtime = env().makeRuntime(config);
    CallTicket ticket = runtime->invokeAsync("cv2.imread",
                                             {imreadArg()});
    ASSERT_EQ(runtime->pendingAsyncCalls(), 1u);
    const ApiResult *peeked = runtime->peekResult(ticket);
    ASSERT_NE(peeked, nullptr);
    EXPECT_TRUE(peeked->ok) << peeked->error;

    ApiResult waited = runtime->wait(ticket);
    EXPECT_TRUE(waited.ok) << waited.error;
    EXPECT_EQ(runtime->pendingAsyncCalls(), 0u);
    EXPECT_EQ(runtime->peekResult(ticket), nullptr);

    // A ticket is single-use: waiting again is an explicit error.
    ApiResult again = runtime->wait(ticket);
    EXPECT_FALSE(again.ok);
    EXPECT_NE(again.error.find("ticket"), std::string::npos);
}

TEST(Pipeline, DetachRetiresWithoutSyncingTheHost)
{
    RuntimeConfig config;
    config.pipelineParallel = true;
    auto runtime = env().makeRuntime(config);
    CallTicket ticket = runtime->invokeAsync("cv2.imread",
                                             {imreadArg()});
    osim::SimTime issued = env().kernel->now();
    ASSERT_GT(env().kernel->maxTimeline(), issued);

    ApiResult detached = runtime->detach(ticket);
    EXPECT_TRUE(detached.ok) << detached.error;
    EXPECT_EQ(env().kernel->now(), issued);
    EXPECT_EQ(runtime->pendingAsyncCalls(), 0u);
    EXPECT_FALSE(runtime->detach(ticket).ok);

    // The call still occupies its timeline until a drain settles it.
    osim::SimTime horizon = env().kernel->maxTimeline();
    runtime->drainAll();
    EXPECT_EQ(env().kernel->now(), horizon);
}

TEST(Pipeline, GateOffAsyncCompletesImmediately)
{
    auto runtime = env().makeRuntime();
    CallTicket ticket = runtime->invokeAsync("cv2.imread",
                                             {imreadArg()});
    const ApiResult *peeked = runtime->peekResult(ticket);
    ASSERT_NE(peeked, nullptr);
    EXPECT_TRUE(peeked->ok) << peeked->error;
    EXPECT_TRUE(runtime->wait(ticket).ok);
}

TEST(Pipeline, InFlightDepthIsBoundedAndStallsAreCounted)
{
    RuntimeConfig config;
    config.pipelineParallel = true;
    config.maxInFlightPerPartition = 2;
    auto runtime = env().makeRuntime(config);
    // Independent loads pile onto the loading agent's timeline while
    // the host clock stays nearly still: the queue must cap at the
    // configured depth and charge stall time instead of growing.
    std::vector<CallTicket> tickets;
    for (int i = 0; i < 8; ++i)
        tickets.push_back(
            runtime->invokeAsync("cv2.imread", {imreadArg()}));
    for (const CallTicket &ticket : tickets) {
        const ApiResult *res = runtime->peekResult(ticket);
        ASSERT_NE(res, nullptr);
        EXPECT_TRUE(res->ok) << res->error;
    }
    const RunStats &stats = runtime->stats();
    EXPECT_LE(stats.inFlightPeak, 2u);
    EXPECT_GT(stats.inFlightStalls, 0u);
    runtime->drainAll();
    EXPECT_EQ(runtime->pendingAsyncCalls(), 0u);
}

TEST(Pipeline, ProtectionFlipActsAsBarrier)
{
    RuntimeConfig config;
    config.pipelineParallel = true;
    auto runtime = env().makeRuntime(config);
    ApiResult img = runtime->invoke("cv2.imread", {imreadArg()});
    ASSERT_TRUE(img.ok) << img.error;
    uint64_t before = runtime->stats().pipelineBarriers;
    // An unprotected variable inside the processing agent, defined in
    // the Loading state: the next state transition must mprotect it,
    // and under overlap that flip requires draining the timelines.
    runtime->allocInPartition(1, "agent-scratch", 64);
    ApiResult blur =
        runtime->invoke("cv2.GaussianBlur", {img.values[0]});
    ASSERT_TRUE(blur.ok) << blur.error;
    EXPECT_GT(runtime->stats().pipelineBarriers, before);
}

TEST(Pipeline, DrainAllSettlesTimelines)
{
    RuntimeConfig config;
    config.pipelineParallel = true;
    auto runtime = env().makeRuntime(config);
    for (int i = 0; i < 3; ++i)
        runtime->invokeAsync("cv2.imread", {imreadArg()});
    EXPECT_EQ(runtime->pendingAsyncCalls(), 3u);
    osim::SimTime horizon = env().kernel->maxTimeline();
    runtime->drainAll();
    EXPECT_EQ(runtime->pendingAsyncCalls(), 0u);
    EXPECT_GE(env().kernel->now(), horizon);
    // Post-drain, the global clock covers every per-process timeline.
    EXPECT_EQ(env().kernel->now(), env().kernel->maxTimeline());
}

TEST(Pipeline, StatsOverlapFractionBounds)
{
    RunStats stats;
    EXPECT_EQ(stats.overlapFraction(), 0.0);
    stats.partitionBusyTime = {600, 600};
    stats.criticalPathMakespan = 800;
    // busy 1200 over a 800 span: 1/3 of busy time ran concurrently.
    EXPECT_NEAR(stats.overlapFraction(), 1.0 / 3.0, 1e-9);
    stats.criticalPathMakespan = 1500; // span exceeds busy: no overlap
    EXPECT_EQ(stats.overlapFraction(), 0.0);
}

} // namespace
} // namespace freepart::core
