/**
 * @file
 * Hot-path regression tests for the batched zero-copy RPC transport
 * and the dirty-epoch checkpoint machinery: ring wraparound under
 * batched and reserve/commit producers, codec edge cases (empty
 * payloads, slot-exact records, batch-of-one framing, corrupted
 * batch trailers), incremental-checkpoint byte savings and restore
 * fidelity, buffer sharing between full generations, and the bounded
 * LRU dedup cache.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/dedup_cache.hh"
#include "core/runtime.hh"
#include "fw/image_format.hh"
#include "ipc/channel.hh"
#include "ipc/codec.hh"
#include "ipc/spsc_ring.hh"
#include "osim/fault_injection.hh"
#include "util/logging.hh"

namespace freepart {
namespace {

// ---- Ring wraparound under the batched producers ---------------------

std::vector<uint8_t>
patternRecord(size_t len, uint8_t seed)
{
    std::vector<uint8_t> rec(len);
    for (size_t i = 0; i < len; ++i)
        rec[i] = static_cast<uint8_t>(seed + i * 7);
    return rec;
}

TEST(RingWraparound, BatchedPushPreservesFifoAcrossManyWraps)
{
    // Capacity far smaller than the total traffic: every few batches
    // the free-running indices cross the wrap boundary at a different
    // offset, exercising the split memcpy in copyIn/copyOut.
    std::vector<uint8_t> region(ipc::SpscRing::kHeaderBytes + 256);
    ipc::SpscRing ring =
        ipc::SpscRing::create(region.data(), region.size());

    uint8_t produced = 0, consumed = 0;
    std::vector<std::vector<uint8_t>> out;
    for (int round = 0; round < 500; ++round) {
        std::vector<std::vector<uint8_t>> batch;
        for (size_t len : {1u + (round % 40u), 17u, 0u})
            batch.push_back(patternRecord(len, produced++));
        if (!ring.tryPushBatch(batch)) {
            // Drain everything, then the batch must fit.
            out.clear();
            while (ring.tryPopBatch(out, 16) > 0) {
            }
            for (const auto &rec : out) {
                std::vector<uint8_t> want =
                    patternRecord(rec.size(), consumed++);
                ASSERT_EQ(rec, want);
            }
            ASSERT_TRUE(ring.tryPushBatch(batch));
        }
    }
    out.clear();
    while (ring.tryPopBatch(out, 16) > 0) {
    }
    for (const auto &rec : out)
        ASSERT_EQ(rec, patternRecord(rec.size(), consumed++));
    EXPECT_EQ(consumed, produced);
    EXPECT_TRUE(ring.empty());
}

TEST(RingWraparound, ReserveCommitStreamsAcrossWrapBoundary)
{
    std::vector<uint8_t> region(ipc::SpscRing::kHeaderBytes + 128);
    ipc::SpscRing ring =
        ipc::SpscRing::create(region.data(), region.size());

    std::vector<uint8_t> out;
    for (int round = 0; round < 300; ++round) {
        size_t len = 1 + (round * 13) % 90;
        std::vector<uint8_t> payload =
            patternRecord(len, static_cast<uint8_t>(round));
        ipc::SpscRing::Reservation res;
        while (!ring.tryReserve(len, res))
            ASSERT_TRUE(ring.tryPop(out));
        // Stream in two unequal chunks so the reservation itself can
        // straddle the wrap.
        size_t first = len / 3;
        ring.reservationWrite(res, payload.data(), first);
        ring.reservationWrite(res, payload.data() + first,
                              len - first);
        // Consumer must not see the record before commit.
        size_t pending_before = ring.size();
        ring.commit(res);
        EXPECT_GT(ring.size(), pending_before);
    }
    while (ring.tryPop(out)) {
        ASSERT_FALSE(out.empty());
        // Every byte follows the generator pattern of its seed byte.
        uint8_t seed = out[0];
        EXPECT_EQ(out, patternRecord(out.size(), seed));
    }
}

// ---- Codec edge cases ------------------------------------------------

ipc::Message
makeRequest(uint64_t seq, ipc::ValueList values)
{
    ipc::Message msg;
    msg.kind = ipc::MsgKind::Request;
    msg.seq = seq;
    msg.apiId = 3;
    msg.values = std::move(values);
    return msg;
}

/** Rejection tests: a corrupt frame is reported by fatal() before it
 *  throws, so thousands of bit flips would print thousands of lines. */
struct CodecEdge : testing::Test {
    util::ScopedLogLevel quiet{util::LogLevel::Silent};
};

TEST_F(CodecEdge, ZeroLengthPayloadsRoundTripInABatch)
{
    ipc::ValueList values;
    values.emplace_back(std::vector<uint8_t>{}); // empty blob
    values.emplace_back(std::string{});          // empty string
    values.emplace_back();                       // None
    std::vector<ipc::Message> batch = {
        makeRequest(1, std::move(values)),
        makeRequest(2, {}), // no values at all
    };
    std::vector<ipc::Message> back =
        ipc::decodeBatch(ipc::encodeBatch(batch));
    ASSERT_EQ(back.size(), 2u);
    ASSERT_EQ(back[0].values.size(), 3u);
    EXPECT_TRUE(back[0].values[0].asBlob().empty());
    EXPECT_TRUE(back[0].values[1].asStr().empty());
    EXPECT_TRUE(back[0].values[2].isNone());
    EXPECT_TRUE(back[1].values.empty());
    EXPECT_EQ(back[1].seq, 2u);
}

TEST_F(CodecEdge, MaxSizeRecordExactlyFillsRingSlot)
{
    // Size the ring so one batch frame consumes the data area to the
    // last byte; the push must succeed, and any further record (even
    // an empty one needs its length prefix) must be rejected.
    std::vector<ipc::Message> batch = {makeRequest(
        7, {ipc::Value(std::vector<uint8_t>(1000, 0x5a))})};
    std::vector<uint8_t> wire = ipc::encodeBatch(batch);
    ASSERT_EQ(wire.size(), ipc::batchWireSize(batch));

    size_t cap = ipc::SpscRing::kRecordPrefix + wire.size();
    std::vector<uint8_t> region(ipc::SpscRing::kHeaderBytes + cap);
    ipc::SpscRing ring =
        ipc::SpscRing::create(region.data(), region.size());
    ASSERT_EQ(ring.capacity(), cap);
    ASSERT_TRUE(ring.tryPush(wire.data(), wire.size()));
    EXPECT_EQ(ring.size(), cap);
    EXPECT_FALSE(ring.tryPush(nullptr, 0)); // prefix no longer fits

    std::vector<uint8_t> out;
    ASSERT_TRUE(ring.tryPop(out));
    std::vector<ipc::Message> back = ipc::decodeBatch(out);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].values[0].asBlob().size(), 1000u);

    // One byte more than slot-exact never fits an empty ring.
    std::vector<ipc::Message> over = {makeRequest(
        8, {ipc::Value(std::vector<uint8_t>(1001, 0x5a))})};
    std::vector<uint8_t> bigger = ipc::encodeBatch(over);
    EXPECT_FALSE(ring.tryPush(bigger.data(), bigger.size()));
}

TEST_F(CodecEdge, BatchOfOneFramesOneBody)
{
    ipc::Message msg = makeRequest(
        42, {ipc::Value(uint64_t{9}), ipc::Value(std::string("x")),
             ipc::Value(ipc::ObjectRef{2, 77})});
    std::vector<uint8_t> wire = ipc::encodeBatch({msg});
    std::vector<ipc::Message> batched = ipc::decodeBatch(wire);
    ASSERT_EQ(batched.size(), 1u);
    const ipc::Message &b = batched[0];
    EXPECT_EQ(b.kind, msg.kind);
    EXPECT_EQ(b.seq, msg.seq);
    EXPECT_EQ(b.apiId, msg.apiId);
    ASSERT_EQ(b.values.size(), msg.values.size());
    EXPECT_EQ(b.values[0].asU64(), 9u);
    EXPECT_EQ(b.values[1].asStr(), "x");
    EXPECT_EQ(b.values[2].asRef(), (ipc::ObjectRef{2, 77}));
    // [u32 count][u32 len][body][u64 trailer]: the body bytes are
    // exactly what encodeMessageBodyTo streams.
    std::vector<uint8_t> body;
    ipc::VectorSink sink(body);
    ipc::encodeMessageBodyTo(sink, msg);
    ASSERT_EQ(body.size(), ipc::messageBodySize(msg));
    ASSERT_EQ(wire.size(), ipc::batchWireSize({msg}));
    ASSERT_EQ(wire.size(), sizeof(uint32_t) + sizeof(uint32_t) +
                               body.size() + sizeof(uint64_t));
    EXPECT_TRUE(std::equal(body.begin(), body.end(),
                           wire.begin() + 2 * sizeof(uint32_t)));
}

TEST_F(CodecEdge, CorruptedBatchTrailerRejectsTheWholeFrame)
{
    std::vector<ipc::Message> batch = {
        makeRequest(1, {ipc::Value(uint64_t{1})}),
        makeRequest(2, {ipc::Value(uint64_t{2})}),
    };
    std::vector<uint8_t> wire = ipc::encodeBatch(batch);
    // Flip one bit in the shared trailer.
    std::vector<uint8_t> bad = wire;
    bad.back() ^= 0x01;
    EXPECT_THROW(ipc::decodeBatch(bad), std::exception);
    // Flip one bit in the FIRST message's body: the second, intact
    // message is still rejected — the frame is one checksum unit.
    bad = wire;
    bad[sizeof(uint32_t) + sizeof(uint32_t)] ^= 0x80;
    EXPECT_THROW(ipc::decodeBatch(bad), std::exception);
    EXPECT_NO_THROW(ipc::decodeBatch(wire));
}

TEST_F(CodecEdge, EveryBitFlipOfAFrameIsRejected)
{
    // A ~200-byte frame whose hashed part (everything before the
    // trailer) ends past its last 32-byte stripe in whole 8-byte
    // words and then loose bytes, so the flips land in full stripes,
    // tail words, tail bytes and the trailer itself.
    std::vector<ipc::Message> batch = {
        makeRequest(1, {ipc::Value(std::string("cv2.resize")),
                        ipc::Value(std::vector<uint8_t>(123, 0x3c))}),
        makeRequest(2, {ipc::Value(uint64_t{7}),
                        ipc::Value(ipc::ObjectRef{3, 99})}),
    };
    std::vector<uint8_t> wire = ipc::encodeBatch(batch);
    size_t hashed = wire.size() - sizeof(uint64_t);
    ASSERT_EQ(wire.size(), 227u);
    ASSERT_GE(hashed % 32, 8u);
    ASSERT_NE(hashed % 8, 0u);
    for (size_t bit = 0; bit < wire.size() * 8; ++bit) {
        std::vector<uint8_t> bad = wire;
        bad[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        EXPECT_THROW(ipc::decodeBatch(bad), std::exception)
            << "bit " << bit << " of " << wire.size() * 8;
    }
    EXPECT_NO_THROW(ipc::decodeBatch(wire));
}

TEST_F(CodecEdge, CorruptFaultSurfacesAsTypedChannelLoss)
{
    osim::Kernel kernel;
    osim::FaultInjector injector(11);
    kernel.setFaultInjector(&injector);
    osim::Process &host = kernel.spawn("host");
    osim::Process &agent = kernel.spawn("agent");
    ipc::Channel channel(kernel, "ch:corrupt", host.pid(),
                         agent.pid());

    ipc::Message request = makeRequest(1, {ipc::Value(uint64_t{5})});
    channel.sendRequest(request);

    osim::FaultSpec spec;
    spec.point = osim::FaultPoint::RingTransfer;
    spec.action = osim::FaultAction::Corrupt;
    spec.pid = agent.pid();
    injector.schedule(spec);

    // The corrupted frame is not delivered as garbage — the shared
    // trailer rejects it and the receive reports "nothing arrived",
    // typed as a corruption loss for the at-least-once layer.
    ipc::Message received;
    EXPECT_FALSE(channel.receiveRequest(received));
    EXPECT_EQ(channel.stats().corrupted, 1u);
    EXPECT_EQ(channel.stats().dropped, 0u);

    // A clean retry of the same frame goes through.
    channel.sendRequest(request);
    EXPECT_TRUE(channel.receiveRequest(received));
    EXPECT_EQ(received.seq, 1u);
}

// ---- Dirty-epoch incremental checkpoints -----------------------------

struct HotPathEnv {
    HotPathEnv() : registry(fw::buildFullRegistry())
    {
        analysis::HybridCategorizer categorizer(registry);
        cats = categorizer.categorizeAll();
    }

    std::unique_ptr<core::FreePartRuntime>
    makeRuntime(core::RuntimeConfig config = {})
    {
        kernel = std::make_unique<osim::Kernel>();
        fw::seedFixtureFiles(*kernel);
        return std::make_unique<core::FreePartRuntime>(
            *kernel, registry, cats,
            core::PartitionPlan::freePartDefault(), config);
    }

    fw::ApiRegistry registry;
    analysis::Categorization cats;
    std::unique_ptr<osim::Kernel> kernel;
};

HotPathEnv &
env()
{
    static HotPathEnv instance;
    return instance;
}

/** Load a model and train it `rounds` times; every call checkpoints
 *  (interval 1), so most generations see one dirty object among the
 *  accumulated clean ones. Returns the weights ref. */
ipc::ObjectRef
trainRounds(core::FreePartRuntime &runtime, int rounds)
{
    core::ApiResult model = runtime.invoke(
        "torch.load", {ipc::Value(std::string("/data/model.fpt"))});
    EXPECT_TRUE(model.ok) << model.error;
    ipc::ObjectRef weights = model.values[0].asRef();
    core::ApiResult data = runtime.invoke(
        "torch.load", {ipc::Value(std::string("/data/model.fpt"))});
    for (int i = 0; i < rounds; ++i) {
        core::ApiResult trained = runtime.invoke(
            "tf.estimator.DNNClassifier.train",
            {ipc::Value(weights), data.values[0]});
        EXPECT_TRUE(trained.ok) << trained.error;
    }
    return weights;
}

TEST(DirtyEpoch, IncrementalCheckpointsSaveFewerBytes)
{
    // Each runtime borrows env().kernel, so the first one must be
    // fully measured and destroyed before the second is built.
    core::RunStats full_stats;
    {
        core::RuntimeConfig full;
        full.checkpointInterval = 1;
        full.checkpointFullEvery = 1; // every generation is full
        auto full_rt = env().makeRuntime(full);
        trainRounds(*full_rt, 8);
        full_stats = full_rt->stats();
    }
    EXPECT_EQ(full_stats.incrementalCheckpoints, 0u);
    EXPECT_GT(full_stats.fullCheckpoints, 0u);

    core::RuntimeConfig inc;
    inc.checkpointInterval = 1;
    inc.checkpointFullEvery = 4; // dirty-epoch deltas in between
    auto inc_rt = env().makeRuntime(inc);
    trainRounds(*inc_rt, 8);
    const core::RunStats &inc_stats = inc_rt->stats();
    EXPECT_GT(inc_stats.incrementalCheckpoints, 0u);
    EXPECT_GT(inc_stats.fullCheckpoints, 0u);

    // Same workload, same generations taken — the dirty-epoch deltas
    // must be strictly cheaper than always serializing the store.
    EXPECT_EQ(inc_stats.checkpointsTaken, full_stats.checkpointsTaken);
    EXPECT_LT(inc_stats.checkpointBytesSaved,
              full_stats.checkpointBytesSaved);
}

TEST(DirtyEpoch, IncrementalRestoreMatchesPreCrashState)
{
    core::RuntimeConfig config;
    config.checkpointInterval = 1;
    config.checkpointFullEvery = 4;
    auto runtime = env().makeRuntime(config);
    // 5 training rounds: the last generation before the crash is an
    // incremental one sitting on top of a full base.
    ipc::ObjectRef weights = trainRounds(*runtime, 5);
    ASSERT_GT(runtime->stats().incrementalCheckpoints, 0u);

    uint32_t p = runtime->homeOf(weights.objectId);
    runtime->fetchToHost(weights);
    std::vector<uint8_t> before =
        runtime->hostStore().serialize(weights.objectId);

    env().kernel->faultProcess(
        env().kernel->process(runtime->agentPid(p)), "induced");
    ASSERT_TRUE(runtime->restartAgent(p));
    ASSERT_TRUE(runtime->storeOf(p).has(weights.objectId));
    EXPECT_EQ(runtime->storeOf(p).serialize(weights.objectId),
              before);
    EXPECT_GT(runtime->stats().checkpointBytesRestored, 0u);
}

/** Summed serialized size of every object in a store. */
uint64_t
storeBytes(const fw::ObjectStore &store)
{
    uint64_t total = 0;
    for (uint64_t id : store.ids())
        total += store.serialize(id).size();
    return total;
}

TEST(DirtyEpoch, FullGenerationSharesCleanObjects)
{
    core::RuntimeConfig config;
    config.checkpointInterval = 1000; // checkpoints taken by hand
    config.checkpointFullEvery = 1;   // every generation is full
    auto runtime = env().makeRuntime(config);
    core::ApiResult model = runtime->invoke(
        "torch.load", {ipc::Value(std::string("/data/model.fpt"))});
    ASSERT_TRUE(model.ok) << model.error;
    uint32_t p = runtime->homeOf(model.values[0].asRef().objectId);
    uint64_t live = storeBytes(runtime->storeOf(p));
    ASSERT_GT(live, 0u);

    // The first generation has no chain to share with.
    runtime->checkpointAgent(p);
    EXPECT_EQ(runtime->stats().checkpointBytesShared, 0u);
    EXPECT_EQ(runtime->stats().checkpointBytesSaved, live);

    // Nothing was written since: the next full generation references
    // every object, yet still accounts its full logical size.
    runtime->checkpointAgent(p);
    EXPECT_EQ(runtime->stats().fullCheckpoints, 2u);
    EXPECT_EQ(runtime->stats().checkpointBytesShared, live);
    EXPECT_EQ(runtime->stats().checkpointBytesSaved, 2 * live);
}

TEST(DirtyEpoch, CorruptFullGenerationLeavesSharedOlderCopyIntact)
{
    osim::FaultInjector injector(11);
    core::RuntimeConfig config;
    config.checkpointInterval = 1000; // checkpoints taken by hand
    config.checkpointFullEvery = 1;   // every generation is full
    auto runtime = env().makeRuntime(config);
    // One training round settles the weights and a copy of the data
    // in the training partition.
    ipc::ObjectRef weights = trainRounds(*runtime, 1);
    uint32_t p = runtime->homeOf(weights.objectId);
    fw::ObjectStore &store = runtime->storeOf(p);
    uint64_t clean = 0;
    for (uint64_t id : store.ids())
        if (id != weights.objectId)
            clean = id;
    ASSERT_NE(clean, 0u);

    runtime->checkpointAgent(p);
    std::vector<uint8_t> dirty_before = store.serialize(weights.objectId);
    std::vector<uint8_t> clean_before = store.serialize(clean);
    uint64_t clean_epoch = store.get(clean).dirtyEpoch;

    // Dirty the weights only, then take a full generation — sharing
    // the clean object's buffer — whose every entry is corrupted after
    // its checksum was taken.
    core::ApiResult trained = runtime->invoke(
        "tf.estimator.DNNClassifier.train",
        {ipc::Value(weights), ipc::Value(ipc::ObjectRef{p, clean})});
    ASSERT_TRUE(trained.ok) << trained.error;
    ASSERT_NE(store.serialize(weights.objectId), dirty_before);
    ASSERT_EQ(store.get(clean).dirtyEpoch, clean_epoch);
    osim::FaultSpec spec;
    spec.point = osim::FaultPoint::Checkpoint;
    spec.action = osim::FaultAction::Corrupt;
    spec.pid = runtime->agentPid(p);
    injector.schedule(spec);
    env().kernel->setFaultInjector(&injector);
    runtime->checkpointAgent(p);
    env().kernel->setFaultInjector(nullptr);
    EXPECT_EQ(runtime->stats().fullCheckpoints, 2u);

    // The restore skips the corrupt generation and rebuilds both
    // objects from the older one, whose buffers the clone protected.
    env().kernel->faultProcess(
        env().kernel->process(runtime->agentPid(p)), "induced");
    ASSERT_TRUE(runtime->restartAgent(p));
    EXPECT_EQ(runtime->stats().checkpointFallbacks, 1u);
    ASSERT_TRUE(store.has(weights.objectId));
    ASSERT_TRUE(store.has(clean));
    EXPECT_EQ(store.serialize(weights.objectId), dirty_before);
    EXPECT_EQ(store.serialize(clean), clean_before);
}

} // namespace

namespace core {

/** Reaches into an agent's checkpoint chain to damage one stored byte
 *  after its checksum was taken, as bit-rot would. */
struct CheckpointProbe {
    static void
    flipByte(FreePartRuntime &runtime, uint32_t partition,
             size_t generation, uint64_t id, size_t offset)
    {
        FreePartRuntime::CheckpointEntry &entry =
            runtime.agents.at(partition)
                .checkpoints.at(generation)
                .objects.at(id);
        std::vector<uint8_t> clone = *entry.bytes;
        clone.at(offset) ^= 0x01;
        entry.bytes = std::make_shared<const std::vector<uint8_t>>(
            std::move(clone));
        entry.verified.reset();
    }

    static bool
    intact(const FreePartRuntime &runtime, uint32_t partition,
           size_t generation, uint64_t id)
    {
        return runtime.agents.at(partition)
            .checkpoints.at(generation)
            .objects.at(id)
            .intact();
    }
};

} // namespace core

namespace {

TEST(DirtyEpoch, ByteFlipPastTheLastStripeFallsBackAGeneration)
{
    core::RuntimeConfig config;
    config.checkpointInterval = 1000; // checkpoints taken by hand
    config.checkpointFullEvery = 1;   // every generation is full
    auto runtime = env().makeRuntime(config);
    ipc::ObjectRef weights = trainRounds(*runtime, 1);
    uint32_t p = runtime->homeOf(weights.objectId);
    fw::ObjectStore &store = runtime->storeOf(p);
    uint64_t data = 0;
    for (uint64_t id : store.ids())
        if (id != weights.objectId)
            data = id;
    ASSERT_NE(data, 0u);

    runtime->checkpointAgent(p);
    std::vector<uint8_t> older = store.serialize(weights.objectId);
    core::ApiResult trained = runtime->invoke(
        "tf.estimator.DNNClassifier.train",
        {ipc::Value(weights), ipc::Value(ipc::ObjectRef{p, data})});
    ASSERT_TRUE(trained.ok) << trained.error;
    ASSERT_NE(store.serialize(weights.objectId), older);
    runtime->checkpointAgent(p);

    // Damage the newest generation's weights one byte past the last
    // whole 32-byte stripe: only the hash's tail covers that byte.
    size_t size = store.serialize(weights.objectId).size();
    ASSERT_NE(size % 32, 0u);
    size_t offset = size - size % 32;
    ASSERT_TRUE(core::CheckpointProbe::intact(*runtime, p, 0,
                                              weights.objectId));
    core::CheckpointProbe::flipByte(*runtime, p, 0, weights.objectId,
                                    offset);
    EXPECT_FALSE(core::CheckpointProbe::intact(*runtime, p, 0,
                                               weights.objectId));
    EXPECT_TRUE(core::CheckpointProbe::intact(*runtime, p, 1,
                                              weights.objectId));

    // The restore skips the damaged generation and rebuilds the
    // weights from the older one.
    env().kernel->faultProcess(
        env().kernel->process(runtime->agentPid(p)), "induced");
    ASSERT_TRUE(runtime->restartAgent(p));
    EXPECT_EQ(runtime->stats().checkpointFallbacks, 1u);
    ASSERT_TRUE(store.has(weights.objectId));
    EXPECT_EQ(store.serialize(weights.objectId), older);
}

// ---- Bounded LRU dedup cache -----------------------------------------

TEST(DedupLru, EvictsLeastRecentlyUsedAndTouchOnFindProtects)
{
    core::DedupCache cache(2);
    cache.insert(1, {ipc::Value(uint64_t{10})});
    cache.insert(2, {ipc::Value(uint64_t{20})});
    // Touch 1 so 2 becomes the LRU entry.
    ASSERT_NE(cache.find(1), nullptr);
    EXPECT_EQ(cache.insert(3, {ipc::Value(uint64_t{30})}), 1u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.find(2), nullptr); // evicted
    ASSERT_NE(cache.find(1), nullptr); // protected by the touch
    EXPECT_EQ((*cache.find(1))[0].asU64(), 10u);
    ASSERT_NE(cache.find(3), nullptr);

    // Refreshing an existing seq evicts nothing.
    EXPECT_EQ(cache.insert(1, {ipc::Value(uint64_t{11})}), 0u);
    EXPECT_EQ((*cache.find(1))[0].asU64(), 11u);

    // Shrinking the cap reports how many fell off the tail.
    EXPECT_EQ(cache.setCapacity(1), 1u);
    EXPECT_EQ(cache.size(), 1u);
    ASSERT_NE(cache.find(1), nullptr); // MRU survives
}

TEST(DedupLru, RuntimeCountsEvictionsUnderTightCap)
{
    core::RuntimeConfig config;
    config.dedupCacheEntries = 2;
    auto runtime = env().makeRuntime(config);
    // More distinct calls on one partition than the cache holds.
    for (int i = 0; i < 6; ++i) {
        uint64_t id = runtime->createHostMat(
            4, 4, 1, static_cast<uint64_t>(i), "m");
        core::ApiResult res = runtime->invoke(
            "cv2.GaussianBlur",
            {ipc::Value(ipc::ObjectRef{core::kHostPartition, id})});
        ASSERT_TRUE(res.ok) << res.error;
    }
    EXPECT_GT(runtime->stats().dedupEvictions, 0u);
    EXPECT_LE(runtime->seqCacheSize(1), 2u);
}

} // namespace
} // namespace freepart
