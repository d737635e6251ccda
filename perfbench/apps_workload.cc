/**
 * @file
 * The two closed-loop app workloads: the 23 Table 6 app models
 * replayed call by call against fresh runtimes, one caller, each
 * host call timed on its own.
 *
 *   apps-768-sync       768x768x3 frames, default tensors, 3 rounds
 *                       x <=24 calls, sync invoke (Fig. 13 shape).
 *   apps-64-sync-async  64x64x3 frames, tensorDim 32, 4 rounds x
 *                       <=64 calls, each app replayed sync and async.
 *
 * The replay loop follows WorkloadGenerator::replay call for call
 * (trace(), prepareArgs(), the same chaining rule and fetch points),
 * so its final-object digests match the program's own replay; it is
 * re-written here only so each call can be timed and traced from the
 * benchmark's side. An in-host replay of the same trace is the
 * reference for digests and for the simulated overhead.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "apps/app_models.hh"
#include "apps/workload.hh"
#include "bench.hh"
#include "core/runtime.hh"
#include "fw/invoker.hh"
#include "util/checksum.hh"

namespace freepart::perfbench {

namespace {

enum class Mode { InHost, Sync, Async };

/** Span names per mode; the in-host reference gets its own names so
 *  its time never mixes into the isolated layers. */
struct SpanNames {
    const char *seed, *init, *replay, *prepare, *call, *peek, *fetch,
        *drain;
};

const SpanNames &
spanNames(Mode mode)
{
    static const SpanNames kRef = {
        "ref.seedInputs",  "ref.runtimeInit",  "ref.replay",
        "ref.prepareArgs", "fw.inhostInvoke", "ref.peekResult",
        "ref.fetchToHost", "ref.drainAll"};
    static const SpanNames kSync = {
        "fw.seedInputs",  "core.runtimeInit", "apps.replay",
        "fw.prepareArgs", "core.invoke",      "core.peekResult",
        "core.fetchToHost", "core.drainAll"};
    static const SpanNames kAsync = {
        "fw.seedInputs",  "core.runtimeInit", "apps.replay",
        "fw.prepareArgs", "core.invokeAsync", "core.peekResult",
        "core.fetchToHost", "core.drainAll"};
    return mode == Mode::InHost ? kRef
                                : mode == Mode::Sync ? kSync : kAsync;
}

/** Workload shape: what the workload definition fixes. */
struct Shape {
    uint32_t dim;
    uint32_t tensorDim;
    uint32_t rounds;
    uint32_t callsPerRound;
    std::vector<Mode> modes; //!< FreePart modes replayed per app
    int setupReps;           //!< timed set-up repetitions
};

Shape
shapeOf(const std::string &workload)
{
    if (workload == "apps-768-sync")
        return {768, apps::WorkloadGenerator::Config().tensorDim, 3, 24,
                {Mode::Sync}, 3};
    return {64, 32, 4, 64, {Mode::Sync, Mode::Async}, 5};
}

apps::WorkloadGenerator::Config
generatorConfig(const Shape &shape)
{
    apps::WorkloadGenerator::Config config;
    config.imageRows = shape.dim;
    config.imageCols = shape.dim;
    config.tensorDim = shape.tensorDim;
    config.maxRounds = shape.rounds;
    config.maxCallsPerRound = shape.callsPerRound;
    return config;
}

core::RuntimeConfig
runtimeConfig(Mode mode)
{
    core::RuntimeConfig config;
    // A fixed id namespace keeps every replay independent of how many
    // runtimes the process created before it.
    config.shardId = 0;
    if (mode == Mode::Async) {
        config.pipelineParallel = true;
        config.speculativeFlips = true;
    }
    return config;
}

core::PartitionPlan
planOf(Mode mode)
{
    return mode == Mode::InHost
               ? core::PartitionPlan::inHost()
               : core::PartitionPlan::freePartDefault();
}

/** Same rule as the workload generator's chaining of tensors. */
bool
tensorChainCompatible(const std::string &api,
                      const std::vector<uint32_t> &chain_shape,
                      const std::vector<uint32_t> &prep_shape)
{
    if (api == "torch.relu" || api == "torch.softmax" ||
        api == "torch.argmax" || api == "np.argmax" ||
        api == "np.mean" || api == "torch.save" ||
        api == "np.save" || api == "tf.keras.Model.save_weights" ||
        api == "caffe.WriteProtoToTextFile" ||
        api == "caffe.hdf5_save_string" ||
        api == "torch.utils.tensorboard.SummaryWriter.add_scalar" ||
        api == "tf.keras.preprocessing.image.save_img")
        return true;
    if (api == "torch.nn.MaxPool2d" || api == "tf.nn.max_pool" ||
        api == "tf.nn.avg_pool")
        return chain_shape.size() == 3 && chain_shape[1] >= 2 &&
               chain_shape[2] >= 2;
    if (api == "torch.nn.Conv2d" || api == "tf.nn.conv2d" ||
        api == "tf.nn.conv3d" || api == "caffe.Net.Forward")
        return chain_shape.size() == 3 && chain_shape[0] == 3 &&
               chain_shape[1] >= 3 && chain_shape[2] >= 3;
    return chain_shape == prep_shape;
}

/** What one replay of one app in one mode produced. */
struct Replay {
    uint64_t callsOk = 0;
    uint64_t callsFailed = 0;
    bool hasFinal = false;
    uint64_t digest = 0;
    core::RunStats stats;
    size_t events = 0;
    size_t processes = 0;
    double loopWall = 0.0;        //!< replay wall time, checks excluded
    std::vector<double> wallUs;   //!< per host call
    std::vector<double> simUs;    //!< per host call, host clock
};

/** Seed of the first argument synthesized for an app. */
uint64_t
argSeed(uint64_t seed, const apps::AppModel &model)
{
    return (seed << 20) + static_cast<uint64_t>(model.id) * 1000;
}

/** Kernel + fixtures + runtime for one replay (the set-up share). */
struct Stack {
    osim::Kernel kernel;
    std::unique_ptr<core::FreePartRuntime> runtime;
};

std::unique_ptr<Stack>
buildStack(const Frameworks &fws, const apps::WorkloadGenerator &gen,
           Mode mode, Tracer &tracer, uint64_t call)
{
    const SpanNames &names = spanNames(mode);
    auto stack = std::make_unique<Stack>();
    {
        Tracer::Scope span(tracer, names.seed, call);
        gen.seedInputs(stack->kernel);
    }
    Tracer::Scope span(tracer, names.init, call);
    stack->runtime = std::make_unique<core::FreePartRuntime>(
        stack->kernel, fws.registry, fws.categorization, planOf(mode),
        runtimeConfig(mode));
    return stack;
}

Replay
replayApp(const Frameworks &fws, const apps::WorkloadGenerator &gen,
          const apps::AppModel &model, Mode mode, uint64_t seed,
          Tracer &tracer)
{
    const SpanNames &names = spanNames(mode);
    const bool async = mode == Mode::Async;
    std::unique_ptr<Stack> stack =
        buildStack(fws, gen, mode, tracer, tracer.nextCall());
    core::FreePartRuntime &runtime = *stack->runtime;
    osim::Kernel &kernel = stack->kernel;

    fw::TestFixture fixture;
    fixture.rows = gen.config().imageRows;
    fixture.cols = gen.config().imageCols;
    fixture.tensorDim = gen.config().tensorDim;
    fw::Invoker invoker(kernel, runtime.hostStore(),
                        core::kHostPartition, fixture);
    std::vector<apps::WorkloadCall> calls = gen.trace(model);

    Replay out;
    out.wallUs.reserve(calls.size());
    out.simUs.reserve(calls.size());
    bool have_chain = false;
    ipc::ObjectRef chain{};
    fw::ObjKind chain_kind = fw::ObjKind::Bytes;
    auto object_kind = [&](const ipc::ObjectRef &ref) {
        return runtime.storeOf(runtime.homeOf(ref.objectId))
            .get(ref.objectId)
            .kind;
    };

    uint64_t arg_seed = argSeed(seed, model);
    double loop_start = wallNow();
    double checks = 0.0; // wall spent on the benchmark's own digest
    {
        Tracer::Scope replay_span(tracer, names.replay,
                                  tracer.nextCall());
        for (const apps::WorkloadCall &call : calls) {
            uint64_t id = tracer.nextCall();
            if (have_chain && !runtime.hasObject(chain.objectId))
                have_chain = false;
            bool fetch_prev = call.startsRound && have_chain;
            ipc::ObjectRef prev_chain = chain;
            if (fetch_prev && !async) {
                Tracer::Scope span(tracer, names.fetch, id);
                runtime.fetchToHost(prev_chain);
            }
            const fw::ApiDescriptor &api =
                fws.registry.require(call.api);
            ipc::ValueList args;
            {
                Tracer::Scope span(tracer, names.prepare, id);
                args = invoker.prepareArgs(api, arg_seed++);
            }
            if (call.chainInput && have_chain && !args.empty() &&
                args[0].kind() == ipc::Value::Kind::Ref &&
                object_kind(args[0].asRef()) == chain_kind) {
                bool compatible = true;
                if (chain_kind == fw::ObjKind::Mat) {
                    const fw::MatDesc &prep_mat =
                        runtime
                            .storeOf(runtime.homeOf(
                                args[0].asRef().objectId))
                            .mat(args[0].asRef().objectId);
                    const fw::MatDesc &chain_mat =
                        runtime.storeOf(runtime.homeOf(chain.objectId))
                            .mat(chain.objectId);
                    compatible =
                        prep_mat.channels == chain_mat.channels;
                    if (call.api == "cv2.absdiff" ||
                        call.api == "cv2.addWeighted")
                        compatible = compatible &&
                                     prep_mat.rows == chain_mat.rows &&
                                     prep_mat.cols == chain_mat.cols;
                } else if (chain_kind == fw::ObjKind::Tensor) {
                    const std::vector<uint32_t> &chain_shape =
                        runtime.storeOf(runtime.homeOf(chain.objectId))
                            .tensor(chain.objectId)
                            .shape;
                    const std::vector<uint32_t> &prep_shape =
                        runtime
                            .storeOf(runtime.homeOf(
                                args[0].asRef().objectId))
                            .tensor(args[0].asRef().objectId)
                            .shape;
                    compatible = tensorChainCompatible(
                        call.api, chain_shape, prep_shape);
                }
                if (compatible)
                    args[0] = ipc::Value(chain);
            }

            core::ApiResult res;
            double wall0 = wallNow();
            osim::SimTime sim0 = kernel.now();
            if (async) {
                core::CallTicket ticket;
                {
                    Tracer::Scope span(tracer, names.call, id);
                    ticket = runtime.invokeAsync(call.api,
                                                 std::move(args));
                }
                Tracer::Scope span(tracer, names.peek, id);
                if (const core::ApiResult *peeked =
                        runtime.peekResult(ticket))
                    res = *peeked;
                else
                    res.error = "async ticket vanished";
            } else {
                Tracer::Scope span(tracer, names.call, id);
                res = runtime.invoke(call.api, std::move(args));
            }
            out.wallUs.push_back((wallNow() - wall0) * 1e6);
            out.simUs.push_back(
                static_cast<double>(kernel.now() - sim0) / 1e3);
            if (fetch_prev && async) {
                Tracer::Scope span(tracer, names.fetch, id);
                runtime.fetchToHost(prev_chain);
            }

            if (!res.ok) {
                ++out.callsFailed;
                continue;
            }
            ++out.callsOk;
            if (!res.values.empty() &&
                res.values[0].kind() == ipc::Value::Kind::Ref) {
                ipc::ObjectRef result = res.values[0].asRef();
                fw::ObjKind kind = object_kind(result);
                if (kind == fw::ObjKind::Mat ||
                    kind == fw::ObjKind::Tensor) {
                    chain = result;
                    chain_kind = kind;
                    have_chain = true;
                }
            }
        }
        if (have_chain && runtime.hasObject(chain.objectId)) {
            uint64_t id = tracer.nextCall();
            {
                Tracer::Scope span(tracer, names.fetch, id);
                runtime.fetchToHost(chain);
            }
            double check_start = wallNow();
            out.hasFinal = true;
            out.digest = util::fnv1a64(
                runtime.hostStore().serialize(chain.objectId));
            checks += wallNow() - check_start;
        }
        if (async) {
            Tracer::Scope span(tracer, names.drain, tracer.nextCall());
            runtime.drainAll();
        }
    }
    out.loopWall = wallNow() - loop_start - checks;
    out.stats = runtime.stats();
    out.events = kernel.events().size();
    out.processes = kernel.processCount();
    return out;
}

/** The stats-struct counts one pass sums over its FreePart runtimes. */
struct Counts {
    uint64_t calls = 0, failed = 0;
    double simElapsedNs = 0, events = 0, processes = 0;
    double denials = 0, memFaults = 0;
    double checkpoints = 0, checkpointBytes = 0, stateChanges = 0,
           flips = 0, lazy = 0, direct = 0, eager = 0, barriers = 0,
           stalls = 0, specStarts = 0, specRollbacks = 0;
    double messages = 0, bytes = 0, hotSends = 0, piggybacked = 0;
    double overlapSum = 0;
    uint64_t asyncRuns = 0;
    double syncElapsedNs = 0, asyncElapsedNs = 0;

    void
    add(const Replay &r, Mode mode)
    {
        const core::RunStats &s = r.stats;
        calls += r.callsOk + r.callsFailed;
        failed += r.callsFailed;
        simElapsedNs += static_cast<double>(s.elapsed());
        events += static_cast<double>(r.events);
        processes += static_cast<double>(r.processes);
        denials += static_cast<double>(s.syscallDenials);
        memFaults += static_cast<double>(s.memFaults);
        checkpoints += static_cast<double>(s.checkpointsTaken);
        checkpointBytes += static_cast<double>(s.checkpointBytesSaved);
        stateChanges += static_cast<double>(s.stateChanges);
        flips += static_cast<double>(s.protectionFlips);
        lazy += static_cast<double>(s.lazyCopies);
        direct += static_cast<double>(s.directCopies);
        eager += static_cast<double>(s.eagerCopies);
        barriers += static_cast<double>(s.pipelineBarriers);
        stalls += static_cast<double>(s.inFlightStalls);
        specStarts += static_cast<double>(s.speculationStarts);
        specRollbacks += static_cast<double>(s.speculationRollbacks);
        messages += static_cast<double>(s.ipcMessages);
        bytes += static_cast<double>(s.bytesTransferred);
        hotSends += static_cast<double>(s.hotSends);
        piggybacked += static_cast<double>(s.piggybackedFetches);
        if (mode == Mode::Async) {
            overlapSum += s.overlapFraction();
            ++asyncRuns;
            asyncElapsedNs += static_cast<double>(s.elapsed());
        } else {
            syncElapsedNs += static_cast<double>(s.elapsed());
        }
    }

    Fingerprint
    fingerprint() const
    {
        Fingerprint f;
        for (auto [name, value] :
             {std::pair<const char *, double>{"calls", calls},
              {"failed", static_cast<double>(failed)},
              {"sim_elapsed", simElapsedNs},
              {"events", events},
              {"processes", processes},
              {"denials", denials},
              {"mem_faults", memFaults},
              {"checkpoints", checkpoints},
              {"checkpoint_bytes", checkpointBytes},
              {"state_changes", stateChanges},
              {"flips", flips},
              {"lazy", lazy},
              {"direct", direct},
              {"eager", eager},
              {"barriers", barriers},
              {"stalls", stalls},
              {"spec_starts", specStarts},
              {"spec_rollbacks", specRollbacks},
              {"messages", messages},
              {"bytes", bytes},
              {"hot_sends", hotSends},
              {"piggybacked", piggybacked},
              {"overlap", overlapSum}})
            f.add(name, value);
        return f;
    }
};

/** One full pass: every app in every FreePart mode of the shape. */
struct Pass {
    Counts counts;
    std::vector<uint64_t> digests; //!< per app x mode (0 = no object)
    std::vector<double> sync;      //!< per app sync sim elapsed (ns)
    std::vector<double> wallUs, simUs;
    uint64_t calls = 0;
    double callWall = 0.0; //!< summed replay wall time, set-up excluded
    Fingerprint fingerprint;
};

Pass
runPass(const Frameworks &fws, const apps::WorkloadGenerator &gen,
        const Shape &shape, uint64_t seed, Tracer &tracer)
{
    Pass pass;
    for (const apps::AppModel &model : apps::appModels()) {
        for (Mode mode : shape.modes) {
            Replay r = replayApp(fws, gen, model, mode, seed, tracer);
            pass.counts.add(r, mode);
            pass.digests.push_back(r.hasFinal ? r.digest : 0);
            if (mode == Mode::Sync)
                pass.sync.push_back(
                    static_cast<double>(r.stats.elapsed()));
            pass.callWall += r.loopWall;
            pass.wallUs.insert(pass.wallUs.end(), r.wallUs.begin(),
                               r.wallUs.end());
            pass.simUs.insert(pass.simUs.end(), r.simUs.begin(),
                              r.simUs.end());
        }
    }
    pass.calls = pass.counts.calls;
    pass.fingerprint = pass.counts.fingerprint();
    uint64_t hash = util::kFnv1a64Init;
    for (double us : pass.simUs)
        hash = util::fnv1a64Accumulate(
            hash, reinterpret_cast<const uint8_t *>(&us), sizeof(us));
    for (uint64_t digest : pass.digests)
        hash = util::fnv1a64Accumulate(
            hash, reinterpret_cast<const uint8_t *>(&digest),
            sizeof(digest));
    // 53 bits, so the double holds the hash exactly.
    pass.fingerprint.add("sim_latencies_and_digests",
                         static_cast<double>(hash >> 11));
    return pass;
}

/** Everything but calls, once: registry, categorization, and per app
 *  and mode the kernel, its fixtures and the runtime. Teardown is not
 *  counted. */
double
timedSetup(const Shape &shape,
           const apps::WorkloadGenerator::Config &config)
{
    Tracer off;
    double start = wallNow();
    Frameworks fws;
    apps::WorkloadGenerator gen(fws.registry, config);
    double total = wallNow() - start;
    for (size_t app = 0; app < apps::appModels().size(); ++app) {
        for (Mode mode : shape.modes) {
            double build_start = wallNow();
            std::unique_ptr<Stack> stack =
                buildStack(fws, gen, mode, off, 0);
            total += wallNow() - build_start;
        }
    }
    return total;
}

} // namespace

RunResult
runAppsWorkload(const Options &options)
{
    const Shape shape = shapeOf(options.workload);
    const apps::WorkloadGenerator::Config config = generatorConfig(shape);
    RunResult result;
    Tracer tracer;
    if (options.trace)
        tracer.reserve(kSpanReserve);

    // Set-up, timed on its own, several times; the median is setup_s.
    std::vector<double> setups;
    for (int rep = 0; rep < shape.setupReps; ++rep)
        setups.push_back(timedSetup(shape, config));

    Frameworks fws;
    apps::WorkloadGenerator gen(fws.registry, config);
    const std::vector<apps::AppModel> &models = apps::appModels();

    // In-host reference: deterministic, so once per process, outside
    // the timed phase. Traced runs time it too (fw.inhost_call_s).
    tracer.enabled = options.trace;
    std::vector<Replay> reference;
    for (const apps::AppModel &model : models)
        reference.push_back(
            replayApp(fws, gen, model, Mode::InHost, options.seed, tracer));

    std::vector<Pass> passes = timedPasses<Pass>(options, tracer, 1, [&] {
        return runPass(fws, gen, shape, options.seed, tracer);
    });

    // Correctness: digests agree with the reference in every mode,
    // results repeat exactly across passes, no denial or fault.
    const Pass &first = passes.front();
    size_t modes = shape.modes.size();
    for (size_t app = 0; app < models.size(); ++app) {
        uint64_t ref = reference[app].hasFinal ? reference[app].digest : 0;
        if (reference[app].callsFailed)
            result.violation(models[app].name + ": in-host call failed");
        for (size_t m = 0; m < modes; ++m)
            if (first.digests[app * modes + m] != ref)
                result.violation(models[app].name +
                                 ": final-object digest differs from "
                                 "the in-host reference");
    }
    for (size_t p = 1; p < passes.size(); ++p) {
        std::string diff =
            first.fingerprint.firstDifference(passes[p].fingerprint);
        if (!diff.empty())
            result.violation("pass " + std::to_string(p) +
                             " differs from pass 0 in " + diff);
    }
    if (first.counts.denials != 0 || first.counts.memFaults != 0)
        result.violation("syscall denials or memory faults in a benign "
                         "run");

    // Wall metrics over untraced passes; sim metrics from pass 0.
    std::vector<double> wall_us;
    for (size_t p = 0; p < passes.size(); ++p) {
        result.attempted += passes[p].counts.calls;
        result.failed += passes[p].counts.failed;
        if (!tracedPass(options, p))
            wall_us.insert(wall_us.end(), passes[p].wallUs.begin(),
                           passes[p].wallUs.end());
    }
    std::sort(wall_us.begin(), wall_us.end());
    std::vector<double> sim_us = first.simUs;
    std::sort(sim_us.begin(), sim_us.end());

    double overhead_sum = 0.0, inhost_ns = 0.0;
    for (size_t app = 0; app < models.size(); ++app) {
        double base = static_cast<double>(reference[app].stats.elapsed());
        inhost_ns += base;
        overhead_sum += (first.sync[app] - base) / base * 100.0;
    }
    const Counts &c = first.counts;
    CallRates rates = callRates(options, passes);
    double ok_share = 1.0 - static_cast<double>(c.failed) /
                                static_cast<double>(c.calls);

    MetricSet &e2e = result.endToEnd;
    MetricSet &layer = result.perLayer;
    e2e.set("calls_per_s", rates.untraced, "calls/s", "wall");
    e2e.set("setup_s", median(setups), "s", "wall");
    e2e.set("peak_rss_mb", peakRssMb(), "MB", "wall");
    // No per-call deadline on a closed loop: every acknowledged call
    // meets it, so attainment is the acknowledged share.
    e2e.set("slo_attainment", ok_share, "ratio", "-");

    // Headline figures that only some workloads define, or that read
    // the same for every seed here (the simulated cost of an app does
    // not depend on pixel values), travel with the per-layer set.
    layer.set("sim_p50_us", percentile(sim_us, 0.50), "us", "sim");
    layer.set("sim_p99_us", percentile(sim_us, 0.99), "us", "sim");
    layer.set("shard_seconds", c.simElapsedNs / 1e9, "s", "sim");
    layer.set("call_p50_us", percentile(wall_us, 0.50), "us", "wall");
    layer.set("call_p99_us", percentile(wall_us, 0.99), "us", "wall");
    layer.set("sim_overhead_pct",
              overhead_sum / static_cast<double>(models.size()), "%",
              "sim");
    layer.set("sim_async_speedup",
              c.asyncElapsedNs > 0 ? c.syncElapsedNs / c.asyncElapsedNs
                                   : 0.0,
              "ratio", "sim");
    layer.set("failed_frac", 1.0 - ok_share, "ratio", "-");

    layer.set("osim.sim_elapsed_ms", c.simElapsedNs / 1e6, "ms", "sim");
    layer.set("osim.inhost_sim_elapsed_ms", inhost_ns / 1e6, "ms", "sim");
    layer.set("osim.events", c.events, "count", "count");
    layer.set("osim.processes", c.processes, "count", "count");
    layer.set("osim.syscall_denials", c.denials, "count", "count");
    layer.set("osim.mem_faults", c.memFaults, "count", "count");
    layer.set("core.checkpoints", c.checkpoints, "count", "count");
    layer.set("core.checkpoint_bytes", c.checkpointBytes, "bytes",
              "count");
    layer.set("core.state_changes", c.stateChanges, "count", "count");
    layer.set("core.protection_flips", c.flips, "count", "count");
    layer.set("core.lazy_copies", c.lazy, "count", "count");
    layer.set("core.direct_copies", c.direct, "count", "count");
    layer.set("core.eager_copies", c.eager, "count", "count");
    layer.set("core.overlap_fraction",
              c.asyncRuns ? c.overlapSum / static_cast<double>(c.asyncRuns)
                          : 0.0,
              "ratio", "sim");
    layer.set("core.pipeline_barriers", c.barriers, "count", "count");
    layer.set("core.inflight_stalls", c.stalls, "count", "count");
    layer.set("core.speculation_starts", c.specStarts, "count", "count");
    layer.set("core.speculation_rollbacks", c.specRollbacks, "count",
              "count");
    layer.set("ipc.messages", c.messages, "count", "count");
    layer.set("ipc.bytes", c.bytes, "bytes", "count");
    layer.set("ipc.hot_sends", c.hotSends, "count", "count");
    layer.set("ipc.piggybacked_fetches", c.piggybacked, "count", "count");

    if (options.trace) {
        // Per-layer wall time: self time of the traced passes, per
        // pass; the in-host reference ran once.
        std::map<std::string, double> self = tracer.selfTimes();
        double traced_passes = tracedPassCount(passes.size());
        auto per_pass = [&](const char *name) {
            return self[name] / traced_passes;
        };
        double call_s = per_pass("core.invoke") +
                        per_pass("core.invokeAsync") +
                        per_pass("core.peekResult");
        double inhost_s = self["fw.inhostInvoke"];
        layer.set("fw.prepare_args_s", per_pass("fw.prepareArgs"), "s",
                  "wall");
        layer.set("fw.inhost_call_s", inhost_s, "s", "wall");
        layer.set("fw.seed_inputs_s", per_pass("fw.seedInputs"), "s",
                  "wall");
        layer.set("core.runtime_init_s", per_pass("core.runtimeInit"),
                  "s", "wall");
        layer.set("core.call_s", call_s, "s", "wall");
        // Every mode replays the reference's trace once per pass.
        layer.set("core.isolation_s",
                  call_s - inhost_s * static_cast<double>(modes), "s",
                  "wall");
        layer.set("core.fetch_s", per_pass("core.fetchToHost"), "s",
                  "wall");
        layer.set("core.drain_s", per_pass("core.drainAll"), "s", "wall");
        layer.set("apps.replay_loop_s", per_pass("apps.replay"), "s", "wall");
        reportTracing(options, rates, tracer, result);
    }
    std::printf("apps: %zu pass(es) of %llu calls, in-host reference of "
                "%zu apps\n",
                passes.size(),
                static_cast<unsigned long long>(first.counts.calls),
                reference.size());
    return result;
}

} // namespace freepart::perfbench
