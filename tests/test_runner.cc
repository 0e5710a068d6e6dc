/**
 * @file
 * Runner subsystem tests: RunSpec CLI parsing (bad names, flag
 * round-trips), workload/experiment registry registration and lookup,
 * JSON value round-trips, and the JSON sink schema (parse the JSONL
 * output back and check every required key).
 */

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/json.hh"
#include "solver/config.hh"
#include "models/registry.hh"
#include "runner/experiment.hh"
#include "runner/runner.hh"
#include "runner/runspec.hh"
#include "runner/sink.hh"

using namespace mmbench;
using core::JsonValue;
using runner::LatencyStats;
using runner::RunMode;
using runner::RunSpec;

// ---------------------------------------------------------------- RunSpec

TEST(RunSpecParse, DefaultsAndExplicitFlags)
{
    RunSpec spec;
    std::string error;
    ASSERT_TRUE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--fusion", "tensor", "--mode",
         "train", "--batch", "32", "--threads", "2", "--scale", "0.5",
         "--seed", "7", "--warmup", "3", "--repeat", "9", "--device",
         "nano"},
        &spec, &error))
        << error;
    EXPECT_EQ(spec.workload, "av-mnist");
    EXPECT_TRUE(spec.hasFusion);
    EXPECT_EQ(spec.fusionKind, fusion::FusionKind::Tensor);
    EXPECT_EQ(spec.mode, RunMode::Train);
    EXPECT_EQ(spec.batch, 32);
    EXPECT_EQ(spec.threads, 2);
    EXPECT_FLOAT_EQ(spec.sizeScale, 0.5f);
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_EQ(spec.warmup, 3);
    EXPECT_EQ(spec.repeat, 9);
    EXPECT_EQ(spec.device, "nano");
}

TEST(RunSpecParse, FlagRoundTrip)
{
    RunSpec spec;
    std::string error;
    ASSERT_TRUE(runner::parseRunSpec(
        {"--workload", "mujoco-push", "--fusion", "late_lstm", "--batch",
         "4", "--scale", "0.35", "--repeat", "2", "--device", "orin"},
        &spec, &error))
        << error;

    RunSpec reparsed;
    ASSERT_TRUE(runner::parseRunSpec(spec.toArgs(), &reparsed, &error))
        << error;
    EXPECT_EQ(reparsed.workload, spec.workload);
    EXPECT_EQ(reparsed.hasFusion, spec.hasFusion);
    EXPECT_EQ(reparsed.fusionKind, spec.fusionKind);
    EXPECT_EQ(reparsed.mode, spec.mode);
    EXPECT_EQ(reparsed.batch, spec.batch);
    EXPECT_EQ(reparsed.threads, spec.threads);
    EXPECT_FLOAT_EQ(reparsed.sizeScale, spec.sizeScale);
    EXPECT_EQ(reparsed.seed, spec.seed);
    EXPECT_EQ(reparsed.warmup, spec.warmup);
    EXPECT_EQ(reparsed.repeat, spec.repeat);
    EXPECT_EQ(reparsed.device, spec.device);
}

TEST(RunSpecParse, DefaultFusionStaysUnset)
{
    RunSpec spec;
    std::string error;
    ASSERT_TRUE(runner::parseRunSpec({"--workload", "transfuser"}, &spec,
                                     &error))
        << error;
    EXPECT_FALSE(spec.hasFusion);
    // Round-trip must preserve "use the workload default".
    RunSpec reparsed;
    ASSERT_TRUE(runner::parseRunSpec(spec.toArgs(), &reparsed, &error));
    EXPECT_FALSE(reparsed.hasFusion);
}

TEST(RunSpecParse, Errors)
{
    RunSpec spec;
    std::string error;
    EXPECT_FALSE(runner::parseRunSpec({}, &spec, &error));
    EXPECT_NE(error.find("missing --workload"), std::string::npos);

    EXPECT_FALSE(runner::parseRunSpec({"--workload", "not-a-workload"},
                                      &spec, &error));
    EXPECT_NE(error.find("unknown workload"), std::string::npos);
    EXPECT_NE(error.find("av-mnist"), std::string::npos) << error;

    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--fusion", "bogus"}, &spec, &error));
    EXPECT_NE(error.find("unknown fusion"), std::string::npos);

    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "sideways"}, &spec, &error));
    EXPECT_NE(error.find("unknown mode"), std::string::npos);

    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--batch", "0"}, &spec, &error));
    EXPECT_NE(error.find("--batch"), std::string::npos);

    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--batch", "12x"}, &spec, &error));
    EXPECT_NE(error.find("--batch"), std::string::npos);

    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--device", "tpu"}, &spec, &error));
    EXPECT_NE(error.find("unknown device"), std::string::npos);

    for (const char *flag : {"--frobnicate", "--coalesce"}) {
        EXPECT_FALSE(runner::parseRunSpec(
            {"--workload", "av-mnist", flag, "1"}, &spec, &error));
        EXPECT_NE(error.find("unknown flag"), std::string::npos) << flag;
    }

    EXPECT_FALSE(runner::parseRunSpec({"--workload"}, &spec, &error));
    EXPECT_NE(error.find("missing its value"), std::string::npos);
}

TEST(RunSpecParse, ArrivalFlagsParseAndRoundTrip)
{
    RunSpec spec;
    std::string error;
    ASSERT_TRUE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "serve", "--arrival",
         "poisson", "--rate", "128.5", "--max-batch", "4", "--inflight",
         "2", "--requests", "16"},
        &spec, &error))
        << error;
    EXPECT_EQ(spec.arrival, pipeline::ArrivalKind::Poisson);
    EXPECT_DOUBLE_EQ(spec.rateRps, 128.5);
    EXPECT_EQ(spec.maxBatch, 4);

    RunSpec reparsed;
    ASSERT_TRUE(runner::parseRunSpec(spec.toArgs(), &reparsed, &error))
        << error;
    EXPECT_EQ(reparsed.arrival, spec.arrival);
    EXPECT_DOUBLE_EQ(reparsed.rateRps, spec.rateRps);
    EXPECT_EQ(reparsed.maxBatch, spec.maxBatch);

    // The closed-loop default also round-trips (rate 0 accepted).
    RunSpec closed;
    ASSERT_TRUE(runner::parseRunSpec({"--workload", "av-mnist"}, &closed,
                                     &error))
        << error;
    RunSpec closed2;
    ASSERT_TRUE(runner::parseRunSpec(closed.toArgs(), &closed2, &error))
        << error;
    EXPECT_EQ(closed2.arrival, pipeline::ArrivalKind::Closed);
    EXPECT_DOUBLE_EQ(closed2.rateRps, 0.0);
    EXPECT_EQ(closed2.maxBatch, 1);
}

TEST(RunSpecParse, ArrivalFlagErrors)
{
    RunSpec spec;
    std::string error;
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "serve", "--arrival",
         "burst"},
        &spec, &error));
    EXPECT_NE(error.find("unknown arrival"), std::string::npos);

    // Open loop without a rate.
    spec = RunSpec();
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "serve", "--arrival",
         "poisson"},
        &spec, &error));
    EXPECT_NE(error.find("--rate"), std::string::npos);

    // Open loop outside serve mode.
    spec = RunSpec();
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--arrival", "fixed", "--rate", "10"},
        &spec, &error));
    EXPECT_NE(error.find("serve"), std::string::npos);

    // Batching needs a queue, i.e. open-loop arrivals.
    spec = RunSpec();
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "serve", "--max-batch", "4"},
        &spec, &error));
    EXPECT_NE(error.find("--max-batch"), std::string::npos);

    // A rate under the closed loop would be silently ignored: reject.
    spec = RunSpec();
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "serve", "--rate", "100"},
        &spec, &error));
    EXPECT_NE(error.find("--rate"), std::string::npos);
    EXPECT_NE(error.find("--arrival"), std::string::npos);

    spec = RunSpec();
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "serve", "--arrival",
         "poisson", "--rate", "-5"},
        &spec, &error));
    EXPECT_NE(error.find("--rate"), std::string::npos);
}

TEST(RunSpecParse, FaultFlagsParseAndRoundTrip)
{
    RunSpec spec;
    std::string error;
    ASSERT_TRUE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "serve", "--arrival",
         "poisson", "--rate", "200", "--faults",
         "slow:node=encoder:*:p=0.1:x=3;fail:node=fusion:p=0.05",
         "--queue-cap", "8", "--deadline-ms", "2.5", "--retries", "2",
         "--shed", "off"},
        &spec, &error))
        << error;
    EXPECT_EQ(spec.faults,
              "slow:node=encoder:*:p=0.1:x=3;fail:node=fusion:p=0.05");
    EXPECT_EQ(spec.queueCap, 8);
    EXPECT_DOUBLE_EQ(spec.deadlineMs, 2.5);
    EXPECT_EQ(spec.retries, 2);
    EXPECT_FALSE(spec.shed);

    RunSpec reparsed;
    ASSERT_TRUE(runner::parseRunSpec(spec.toArgs(), &reparsed, &error))
        << error;
    EXPECT_EQ(reparsed.faults, spec.faults);
    EXPECT_EQ(reparsed.queueCap, spec.queueCap);
    EXPECT_DOUBLE_EQ(reparsed.deadlineMs, spec.deadlineMs);
    EXPECT_EQ(reparsed.retries, spec.retries);
    EXPECT_EQ(reparsed.shed, spec.shed);

    // The inert defaults round-trip too: no fault spec, no deadline,
    // unbounded queue, shedding notionally on.
    RunSpec plain;
    ASSERT_TRUE(runner::parseRunSpec({"--workload", "av-mnist"}, &plain,
                                     &error))
        << error;
    RunSpec plain2;
    ASSERT_TRUE(runner::parseRunSpec(plain.toArgs(), &plain2, &error))
        << error;
    EXPECT_TRUE(plain2.faults.empty());
    EXPECT_EQ(plain2.queueCap, 0);
    EXPECT_DOUBLE_EQ(plain2.deadlineMs, 0.0);
    EXPECT_EQ(plain2.retries, 0);
    EXPECT_TRUE(plain2.shed);
}

TEST(RunSpecParse, FaultFlagErrors)
{
    RunSpec spec;
    std::string error;

    // Malformed fault grammar is rejected at parse time.
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "serve", "--faults",
         "explode:p=0.5"},
        &spec, &error));
    EXPECT_NE(error.find("--faults"), std::string::npos) << error;

    // A bounded queue needs open-loop arrivals; the closed loop never
    // queues, so the cap would be silently meaningless.
    spec = RunSpec();
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "serve", "--queue-cap",
         "4"},
        &spec, &error));
    EXPECT_NE(error.find("--queue-cap"), std::string::npos) << error;

    // Lifecycle flags outside serve mode would be silently ignored.
    spec = RunSpec();
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--deadline-ms", "5"}, &spec,
        &error));
    EXPECT_NE(error.find("--deadline-ms"), std::string::npos) << error;

    spec = RunSpec();
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--retries", "2"}, &spec, &error));
    EXPECT_NE(error.find("--retries"), std::string::npos) << error;

    spec = RunSpec();
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--shed", "off"}, &spec, &error));
    EXPECT_NE(error.find("--shed"), std::string::npos) << error;

    spec = RunSpec();
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--faults", "fail:node=*:p=0.1"},
        &spec, &error));
    EXPECT_NE(error.find("--faults"), std::string::npos) << error;

    // Bad values for the new flags.
    spec = RunSpec();
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "serve", "--shed",
         "maybe"},
        &spec, &error));
    EXPECT_NE(error.find("--shed"), std::string::npos) << error;

    spec = RunSpec();
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "serve", "--arrival",
         "poisson", "--rate", "10", "--deadline-ms", "-1"},
        &spec, &error));
    EXPECT_NE(error.find("--deadline-ms"), std::string::npos) << error;

    spec = RunSpec();
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "serve", "--retries",
         "-2"},
        &spec, &error));
    EXPECT_NE(error.find("--retries"), std::string::npos) << error;
}

TEST(RunSpecParse, RateSweepExpandsAcrossSpecs)
{
    std::vector<RunSpec> specs;
    std::string error;
    ASSERT_TRUE(runner::parseRunSpecs(
        {"--workload", "av-mnist", "--mode", "serve", "--arrival",
         "poisson", "--rate", "10,20,40"},
        &specs, &error))
        << error;
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_DOUBLE_EQ(specs[0].rateRps, 10.0);
    EXPECT_DOUBLE_EQ(specs[1].rateRps, 20.0);
    EXPECT_DOUBLE_EQ(specs[2].rateRps, 40.0);
    for (const RunSpec &s : specs)
        EXPECT_EQ(s.arrival, pipeline::ArrivalKind::Poisson);
}

// ------------------------------------------------- kernel-fusion flags

TEST(RunSpecParse, FusionKernelFlagsParseAndRoundTrip)
{
    RunSpec spec;
    std::string error;
    // --fusion is overloaded: a kind selects modality fusion, on/off
    // toggles kernel fusion; both can appear in one command line.
    ASSERT_TRUE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--fusion", "concat", "--fusion",
         "on", "--autotune", "force", "--perfdb", "/tmp/pdb.json"},
        &spec, &error))
        << error;
    EXPECT_TRUE(spec.hasFusion);
    EXPECT_EQ(spec.fusionKind, fusion::FusionKind::Concat);
    EXPECT_TRUE(spec.fuseKernels);
    EXPECT_EQ(spec.autotune, solver::AutotuneMode::Force);
    EXPECT_EQ(spec.perfdb, "/tmp/pdb.json");

    RunSpec reparsed;
    ASSERT_TRUE(runner::parseRunSpec(spec.toArgs(), &reparsed, &error))
        << error;
    EXPECT_EQ(reparsed.hasFusion, spec.hasFusion);
    EXPECT_EQ(reparsed.fusionKind, spec.fusionKind);
    EXPECT_EQ(reparsed.fuseKernels, spec.fuseKernels);
    EXPECT_EQ(reparsed.autotune, spec.autotune);
    EXPECT_EQ(reparsed.perfdb, spec.perfdb);

    // --fusion off parses and stays the default.
    spec = RunSpec();
    ASSERT_TRUE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--fusion", "off"}, &spec, &error))
        << error;
    EXPECT_FALSE(spec.fuseKernels);
    EXPECT_FALSE(spec.hasFusion);
    RunSpec off_reparsed;
    ASSERT_TRUE(
        runner::parseRunSpec(spec.toArgs(), &off_reparsed, &error));
    EXPECT_FALSE(off_reparsed.fuseKernels);
}

TEST(RunSpecParse, FusionKernelFlagErrors)
{
    RunSpec spec;
    std::string error;
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--autotune", "sideways"}, &spec,
        &error));
    EXPECT_NE(error.find("--autotune"), std::string::npos) << error;

    spec = RunSpec();
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--autotune", "on"}, &spec, &error));
    EXPECT_NE(error.find("--fusion on"), std::string::npos) << error;

    spec = RunSpec();
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--perfdb", "/tmp/pdb.json"}, &spec,
        &error));
    EXPECT_NE(error.find("--fusion on"), std::string::npos) << error;

    // --autotune force against a read-only perf-db fails at parse
    // time (permission bits, so the check also holds for root).
    const std::string ro =
        ::testing::TempDir() + "/mmbench_ro_perfdb.json";
    {
        std::ofstream os(ro);
        os << "{}";
    }
    ASSERT_EQ(::chmod(ro.c_str(), 0444), 0);
    spec = RunSpec();
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--fusion", "on", "--autotune",
         "force", "--perfdb", ro},
        &spec, &error));
    EXPECT_NE(error.find("read-only"), std::string::npos) << error;
    ::chmod(ro.c_str(), 0644);
    std::remove(ro.c_str());

    // A writable db (or a missing file) is fine.
    spec = RunSpec();
    EXPECT_TRUE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--fusion", "on", "--autotune",
         "force", "--perfdb",
         ::testing::TempDir() + "/mmbench_new_perfdb.json"},
        &spec, &error))
        << error;
}

// ---------------------------------------------------- reduced-precision

TEST(RunSpecParse, DtypeFlagParsesAndRoundTrips)
{
    RunSpec spec;
    std::string error;
    ASSERT_TRUE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--dtype", "bf16"}, &spec, &error))
        << error;
    EXPECT_EQ(spec.dtype, tensor::DType::BF16);

    RunSpec reparsed;
    ASSERT_TRUE(runner::parseRunSpec(spec.toArgs(), &reparsed, &error))
        << error;
    EXPECT_EQ(reparsed.dtype, tensor::DType::BF16);

    // The default spec never emits --dtype: f32 command lines (and
    // their JSONL records) stay byte-identical to the pre-dtype era.
    RunSpec plain;
    ASSERT_TRUE(runner::parseRunSpec({"--workload", "av-mnist"}, &plain,
                                     &error));
    for (const std::string &arg : plain.toArgs())
        EXPECT_NE(arg, "--dtype");

    // Explicit f32 parses and round-trips to the flag-free form.
    RunSpec f32;
    ASSERT_TRUE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--dtype", "f32"}, &f32, &error));
    EXPECT_EQ(f32.dtype, tensor::DType::F32);
    for (const std::string &arg : f32.toArgs())
        EXPECT_NE(arg, "--dtype");
}

TEST(RunSpecParse, DtypeFlagErrors)
{
    RunSpec spec;
    std::string error;
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--dtype", "f64"}, &spec, &error));
    EXPECT_NE(error.find("--dtype"), std::string::npos) << error;

    // i8 and f16 are inference-only: training rejects at parse time.
    for (const char *dt : {"i8", "f16"}) {
        spec = RunSpec();
        EXPECT_FALSE(runner::parseRunSpec(
            {"--workload", "av-mnist", "--mode", "train", "--dtype", dt},
            &spec, &error))
            << dt;
        EXPECT_NE(error.find("inference-only"), std::string::npos)
            << error;
    }

    // bf16 trains (f32 master weights), and i8 serves/infers.
    spec = RunSpec();
    EXPECT_TRUE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "train", "--dtype", "bf16"},
        &spec, &error))
        << error;
    spec = RunSpec();
    EXPECT_TRUE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "serve", "--dtype", "i8"},
        &spec, &error))
        << error;
}

TEST(RunSpecParse, DtypeSweepExpandsInnermost)
{
    std::vector<RunSpec> specs;
    std::string error;
    ASSERT_TRUE(runner::parseRunSpecs(
        {"--workload", "av-mnist", "--batch", "2,4", "--dtype",
         "f32,bf16"},
        &specs, &error))
        << error;
    ASSERT_EQ(specs.size(), 4u);
    // dtype is the innermost axis: each batch's f32 row is immediately
    // followed by its reduced sibling, so precision pairs sit adjacent
    // in the emitted stream.
    EXPECT_EQ(specs[0].batch, 2);
    EXPECT_EQ(specs[0].dtype, tensor::DType::F32);
    EXPECT_EQ(specs[1].batch, 2);
    EXPECT_EQ(specs[1].dtype, tensor::DType::BF16);
    EXPECT_EQ(specs[2].batch, 4);
    EXPECT_EQ(specs[2].dtype, tensor::DType::F32);
    EXPECT_EQ(specs[3].batch, 4);
    EXPECT_EQ(specs[3].dtype, tensor::DType::BF16);
}

// --------------------------------------------------------------- registry

TEST(WorkloadRegistry, AllNineRegisteredInTableOrder)
{
    const std::vector<std::string> expected = {
        "av-mnist",    "mm-imdb",     "cmu-mosei",
        "mustard",     "medical-vqa", "medical-seg",
        "mujoco-push", "vision-touch", "transfuser",
    };
    EXPECT_EQ(models::WorkloadRegistry::instance().names(), expected);
}

TEST(WorkloadRegistry, LookupIsCaseInsensitive)
{
    const auto &registry = models::WorkloadRegistry::instance();
    const models::WorkloadEntry *entry = registry.find("AV-MNIST");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->name, "av-mnist");
    EXPECT_EQ(entry->defaultFusion, fusion::FusionKind::Concat);
    EXPECT_EQ(registry.find("no-such-workload"), nullptr);
}

TEST(WorkloadRegistry, EntriesCarryDefaultFusionAndDescription)
{
    for (const models::WorkloadEntry *entry :
         models::WorkloadRegistry::instance().entries()) {
        EXPECT_FALSE(entry->description.empty()) << entry->name;
        EXPECT_NE(entry->factory, nullptr) << entry->name;
    }
    EXPECT_EQ(models::WorkloadRegistry::instance()
                  .find("transfuser")
                  ->defaultFusion,
              fusion::FusionKind::Transformer);
}

TEST(WorkloadRegistry, CreateHonorsConfigAndDefault)
{
    const auto &registry = models::WorkloadRegistry::instance();
    models::WorkloadConfig config;
    config.fusionKind = fusion::FusionKind::Tensor;
    config.sizeScale = 0.35f;
    auto w = registry.create("av-mnist", config);
    EXPECT_EQ(w->config().fusionKind, fusion::FusionKind::Tensor);

    auto d = registry.createDefault("mujoco-push", 0.35f, 3);
    EXPECT_EQ(d->config().fusionKind, fusion::FusionKind::Transformer);
}

TEST(WorkloadRegistryDeathTest, DuplicateRegistrationPanics)
{
    EXPECT_DEATH(
        {
            models::WorkloadEntry entry;
            entry.name = "av-mnist";
            entry.factory = [](models::WorkloadConfig) {
                return std::unique_ptr<models::MultiModalWorkload>();
            };
            models::WorkloadRegistry::instance().add(std::move(entry));
        },
        "registered twice");
}

// ------------------------------------------------------------ experiments

namespace {

int gDummyExperimentRuns = 0;

int
dummyExperiment()
{
    ++gDummyExperimentRuns;
    return 0;
}

} // namespace

MMBENCH_REGISTER_EXPERIMENT(test_dummy_experiment,
                            "registry self-test experiment",
                            dummyExperiment);

TEST(ExperimentRegistry, RegisterFindRun)
{
    const runner::Experiment *experiment =
        runner::ExperimentRegistry::instance().find(
            "TEST_DUMMY_EXPERIMENT");
    ASSERT_NE(experiment, nullptr);
    EXPECT_EQ(experiment->id, "test_dummy_experiment");
    EXPECT_EQ(experiment->title, "registry self-test experiment");
    const int before = gDummyExperimentRuns;
    EXPECT_EQ(experiment->run(), 0);
    EXPECT_EQ(gDummyExperimentRuns, before + 1);

    EXPECT_EQ(runner::ExperimentRegistry::instance().find("no-such-id"),
              nullptr);

    // list() is sorted by id.
    const auto list = runner::ExperimentRegistry::instance().list();
    for (size_t i = 1; i < list.size(); ++i)
        EXPECT_LT(list[i - 1]->id, list[i]->id);
}

// ------------------------------------------------------------------- json

TEST(Json, DumpParseRoundTrip)
{
    JsonValue obj = JsonValue::object();
    obj.set("str", "he said \"hi\"\n");
    obj.set("int", static_cast<int64_t>(-42));
    obj.set("float", 2.5);
    obj.set("flag", true);
    JsonValue arr = JsonValue::array();
    arr.push(JsonValue(1));
    arr.push(JsonValue("two"));
    obj.set("arr", std::move(arr));

    std::string error;
    JsonValue parsed = JsonValue::parse(obj.dump(), &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(parsed.find("str")->stringValue(), "he said \"hi\"\n");
    EXPECT_EQ(parsed.find("int")->intValue(), -42);
    EXPECT_DOUBLE_EQ(parsed.find("float")->numberValue(), 2.5);
    EXPECT_TRUE(parsed.find("flag")->boolValue());
    EXPECT_EQ(parsed.find("arr")->size(), 2u);
    EXPECT_EQ(parsed.find("arr")->at(1).stringValue(), "two");
}

TEST(Json, ParseRejectsMalformedInput)
{
    std::string error;
    JsonValue::parse("{\"a\": }", &error);
    EXPECT_FALSE(error.empty());
    JsonValue::parse("{\"a\": 1} trailing", &error);
    EXPECT_FALSE(error.empty());
    JsonValue::parse("[1, 2", &error);
    EXPECT_FALSE(error.empty());
    JsonValue::parse("\"unterminated", &error);
    EXPECT_FALSE(error.empty());
}

TEST(PercentileSorted, InterpolatesBetweenOrderStatistics)
{
    const std::vector<double> sorted = {10, 20, 30, 40, 50,
                                        60, 70, 80, 90, 100};
    // rank = p/100 * (n-1) = p * 0.09
    EXPECT_DOUBLE_EQ(runner::percentileSorted(sorted, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(runner::percentileSorted(sorted, 100.0), 100.0);
    EXPECT_NEAR(runner::percentileSorted(sorted, 50.0), 55.0, 1e-9);
    EXPECT_NEAR(runner::percentileSorted(sorted, 95.0), 95.5, 1e-9);
    EXPECT_NEAR(runner::percentileSorted(sorted, 99.0), 99.1, 1e-9);

    EXPECT_DOUBLE_EQ(runner::percentileSorted({}, 50.0), 0.0);
    EXPECT_DOUBLE_EQ(runner::percentileSorted({7.5}, 99.0), 7.5);
}

TEST(LatencyStats, HandComputedTenSampleVector)
{
    // Unsorted on purpose: fromSamples sorts its copy.
    const std::vector<double> samples = {70, 10, 100, 40, 90,
                                         20, 80, 50, 30, 60};
    const LatencyStats stats = LatencyStats::fromSamples(samples);
    EXPECT_EQ(stats.count, 10);
    EXPECT_DOUBLE_EQ(stats.min, 10.0);
    EXPECT_DOUBLE_EQ(stats.max, 100.0);
    EXPECT_DOUBLE_EQ(stats.mean, 55.0);
    EXPECT_NEAR(stats.p50, 55.0, 1e-9);
    EXPECT_NEAR(stats.p95, 95.5, 1e-9);
    EXPECT_NEAR(stats.p99, 99.1, 1e-9);
}

TEST(LatencyStats, SingleSampleIsEveryStatistic)
{
    const LatencyStats stats = LatencyStats::fromSamples({123.5});
    EXPECT_EQ(stats.count, 1);
    for (double v : {stats.p50, stats.p95, stats.p99, stats.mean,
                     stats.min, stats.max})
        EXPECT_DOUBLE_EQ(v, 123.5);
}

TEST(LatencyStats, PercentilesFromSamples)
{
    std::vector<double> samples;
    for (int i = 100; i >= 1; --i)
        samples.push_back(static_cast<double>(i));
    const LatencyStats stats = LatencyStats::fromSamples(samples);
    EXPECT_EQ(stats.count, 100);
    EXPECT_DOUBLE_EQ(stats.min, 1.0);
    EXPECT_DOUBLE_EQ(stats.max, 100.0);
    EXPECT_DOUBLE_EQ(stats.mean, 50.5);
    EXPECT_NEAR(stats.p50, 50.5, 1e-9);
    EXPECT_NEAR(stats.p95, 95.05, 1e-9);
    EXPECT_NEAR(stats.p99, 99.01, 1e-9);

    const LatencyStats empty = LatencyStats::fromSamples({});
    EXPECT_EQ(empty.count, 0);
    EXPECT_DOUBLE_EQ(empty.p50, 0.0);
}

// -------------------------------------------------------- JSON sink schema

namespace {

/** Run one tiny spec through the JSONL sink and parse the line back. */
JsonValue
smokeRecord()
{
    RunSpec spec;
    spec.workload = "av-mnist";
    spec.batch = 2;
    spec.sizeScale = 0.35f;
    spec.warmup = 0;
    spec.repeat = 2;

    const std::string path =
        ::testing::TempDir() + "/mmbench_test_runner.jsonl";
    std::remove(path.c_str()); // the sink appends; start clean
    {
        runner::JsonlSink sink(path);
        std::vector<runner::ResultSink *> sinks = {&sink};
        runner::runOne(spec, sinks);
        sink.flush();
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    std::remove(path.c_str());

    std::string error;
    JsonValue record = JsonValue::parse(line, &error);
    EXPECT_TRUE(error.empty()) << error;
    return record;
}

} // namespace

TEST(JsonSink, SchemaHasAllRequiredKeys)
{
    const JsonValue record = smokeRecord();
    ASSERT_TRUE(record.isObject());

    EXPECT_EQ(record.find("schema")->stringValue(), "mmbench-result-v1");
    EXPECT_EQ(record.find("kind")->stringValue(), "workload");
    EXPECT_EQ(record.find("name")->stringValue(), "av-mnist");
    EXPECT_EQ(record.find("device")->stringValue(), "2080ti");
    ASSERT_TRUE(record.has("threads"));
    EXPECT_GE(record.find("threads")->intValue(), 1);

    const JsonValue *spec = record.find("spec");
    ASSERT_NE(spec, nullptr);
    for (const char *key :
         {"workload", "fusion", "mode", "batch", "threads", "scale",
          "seed", "warmup", "repeat", "device", "faults", "queue_cap",
          "deadline_ms", "retries", "shed"}) {
        EXPECT_TRUE(spec->has(key)) << key;
    }
    // Default fusion resolved from the registry (no --fusion given).
    EXPECT_EQ(spec->find("fusion")->stringValue(), "concat");
    EXPECT_EQ(spec->find("mode")->stringValue(), "infer");

    for (const char *block : {"latency_us", "sim_latency_us"}) {
        const JsonValue *latency = record.find(block);
        ASSERT_NE(latency, nullptr) << block;
        for (const char *key :
             {"p50", "p95", "p99", "mean", "min", "max", "count"}) {
            EXPECT_TRUE(latency->has(key)) << block << "." << key;
        }
        EXPECT_EQ(latency->find("count")->intValue(), 2) << block;
    }
    EXPECT_GT(record.find("latency_us")->find("p50")->numberValue(), 0.0);
    EXPECT_GT(record.find("throughput_sps")->numberValue(), 0.0);

    const JsonValue *stages = record.find("stages");
    ASSERT_NE(stages, nullptr);
    ASSERT_EQ(stages->size(), 3u);
    EXPECT_EQ(stages->at(0).find("stage")->stringValue(), "encoder");
    EXPECT_TRUE(stages->at(0).has("gpu_us"));
    EXPECT_TRUE(stages->at(0).has("cpu_us"));

    const JsonValue *modalities = record.find("modalities");
    ASSERT_NE(modalities, nullptr);
    ASSERT_EQ(modalities->size(), 2u); // av-mnist: image + audio
    EXPECT_TRUE(modalities->at(0).has("modality"));
    EXPECT_TRUE(modalities->at(0).has("gpu_us"));

    const JsonValue *memory = record.find("memory");
    ASSERT_NE(memory, nullptr);
    for (const char *key :
         {"model_bytes", "dataset_bytes", "peak_intermediate_bytes"}) {
        EXPECT_TRUE(memory->has(key)) << key;
        EXPECT_GE(memory->find(key)->intValue(), 0) << key;
    }
    EXPECT_GT(memory->find("model_bytes")->intValue(), 0);

    const JsonValue *metric = record.find("metric");
    ASSERT_NE(metric, nullptr);
    EXPECT_TRUE(metric->has("name"));
    EXPECT_TRUE(metric->has("value"));
}

TEST(JsonSink, SolverBlockOnlyWhenKernelFusionActive)
{
    // The default record must stay byte-compatible with pre-solver
    // output: no solver block, no kernel-fusion spec keys.
    const JsonValue plain = smokeRecord();
    EXPECT_FALSE(plain.has("solver"));
    const JsonValue *plain_spec = plain.find("spec");
    ASSERT_NE(plain_spec, nullptr);
    EXPECT_FALSE(plain_spec->has("fusion_kernels"));
    EXPECT_FALSE(plain_spec->has("autotune"));
    EXPECT_FALSE(plain_spec->has("perfdb"));

    RunSpec spec;
    spec.workload = "av-mnist";
    spec.batch = 2;
    spec.sizeScale = 0.35f;
    spec.warmup = 0;
    spec.repeat = 2;
    spec.fuseKernels = true;
    runner::RunResult result = runner::runOne(spec);
    const JsonValue record = result.toJson();
    const JsonValue *solver = record.find("solver");
    ASSERT_NE(solver, nullptr);
    for (const char *key : {"fused_ops", "searches", "search_ms",
                            "perfdb_hits", "fused_groups",
                            "unsupported"}) {
        EXPECT_TRUE(solver->has(key)) << key;
    }
    EXPECT_GT(solver->find("fused_ops")->intValue(), 0);
    EXPECT_GT(solver->find("fused_groups")->intValue(), 0);
    // Autotune off: never a search, never a db hit.
    EXPECT_EQ(solver->find("searches")->intValue(), 0);
    EXPECT_EQ(solver->find("perfdb_hits")->intValue(), 0);
    const JsonValue *fused_spec = record.find("spec");
    ASSERT_NE(fused_spec, nullptr);
    EXPECT_TRUE(fused_spec->find("fusion_kernels")->boolValue());
    EXPECT_EQ(fused_spec->find("autotune")->stringValue(), "off");
}

TEST(Runner, ExplicitFusionOverridesDefault)
{
    RunSpec spec;
    spec.workload = "av-mnist";
    spec.hasFusion = true;
    spec.fusionKind = fusion::FusionKind::Tensor;
    spec.batch = 2;
    spec.sizeScale = 0.35f;
    spec.warmup = 0;
    spec.repeat = 1;
    const runner::RunResult result = runner::runOne(spec);
    EXPECT_EQ(result.fusion, "tensor");
    EXPECT_EQ(result.hostLatencyUs.count, 1);
    EXPECT_TRUE(result.hasMetric);
}

// ------------------------------------------------------ open-loop serve

TEST(Runner, OpenLoopServeReportsQueueAndServiceSeparately)
{
    RunSpec spec;
    spec.workload = "av-mnist";
    spec.mode = RunMode::Serve;
    spec.batch = 2;
    spec.sizeScale = 0.35f;
    spec.inflight = 2;
    spec.requests = 8;
    spec.arrival = pipeline::ArrivalKind::Poisson;
    spec.rateRps = 500.0;

    const runner::RunResult result = runner::runOne(spec);
    EXPECT_EQ(result.serve.arrival, "poisson");
    EXPECT_DOUBLE_EQ(result.serve.offeredRps, 500.0);
    EXPECT_GT(result.serve.achievedRps, 0.0);
    EXPECT_EQ(result.serve.requests, 8);
    EXPECT_EQ(result.serve.batches, 8); // coalesce 1
    EXPECT_EQ(result.serve.queueUs.count, 8);
    EXPECT_EQ(result.serve.serviceUs.count, 8);
    EXPECT_GE(result.serve.queueUs.min, 0.0);
    EXPECT_GT(result.serve.serviceUs.p50, 0.0);
    // latency_i = queue_i + service_i pointwise, so every combined
    // percentile dominates the matching service-only percentile.
    EXPECT_EQ(result.hostLatencyUs.count, 8);
    EXPECT_GE(result.hostLatencyUs.p50, result.serve.serviceUs.p50);
    EXPECT_GE(result.hostLatencyUs.p99, result.serve.serviceUs.p99);
    EXPECT_TRUE(result.hasMetric);

    // Inert path: no faults, no deadline, unbounded queue — every
    // request completes Ok and the lifecycle counters are all zero.
    EXPECT_EQ(result.serve.ok, 8);
    EXPECT_EQ(result.serve.degraded, 0);
    EXPECT_EQ(result.serve.shed, 0);
    EXPECT_EQ(result.serve.timeouts, 0);
    EXPECT_EQ(result.serve.failed, 0);
    EXPECT_EQ(result.serve.retries, 0);
    EXPECT_EQ(result.serve.faultsInjected, 0);
    // With nothing shed or failed, goodput IS achieved throughput.
    EXPECT_DOUBLE_EQ(result.serve.goodputRps, result.serve.achievedRps);
}

TEST(Runner, ClosedLoopServeHasNoQueueDelay)
{
    RunSpec spec;
    spec.workload = "av-mnist";
    spec.mode = RunMode::Serve;
    spec.batch = 2;
    spec.sizeScale = 0.35f;
    spec.inflight = 2;
    spec.requests = 6;

    const runner::RunResult result = runner::runOne(spec);
    EXPECT_EQ(result.serve.arrival, "closed");
    EXPECT_DOUBLE_EQ(result.serve.offeredRps, 0.0);
    EXPECT_GT(result.serve.achievedRps, 0.0);
    EXPECT_EQ(result.serve.queueUs.count, 6);
    EXPECT_DOUBLE_EQ(result.serve.queueUs.max, 0.0);
    // No queue: combined latency IS the service time.
    EXPECT_DOUBLE_EQ(result.hostLatencyUs.p50,
                     result.serve.serviceUs.p50);
    EXPECT_DOUBLE_EQ(result.hostLatencyUs.p99,
                     result.serve.serviceUs.p99);
    EXPECT_EQ(result.serve.ok, 6);
    EXPECT_EQ(result.serve.ok + result.serve.degraded +
                  result.serve.shed + result.serve.timeouts +
                  result.serve.failed,
              result.serve.requests);
}

// -------------------------------------------------- fault-tolerant serve

TEST(Runner, ServeJsonCarriesLifecycleBlock)
{
    RunSpec spec;
    spec.workload = "av-mnist";
    spec.mode = RunMode::Serve;
    spec.batch = 2;
    spec.sizeScale = 0.35f;
    spec.inflight = 1;
    spec.requests = 4;

    const std::string path =
        ::testing::TempDir() + "/mmbench_test_runner_serve.jsonl";
    std::remove(path.c_str());
    {
        runner::JsonlSink sink(path);
        std::vector<runner::ResultSink *> sinks = {&sink};
        runner::runOne(spec, sinks);
        sink.flush();
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    std::remove(path.c_str());

    std::string error;
    const JsonValue record = JsonValue::parse(line, &error);
    ASSERT_TRUE(error.empty()) << error;

    const JsonValue *serve = record.find("serve");
    ASSERT_NE(serve, nullptr);
    for (const char *key :
         {"ok", "degraded", "shed", "timeouts", "failed", "retries",
          "faults_injected", "goodput_rps"}) {
        EXPECT_TRUE(serve->has(key)) << key;
    }
    // Inert run: the lifecycle block reports every request Ok.
    EXPECT_EQ(serve->find("ok")->intValue(), 4);
    EXPECT_EQ(serve->find("shed")->intValue(), 0);
    EXPECT_EQ(serve->find("failed")->intValue(), 0);
    EXPECT_EQ(serve->find("faults_injected")->intValue(), 0);
    EXPECT_GT(serve->find("goodput_rps")->numberValue(), 0.0);
}

TEST(Runner, DroppedModalitiesServeDegraded)
{
    // Dropping the audio modality on every request cannot fail a
    // request: the scheduler prunes the dead encoder subtree and the
    // fusion stage zero-imputes the missing feature.
    RunSpec spec;
    spec.workload = "av-mnist";
    spec.mode = RunMode::Serve;
    spec.batch = 2;
    spec.sizeScale = 0.35f;
    spec.inflight = 1;
    spec.requests = 4;
    spec.faults = "drop_modality:mod=audio:p=1";

    const runner::RunResult result = runner::runOne(spec);
    EXPECT_EQ(result.serve.degraded, 4);
    EXPECT_EQ(result.serve.ok, 0);
    EXPECT_EQ(result.serve.failed, 0);
    EXPECT_EQ(result.serve.shed, 0);
    EXPECT_EQ(result.serve.faultsInjected, 4); // one dropped mod each
    // Degraded completions still count toward goodput.
    EXPECT_DOUBLE_EQ(result.serve.goodputRps, result.serve.achievedRps);
}

TEST(Runner, RequestsWithNoLiveModalityFail)
{
    // Dropping every modality leaves nothing to compute from: on every
    // workload each request ends failed through the normal outcome
    // path, instead of answering from zero-imputed inputs alone or
    // aborting inside a workload's fusion body.
    for (const std::string &name :
         models::WorkloadRegistry::instance().names()) {
        SCOPED_TRACE(name);
        RunSpec spec;
        spec.workload = name;
        spec.mode = RunMode::Serve;
        spec.batch = 2;
        spec.sizeScale = 0.35f;
        spec.inflight = 1;
        spec.requests = 4;
        spec.faults = "drop_modality:mod=*:p=1";

        const runner::RunResult result = runner::runOne(spec);
        EXPECT_EQ(result.serve.failed, spec.requests);
        EXPECT_EQ(result.serve.ok + result.serve.degraded +
                      result.serve.shed + result.serve.timeouts,
                  0);
        EXPECT_GT(result.serve.faultsInjected, 0);
        EXPECT_DOUBLE_EQ(result.serve.goodputRps, 0.0);
    }
}

TEST(Runner, ExhaustedRetriesFailTheRequest)
{
    // p=1 fusion failure burns the whole retry budget every time:
    // each request rolls attempt 0 (counts as a retry) and attempt 1
    // (budget exhausted -> Failed), injecting two faults.
    RunSpec spec;
    spec.workload = "av-mnist";
    spec.mode = RunMode::Serve;
    spec.batch = 2;
    spec.sizeScale = 0.35f;
    spec.inflight = 1;
    spec.requests = 3;
    spec.faults = "fail:node=fusion:p=1";
    spec.retries = 1;

    const runner::RunResult result = runner::runOne(spec);
    EXPECT_EQ(result.serve.failed, 3);
    EXPECT_EQ(result.serve.ok, 0);
    EXPECT_EQ(result.serve.retries, 3);
    EXPECT_EQ(result.serve.faultsInjected, 6);
    EXPECT_DOUBLE_EQ(result.serve.goodputRps, 0.0);
}

TEST(Runner, FaultedServeIsDeterministic)
{
    // Same spec, same seed: the injected-fault counts and per-outcome
    // tallies are bit-identical across runs even though wall-clock
    // timings differ.
    RunSpec spec;
    spec.workload = "av-mnist";
    spec.mode = RunMode::Serve;
    spec.batch = 2;
    spec.sizeScale = 0.35f;
    spec.inflight = 2;
    spec.requests = 24;
    spec.seed = 1234;
    spec.faults =
        "slow:node=encoder:*:p=0.2:x=3;"
        "fail:node=fusion:p=0.3;"
        "drop_modality:mod=image:p=0.25";
    spec.retries = 2;

    const runner::RunResult a = runner::runOne(spec);
    const runner::RunResult b = runner::runOne(spec);
    EXPECT_EQ(a.serve.ok, b.serve.ok);
    EXPECT_EQ(a.serve.degraded, b.serve.degraded);
    EXPECT_EQ(a.serve.failed, b.serve.failed);
    EXPECT_EQ(a.serve.retries, b.serve.retries);
    EXPECT_EQ(a.serve.faultsInjected, b.serve.faultsInjected);
    // The cocktail actually did something on 24 requests.
    EXPECT_GT(a.serve.faultsInjected, 0);
    EXPECT_EQ(a.serve.ok + a.serve.degraded + a.serve.failed,
              a.serve.requests);

    // A different seed re-rolls every decision; with 24 requests and
    // these probabilities a collision of all five counters is
    // overwhelmingly unlikely.
    RunSpec other = spec;
    other.seed = 99;
    const runner::RunResult c = runner::runOne(other);
    EXPECT_TRUE(a.serve.ok != c.serve.ok ||
                a.serve.degraded != c.serve.degraded ||
                a.serve.failed != c.serve.failed ||
                a.serve.retries != c.serve.retries ||
                a.serve.faultsInjected != c.serve.faultsInjected);
}

// ------------------------------------------------ serving-scheduler flags

TEST(RunSpecParse, ServingSchedulerFlagsParseAndRoundTrip)
{
    RunSpec spec;
    std::string error;
    ASSERT_TRUE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "serve", "--arrival",
         "poisson", "--rate", "200", "--max-batch", "8",
         "--batch-wait-us", "250", "--classes",
         "hi:share=1:prio=1;lo:share=3"},
        &spec, &error))
        << error;
    EXPECT_EQ(spec.maxBatch, 8);
    EXPECT_EQ(spec.batchWaitUs, 250);
    EXPECT_EQ(spec.classes, "hi:share=1:prio=1;lo:share=3");

    RunSpec reparsed;
    ASSERT_TRUE(runner::parseRunSpec(spec.toArgs(), &reparsed, &error))
        << error;
    EXPECT_EQ(reparsed.maxBatch, spec.maxBatch);
    EXPECT_EQ(reparsed.batchWaitUs, spec.batchWaitUs);
    EXPECT_EQ(reparsed.classes, spec.classes);
}

TEST(RunSpecParse, DeprecatedPipelineAndBatcherFlagsWarnAndChangeNothing)
{
    // --pipeline and --batcher select nothing any more. Every valid
    // value parses with a deprecation warning and leaves the spec
    // equal to one parsed without the flag; neither flag round-trips.
    const std::vector<std::string> base = {
        "--workload", "transfuser", "--mode", "serve", "--arrival",
        "poisson", "--rate", "400", "--max-batch", "8"};
    RunSpec plain;
    std::string error;
    ASSERT_TRUE(runner::parseRunSpec(base, &plain, &error)) << error;

    const std::vector<std::pair<std::string, std::vector<std::string>>>
        flags = {{"--pipeline", {"on", "off", "true", "false", "1", "0",
                                 "ON"}},
                 {"--batcher", {"static", "continuous", "Continuous"}}};
    for (const auto &flag : flags) {
        for (const std::string &value : flag.second) {
            std::vector<std::string> args = base;
            args.push_back(flag.first);
            args.push_back(value);
            RunSpec spec;
            ::testing::internal::CaptureStderr();
            const bool ok = runner::parseRunSpec(args, &spec, &error);
            const std::string warned =
                ::testing::internal::GetCapturedStderr();
            ASSERT_TRUE(ok) << flag.first << " " << value << ": "
                            << error;
            EXPECT_NE(warned.find(flag.first + " is deprecated"),
                      std::string::npos)
                << flag.first << " " << value << ": " << warned;
            EXPECT_EQ(spec.toArgs(), plain.toArgs())
                << flag.first << " " << value;
            EXPECT_EQ(spec.toString(), plain.toString())
                << flag.first << " " << value;
            for (const std::string &arg : spec.toArgs()) {
                EXPECT_NE(arg, "--pipeline");
                EXPECT_NE(arg, "--batcher");
            }
        }
    }

    // Ignored everywhere: a closed loop or an infer run accepts them.
    RunSpec closed;
    ::testing::internal::CaptureStderr();
    EXPECT_TRUE(runner::parseRunSpec(
        {"--workload", "transfuser", "--mode", "serve", "--pipeline",
         "on", "--batcher", "continuous"},
        &closed, &error))
        << error;
    ::testing::internal::GetCapturedStderr();
    RunSpec infer;
    ::testing::internal::CaptureStderr();
    EXPECT_TRUE(runner::parseRunSpec(
        {"--workload", "transfuser", "--pipeline", "on"}, &infer,
        &error))
        << error;
    ::testing::internal::GetCapturedStderr();

    // A bad value is still an error.
    RunSpec bad;
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "transfuser", "--mode", "serve", "--pipeline",
         "maybe"},
        &bad, &error));
    EXPECT_NE(error.find("--pipeline"), std::string::npos);
    bad = RunSpec();
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "transfuser", "--mode", "serve", "--arrival",
         "poisson", "--rate", "100", "--batcher", "dynamic"},
        &bad, &error));
    EXPECT_NE(error.find("--batcher"), std::string::npos);
}

TEST(RunSpecParse, ServingSchedulerFlagErrors)
{
    RunSpec spec;
    std::string error;

    // A batch hold waits on the open-loop queue.
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "serve", "--batch-wait-us",
         "500"},
        &spec, &error));
    EXPECT_NE(error.find("--batch-wait-us"), std::string::npos);
    EXPECT_NE(error.find("--arrival"), std::string::npos);

    // Classes schedule the open-loop admission queue.
    spec = RunSpec();
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "serve", "--classes",
         "a:share=1"},
        &spec, &error));
    EXPECT_NE(error.find("--classes"), std::string::npos);

    // Class-spec grammar errors surface at parse time.
    spec = RunSpec();
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "serve", "--arrival",
         "poisson", "--rate", "100", "--classes", "a:share=0"},
        &spec, &error));
    EXPECT_NE(error.find("--classes"), std::string::npos);

    // Malformed values.
    spec = RunSpec();
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "serve", "--arrival",
         "poisson", "--rate", "100", "--max-batch", "0"},
        &spec, &error));
    EXPECT_NE(error.find("--max-batch"), std::string::npos);
}

// ----------------------------------------------- per-class result blocks

namespace {

/** Run one spec through the JSONL sink and parse the record back. */
JsonValue
recordFor(const RunSpec &spec, const std::string &tag)
{
    const std::string path =
        ::testing::TempDir() + "/mmbench_test_runner_" + tag + ".jsonl";
    std::remove(path.c_str());
    {
        runner::JsonlSink sink(path);
        std::vector<runner::ResultSink *> sinks = {&sink};
        runner::runOne(spec, sinks);
        sink.flush();
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    std::remove(path.c_str());
    std::string error;
    JsonValue record = JsonValue::parse(line, &error);
    EXPECT_TRUE(error.empty()) << error;
    return record;
}

} // namespace

TEST(Runner, PerClassResultBlocksAggregateTheStream)
{
    RunSpec spec;
    spec.workload = "av-mnist";
    spec.mode = RunMode::Serve;
    spec.batch = 2;
    spec.sizeScale = 0.35f;
    spec.inflight = 2;
    spec.requests = 8;
    spec.arrival = pipeline::ArrivalKind::Fixed;
    spec.rateRps = 400.0;
    spec.classes = "hi:share=1:prio=1;lo:share=3";

    const runner::RunResult result = runner::runOne(spec);
    ASSERT_EQ(result.serve.classes.size(), 2u);
    EXPECT_EQ(result.serve.classes[0].name, "hi");
    EXPECT_EQ(result.serve.classes[0].priority, 1);
    EXPECT_EQ(result.serve.classes[1].name, "lo");
    int requests = 0, ok = 0;
    for (const runner::ClassStats &cs : result.serve.classes) {
        requests += cs.requests;
        ok += cs.ok;
        EXPECT_EQ(cs.requests,
                  cs.ok + cs.degraded + cs.shed + cs.timeouts +
                      cs.failed);
        EXPECT_EQ(cs.latencyUs.count, cs.requests - cs.shed);
    }
    EXPECT_EQ(requests, 8);
    EXPECT_EQ(ok, result.serve.ok);

    // The JSON record carries one row per class.
    const JsonValue record = recordFor(spec, "classes");
    const JsonValue *serve = record.find("serve");
    ASSERT_NE(serve, nullptr);
    const JsonValue *classes = serve->find("classes");
    ASSERT_NE(classes, nullptr);
    ASSERT_EQ(classes->size(), 2u);
    for (size_t i = 0; i < classes->size(); ++i) {
        const JsonValue &row = classes->at(i);
        for (const char *key :
             {"name", "priority", "requests", "ok", "degraded", "shed",
              "timeouts", "failed", "latency_us", "goodput_rps"})
            EXPECT_TRUE(row.has(key)) << key;
    }
    EXPECT_EQ(classes->at(0).find("name")->stringValue(), "hi");
    const JsonValue *spec_json = record.find("spec");
    ASSERT_NE(spec_json, nullptr);
    EXPECT_EQ(spec_json->find("classes")->stringValue(), spec.classes);
}

TEST(Runner, DefaultServeJsonOmitsTheNewSchedulerKeys)
{
    // The default path (no new flags) must keep the historical record
    // byte-compatible: no batch_wait_us / classes keys anywhere. The
    // deprecated --pipeline and --batcher flags leave no trace either:
    // no pipeline / pipelined / batcher key, even when they were passed.
    for (const bool deprecated_flags : {false, true}) {
        std::vector<std::string> args = {
            "--workload", "av-mnist", "--mode", "serve", "--batch", "2",
            "--scale", "0.35", "--inflight", "1", "--requests", "2"};
        if (deprecated_flags)
            args.insert(args.end(), {"--pipeline", "on", "--batcher",
                                     "continuous"});
        RunSpec spec;
        std::string error;
        ::testing::internal::CaptureStderr();
        const bool parsed = runner::parseRunSpec(args, &spec, &error);
        ::testing::internal::GetCapturedStderr();
        ASSERT_TRUE(parsed) << error;

        const JsonValue record = recordFor(
            spec, deprecated_flags ? "deprecated_keys" : "default_keys");
        const JsonValue *serve = record.find("serve");
        ASSERT_NE(serve, nullptr);
        EXPECT_TRUE(serve->has("coalesce")); // historical name, = max batch
        EXPECT_EQ(serve->find("coalesce")->intValue(), 1);
        for (const char *key :
             {"batcher", "pipelined", "pipeline", "classes"})
            EXPECT_FALSE(serve->has(key)) << key;
        const JsonValue *spec_json = record.find("spec");
        ASSERT_NE(spec_json, nullptr);
        EXPECT_TRUE(spec_json->has("coalesce"));
        for (const char *key : {"batcher", "batch_wait_us", "classes",
                                "pipeline", "pipelined"})
            EXPECT_FALSE(spec_json->has(key)) << key;
    }
}

TEST(Runner, BatchWaitServeCompletesEveryRequest)
{
    // Open-loop batching end to end on a multi-encoder workload: a
    // held batch still completes every request Ok, and the record
    // carries the batch cap and hold it ran with.
    RunSpec spec;
    spec.workload = "transfuser";
    spec.mode = RunMode::Serve;
    spec.batch = 2;
    spec.sizeScale = 0.35f;
    spec.inflight = 2;
    spec.requests = 8;
    spec.arrival = pipeline::ArrivalKind::Fixed;
    spec.rateRps = 2000.0;
    spec.maxBatch = 4;
    spec.batchWaitUs = 300;

    const runner::RunResult result = runner::runOne(spec);
    EXPECT_EQ(result.serve.ok, 8);
    EXPECT_EQ(result.serve.failed, 0);
    EXPECT_EQ(result.serve.shed, 0);
    EXPECT_LE(result.serve.batches, 8);

    const JsonValue record = recordFor(spec, "batch_wait");
    const JsonValue *serve = record.find("serve");
    ASSERT_NE(serve, nullptr);
    EXPECT_EQ(serve->find("coalesce")->intValue(), 4);
    const JsonValue *spec_json = record.find("spec");
    ASSERT_NE(spec_json, nullptr);
    EXPECT_EQ(spec_json->find("batch_wait_us")->intValue(), 300);
}

TEST(Runner, CoalesceBatchesSkipsTargetsOnTheServePath)
{
    Rng rng(5);
    std::vector<data::Batch> batches(3);
    for (size_t i = 0; i < batches.size(); ++i) {
        const int64_t rows = static_cast<int64_t>(i) + 1;
        batches[i].modalities.push_back(
            tensor::Tensor::randn({rows, 6}, rng));
        batches[i].modalities.push_back(
            tensor::Tensor::randn({rows, 3}, rng));
        batches[i].targets = tensor::Tensor::randn({rows, 2}, rng);
        batches[i].size = rows;
    }

    // Serve mode: targets are never read, so their concat is skipped.
    const data::Batch lean =
        runner::coalesceBatches(batches, {0, 2}, false);
    EXPECT_FALSE(lean.targets.defined());
    ASSERT_EQ(lean.modalities.size(), 2u);
    EXPECT_EQ(lean.modalities[0].shape()[0], 4);
    EXPECT_EQ(lean.modalities[1].shape()[0], 4);
    EXPECT_EQ(lean.size, 4);

    // Train/eval callers still get the concatenated targets.
    const data::Batch full =
        runner::coalesceBatches(batches, {0, 1, 2}, true);
    ASSERT_TRUE(full.targets.defined());
    EXPECT_EQ(full.targets.shape()[0], 6);
    EXPECT_EQ(full.modalities[0].shape()[0], 6);
    EXPECT_EQ(full.size, 6);
}
