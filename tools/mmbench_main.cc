/**
 * @file
 * The unified `mmbench` CLI: one binary that lists workloads and
 * experiments, runs explicit RunSpecs against the shared runner with
 * pluggable table/CSV/JSONL sinks, and reproduces every paper
 * figure/table through the experiment registry.
 *
 *   mmbench list [--json]
 *   mmbench run --workload av-mnist [spec flags]
 *               [--json PATH|-] [--csv PATH] [--quiet]
 *   mmbench run --smoke [spec template flags] [--json PATH|-] ...
 *   mmbench fig --id fig06 | --list | --all  [--smoke]
 *               [--json PATH] [--csv PATH]
 *   mmbench help
 *
 * `mmbench help` lists the spec flags, printed from the RunSpec flag
 * table (runner::specFlags()), including which ones take
 * comma-separated sweep lists.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "core/json.hh"
#include "core/logging.hh"
#include "core/table.hh"
#include "models/registry.hh"
#include "runner/experiment.hh"
#include "runner/runner.hh"
#include "runner/runspec.hh"
#include "runner/sink.hh"

using namespace mmbench;

namespace {

int
usage(FILE *to)
{
    std::fprintf(
        to,
        "usage: mmbench <command> [options]\n"
        "\n"
        "commands:\n"
        "  list [--json]           registered workloads and experiments\n"
        "  run  [spec flags]       run RunSpecs on the shared runner; "
        "lists on\n"
        "                          X[,X...] flags sweep the cross-product\n");
    for (const runner::SpecFlag &flag : runner::specFlags())
        std::fprintf(to, "       %-18s %s\n",
                     (std::string(flag.name) + " " + flag.value).c_str(),
                     flag.help);
    std::fprintf(
        to,
        "       --json PATH        append JSON Lines results ('-' = "
        "stdout)\n"
        "       --csv PATH         write CSV results\n"
        "       --quiet            suppress the table output\n"
        "       --smoke            one tiny spec per workload; other\n"
        "                          spec flags act as the template\n"
        "  fig  --id ID            run one registered experiment\n"
        "       --list             list experiment ids\n"
        "       --all              run every experiment\n"
        "       --smoke            tiny geometry for experiments that\n"
        "                          support it (e.g. --id load)\n"
        "       --slo-ms X         p99 latency SLO: the load experiment\n"
        "                          reports the max offered rate whose\n"
        "                          measured p99 stays under X ms\n"
        "       --json PATH        also write tables as JSONL records\n"
        "       --csv PATH         also write tables as long-format CSV\n"
        "  help                    this message\n");
    return to == stdout ? 0 : 2;
}

int
cmdList(const std::vector<std::string> &args)
{
    bool as_json = false;
    for (const std::string &arg : args) {
        if (arg == "--json") {
            as_json = true;
        } else {
            std::fprintf(stderr, "mmbench list: unknown flag '%s'\n",
                         arg.c_str());
            return 2;
        }
    }

    const auto workloads = models::WorkloadRegistry::instance().entries();
    const auto experiments = runner::ExperimentRegistry::instance().list();

    if (as_json) {
        core::JsonValue doc = core::JsonValue::object();
        core::JsonValue wl = core::JsonValue::array();
        for (const models::WorkloadEntry *entry : workloads) {
            core::JsonValue row = core::JsonValue::object();
            row.set("name", entry->name);
            row.set("description", entry->description);
            row.set("default_fusion",
                    fusion::fusionKindName(entry->defaultFusion));
            wl.push(std::move(row));
        }
        doc.set("workloads", std::move(wl));
        core::JsonValue ex = core::JsonValue::array();
        for (const runner::Experiment *experiment : experiments) {
            core::JsonValue row = core::JsonValue::object();
            row.set("id", experiment->id);
            row.set("title", experiment->title);
            ex.push(std::move(row));
        }
        doc.set("experiments", std::move(ex));
        std::printf("%s\n", doc.dump().c_str());
        return 0;
    }

    TextTable wl({"Workload", "Default fusion", "Description"});
    for (const models::WorkloadEntry *entry : workloads) {
        wl.addRow({entry->name,
                   fusion::fusionKindName(entry->defaultFusion),
                   entry->description});
    }
    std::printf("workloads (%zu):\n", workloads.size());
    wl.print(std::cout);

    TextTable ex({"Experiment", "Title"});
    for (const runner::Experiment *experiment : experiments)
        ex.addRow({experiment->id, experiment->title});
    std::printf("\nexperiments (%zu):\n", experiments.size());
    ex.print(std::cout);
    return 0;
}

int
cmdRun(const std::vector<std::string> &args)
{
    std::vector<std::string> spec_args;
    std::string json_path, csv_path;
    bool quiet = false, smoke = false;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--json" || arg == "--csv") {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr,
                             "mmbench run: '%s' is missing its value\n",
                             arg.c_str());
                return 2;
            }
            (arg == "--json" ? json_path : csv_path) = args[++i];
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--smoke") {
            smoke = true;
        } else {
            spec_args.push_back(arg);
        }
    }

    std::vector<std::unique_ptr<runner::ResultSink>> owned;
    std::vector<runner::ResultSink *> sinks;
    if (!quiet) {
        owned.push_back(
            std::make_unique<runner::TableSink>(std::cout));
        sinks.push_back(owned.back().get());
    }
    if (!csv_path.empty()) {
        owned.push_back(std::make_unique<runner::CsvSink>(csv_path));
        sinks.push_back(owned.back().get());
    }
    if (!json_path.empty()) {
        owned.push_back(std::make_unique<runner::JsonlSink>(json_path));
        sinks.push_back(owned.back().get());
    }

    if (smoke) {
        // Remaining spec flags become the template every smoke spec
        // starts from (e.g. --mode serve --inflight 4).
        runner::RunSpec base;
        std::string error;
        if (!runner::parseRunSpecTemplate(spec_args, &base, &error)) {
            std::fprintf(stderr, "mmbench run: %s\n", error.c_str());
            return 2;
        }
        if (!base.workload.empty()) {
            std::fprintf(stderr,
                         "mmbench run --smoke covers every workload; "
                         "drop --workload\n");
            return 2;
        }
        runner::runSmoke(sinks, &base);
    } else {
        std::vector<runner::RunSpec> specs;
        std::string error;
        if (!runner::parseRunSpecs(spec_args, &specs, &error)) {
            std::fprintf(stderr, "mmbench run: %s\n", error.c_str());
            return 2;
        }
        for (const runner::RunSpec &spec : specs)
            runner::runOne(spec, sinks);
    }
    for (runner::ResultSink *sink : sinks)
        sink->flush();
    if (!quiet && !json_path.empty() && json_path != "-")
        std::printf("# json written to %s\n", json_path.c_str());
    if (!quiet && !csv_path.empty())
        std::printf("# csv written to %s\n", csv_path.c_str());
    return 0;
}

int
cmdFig(const std::vector<std::string> &args)
{
    std::string id, json_path, csv_path;
    bool list = false, all = false, smoke = false;
    double slo_ms = 0.0;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--id" || arg == "--json" || arg == "--csv" ||
            arg == "--slo-ms") {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr,
                             "mmbench fig: '%s' is missing its value\n",
                             arg.c_str());
                return 2;
            }
            const std::string &value = args[++i];
            if (arg == "--id") {
                id = value;
            } else if (arg == "--json") {
                json_path = value;
            } else if (arg == "--slo-ms") {
                char *end = nullptr;
                slo_ms = std::strtod(value.c_str(), &end);
                if (end == value.c_str() || *end != '\0' ||
                    slo_ms <= 0.0) {
                    std::fprintf(stderr,
                                 "mmbench fig: --slo-ms needs a "
                                 "positive number, got '%s'\n",
                                 value.c_str());
                    return 2;
                }
            } else {
                csv_path = value;
            }
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--all") {
            all = true;
        } else if (arg == "--smoke") {
            smoke = true;
        } else {
            std::fprintf(stderr, "mmbench fig: unknown flag '%s'\n",
                         arg.c_str());
            return 2;
        }
    }

    const auto &registry = runner::ExperimentRegistry::instance();
    if (list) {
        for (const runner::Experiment *experiment : registry.list())
            std::printf("%-24s %s\n", experiment->id.c_str(),
                        experiment->title.c_str());
        return 0;
    }

    // Validate the invocation fully before touching the output
    // files: setFigOutput truncates them, and a typo in --id must not
    // destroy previously collected results.
    const runner::Experiment *experiment = nullptr;
    if (!all) {
        if (id.empty()) {
            std::fprintf(
                stderr,
                "mmbench fig: expected --id <id>, --list or --all\n");
            return 2;
        }
        experiment = registry.find(id);
        if (!experiment) {
            std::fprintf(stderr,
                         "mmbench fig: unknown experiment '%s' "
                         "(try: mmbench fig --list)\n", id.c_str());
            return 2;
        }
    }

    // Route every table the experiments emit through the shared
    // JSONL/CSV result formats as well as stdout.
    benchutil::setFigOutput(json_path, csv_path);
    benchutil::setSmokeMode(smoke);
    benchutil::setSloMs(slo_ms);
    auto run_experiment = [](const runner::Experiment *e) {
        benchutil::setCurrentExperiment(e->id);
        return e->run();
    };

    if (all) {
        int rc = 0;
        for (const runner::Experiment *e : registry.list())
            rc |= run_experiment(e);
        return rc;
    }
    return run_experiment(experiment);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(stderr);
    const std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    if (command == "list")
        return cmdList(args);
    if (command == "run")
        return cmdRun(args);
    if (command == "fig" || command == "experiment")
        return cmdFig(args);
    if (command == "help" || command == "--help" || command == "-h")
        return usage(stdout);
    std::fprintf(stderr, "mmbench: unknown command '%s'\n",
                 command.c_str());
    return usage(stderr);
}
