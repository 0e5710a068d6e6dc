/**
 * @file
 * mmbench_perf: the benchmark program behind benchmark/run.sh.
 *
 *   mmbench_perf [--workload NAME|all] [--seed N] [--seconds S]
 *                [--trace [0|1]] [--quick] [--out DIR] [--commit SHA]
 *   mmbench_perf --write-reference [--workload NAME|all]
 *
 * End-to-end mode (the default) runs each workload's warm-up round and
 * four measured rounds with tracing off and prints the end-to-end
 * metrics. --trace runs a short end-to-end section for the serve-layer
 * numbers and then the traced per-layer pass, and writes
 * <out>/trace.json. Every run appends its full record to
 * <out>/records.jsonl; the last line of standard output is a JSON
 * summary {correct, attempted, failed, metrics}. The exit status is 1
 * when an output check failed, 2 on bad arguments.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hh"

using namespace perfbench;

namespace {

int
usage(FILE *to)
{
    std::fprintf(
        to,
        "usage: mmbench_perf [--workload NAME|all] [--seed N] "
        "[--seconds S]\n"
        "                    [--trace [0|1]] [--quick] [--out DIR] "
        "[--commit SHA]\n"
        "       mmbench_perf --write-reference [--workload NAME|all]\n"
        "workloads:");
    for (const WorkloadDef &def : workloads())
        std::fprintf(to, " %s", def.name.c_str());
    std::fprintf(to, "\n");
    return 2;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned int i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string brand(reinterpret_cast<const char *>(regs),
                          sizeof(regs));
        brand = brand.substr(0, brand.find('\0'));
        const size_t first = brand.find_first_not_of(' ');
        if (first != std::string::npos)
            return brand.substr(first, brand.find_last_not_of(' ') -
                                           first + 1);
    }
#endif
    return "unknown";
}

/** All digits of a measured value (JSON has no inf/nan). */
std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

JsonValue
metricsJson(const std::vector<Metric> &metrics, const RoundTable *rounds)
{
    JsonValue out = JsonValue::object();
    for (const Metric &m : metrics) {
        JsonValue entry = JsonValue::object();
        entry.set("value", m.value);
        entry.set("unit", m.unit);
        if (rounds && rounds->count(m.name))
            entry.set("round_iqr_share", relativeIqr(rounds->at(m.name)));
        out.set(m.name, entry);
    }
    return out;
}

JsonValue
tableJson(const RoundTable &table)
{
    JsonValue out = JsonValue::object();
    for (const auto &[key, values] : table)
        out.set(key, toJson(values));
    return out;
}

void
printMetrics(const std::vector<Metric> &metrics, const RoundTable *rounds)
{
    for (const Metric &m : metrics) {
        std::printf("  %-30s %14.6g %-10s", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (rounds && rounds->count(m.name)) {
            const std::vector<double> &v = rounds->at(m.name);
            std::printf(" iqr %5.1f%%  rounds", 100.0 * relativeIqr(v));
            for (double x : v)
                std::printf(" %.4g", x);
        }
        std::printf("\n");
    }
}

void
printClasses(const JsonValue &detail)
{
    const JsonValue *classes = detail.find("classes");
    if (!classes)
        return;
    std::printf("  %-10s %10s %10s %10s %10s %10s\n", "class", "ms",
                "share", "sim share", "GFLOP/s", "GB/s");
    for (size_t i = 0; i < classes->size(); ++i) {
        const JsonValue &row = classes->at(i);
        std::printf("  %-10s %10.4f %10.3f %10.3f %10.3f %10.3f\n",
                    row.find("class")->stringValue().c_str(),
                    row.find("ms")->numberValue(),
                    row.find("share")->numberValue(),
                    row.find("sim_share")->numberValue(),
                    row.find("gflops")->numberValue(),
                    row.find("gbps")->numberValue());
    }
    const JsonValue *ops = detail.find("top_ops");
    for (size_t i = 0; ops && i < ops->size(); ++i)
        std::printf("  op.top%zu = %s (%.4f ms)\n", i + 1,
                    ops->at(i).find("name")->stringValue().c_str(),
                    ops->at(i).find("ms")->numberValue());
}

bool
parseArgs(int argc, char **argv, Options *opt, std::string *workload,
          bool *write_reference)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        char *end = nullptr;
        if (arg == "--workload" && has_value) {
            *workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            const char *text = argv[++i];
            opt->seed = std::strtoull(text, &end, 10);
            if (*text == '\0' || *text == '-' || *end != '\0')
                return false;
        } else if (arg == "--seconds" && has_value) {
            opt->seconds = std::strtod(argv[++i], &end);
            if (*end != '\0' || !(opt->seconds > 0.0) ||
                opt->seconds > 600.0)
                return false;
        } else if (arg == "--trace") {
            opt->trace = true;
            if (has_value && (std::string(argv[i + 1]) == "0" ||
                              std::string(argv[i + 1]) == "1"))
                opt->trace = std::string(argv[++i]) == "1";
        } else if (arg == "--quick") {
            opt->quick = true;
        } else if (arg == "--out" && has_value) {
            opt->out = argv[++i];
        } else if (arg == "--commit" && has_value) {
            opt->commit = argv[++i];
        } else if (arg == "--write-reference") {
            *write_reference = true;
        } else {
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string workload = "all";
    bool write_reference = false;
    if (!parseArgs(argc, argv, &opt, &workload, &write_reference))
        return usage(stderr);
    std::vector<const WorkloadDef *> selected;
    for (const WorkloadDef &def : workloads()) {
        if (workload == "all" || workload == def.name)
            selected.push_back(&def);
    }
    if (selected.empty())
        return usage(stderr);

    if (write_reference) {
        if (!writeReference(selected)) {
            std::fprintf(stderr, "cannot write %s\n", kReferencePath);
            return 1;
        }
        std::printf("wrote %s\n", kReferencePath);
        return 0;
    }

    std::error_code ec;
    std::filesystem::create_directories(opt.out, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create %s: %s\n", opt.out.c_str(),
                     ec.message().c_str());
        return 2;
    }

    // Context every record carries: a slow window shows up here and in
    // the warm-up round rather than being silently absorbed.
    const double effective_cores = measureEffectiveCores(opt.quick);
    JsonValue context = JsonValue::object();
    context.set("schema", "mmbench-perf-v1");
    context.set("seed", static_cast<int64_t>(opt.seed));
    context.set("commit", opt.commit);
    context.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
    context.set("cpu", cpuModel());
    context.set("host.effective_cores", effective_cores);
    context.set("seconds", opt.seconds);
    context.set("quick", opt.quick);
    context.set("trace", opt.trace);

    ChromeTrace chrome;
    bool correct = true;
    int64_t attempted = 0, failed = 0;
    std::vector<std::pair<std::string, Metric>> summary;
    std::ofstream records(opt.out + "/records.jsonl", std::ios::app);
    for (size_t w = 0; w < selected.size(); ++w) {
        const WorkloadDef &def = *selected[w];
        std::printf("== %s (%s)\n", def.name.c_str(), def.why.c_str());
        std::fflush(stdout);
        JsonValue record = context;
        record.set("workload", def.name);
        record.set("model", def.model);

        std::vector<Metric> metrics;
        E2EResult e2e;
        if (!opt.trace) {
            // A discarded warm-up round (the first run after idle has a
            // collapsed tail), then four measured rounds.
            e2e = runEndToEnd(def, opt,
                              opt.quick ? RoundPlan{1, 1.0, 0.0}
                                        : RoundPlan{4, 0.225 * opt.seconds,
                                                    0.1 * opt.seconds});
            metrics = e2e.metrics;
            printMetrics(metrics, &e2e.rounds);
            record.set("metrics", metricsJson(metrics, &e2e.rounds));
        } else {
            const int pid = static_cast<int>(w) + 1;
            chrome.processName(pid, def.name);
            // A short end-to-end section gives the serve-layer numbers.
            e2e = runEndToEnd(def, opt,
                              opt.quick ? RoundPlan{1, 0.5, 0.0}
                                        : RoundPlan{1, 0.2 * opt.seconds,
                                                    0.1 * opt.seconds});
            const TracedResult traced = runTraced(
                def, opt, opt.quick ? 1.0 : 0.6 * opt.seconds, &chrome, pid);
            metrics = e2e.layers;
            metrics.insert(metrics.end(), traced.metrics.begin(),
                           traced.metrics.end());
            metrics.push_back(
                {"host.effective_cores", "cores", effective_cores});
            printMetrics(metrics, nullptr);
            printClasses(traced.detail);
            record.set("metrics", metricsJson(metrics, nullptr));
            record.set("traced", traced.detail);
        }
        record.set("rounds", tableJson(e2e.rounds));
        record.set("warmup", tableJson(e2e.warmup));
        record.set("setups", toJson(e2e.setups));
        // Failed, shed and timed-out requests plus failed output checks.
        const int64_t run_failed =
            e2e.failed + static_cast<int64_t>(e2e.failures.size());
        record.set("attempted", e2e.attempted);
        record.set("failed", run_failed);
        JsonValue failures = JsonValue::array();
        for (const std::string &f : e2e.failures) {
            failures.push(f);
            std::printf("  CHECK FAILED: %s\n", f.c_str());
        }
        record.set("check_failures", failures);
        record.set("correct", e2e.failures.empty());
        records << record.dump() << "\n";
        std::fflush(stdout);

        correct = correct && e2e.failures.empty();
        attempted += e2e.attempted;
        failed += run_failed;
        for (const Metric &m : metrics)
            summary.push_back(
                {selected.size() == 1 ? m.name : def.name + "/" + m.name,
                 m});
    }
    if (opt.trace && !chrome.write(opt.out + "/trace.json"))
        std::fprintf(stderr, "cannot write %s/trace.json\n",
                     opt.out.c_str());

    std::string line = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < summary.size(); ++i) {
        const Metric &m = summary[i].second;
        line += (i ? ", \"" : "\"") + JsonValue::escape(summary[i].first) +
                "\": {\"value\": " + number(m.value) + ", \"unit\": \"" +
                JsonValue::escape(m.unit) + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return correct ? 0 : 1;
}
