/**
 * @file
 * vspec-run: command-line driver for the cycle-level simulator. Runs
 * a built-in workload or a VRISC assembly file on a configurable
 * machine, with or without value speculation, and prints the full
 * statistics block. Workload runs go through the sweep engine's
 * process-wide run cache, so repeated configurations inside one
 * invocation are simulated once.
 *
 *   vspec-run --workload m88k --model great --conf real --timing D
 *   vspec-run --asm prog.s --width 16 --window 96 --model super
 *   vspec-run --trace queens.vst --window 512     # replay a recording
 *   vspec-run --workload queens --base --pipeline # pipeline diagram
 *   vspec-run --workload queens --json run.json   # or --json to stdout
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "vsim/assembler/assembler.hh"
#include "vsim/base/cli.hh"
#include "vsim/base/logging.hh"
#include "vsim/core/ooo_core.hh"
#include "vsim/obs/cpi.hh"
#include "vsim/obs/interval.hh"
#include "vsim/obs/trace_export.hh"
#include "vsim/sim/report.hh"
#include "vsim/sim/run_flags.hh"
#include "vsim/sim/simulator.hh"
#include "vsim/sim/sweep.hh"
#include "vsim/workloads/workloads.hh"

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s (--workload NAME | --asm FILE | --trace FILE) "
        "[options]\n"
        "  --workload NAME   one of:",
        argv0);
    for (const auto &w : vsim::workloads::all())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fputs(
        "\n"
        "  --asm FILE        assemble and run a VRISC .s file (not\n"
        "                    cached)\n"
        "  --trace FILE      replay a recorded .vst instruction trace\n"
        "                    (see vspec-tracegen); decode-free and\n"
        "                    digest-identical to direct simulation\n"
        "  --scale N         workload work factor (default: built-in)\n"
        "  --width N         issue width (1..512, default 8; the\n"
        "                    window defaults to 48)\n"
        "  --base            disable value prediction (default;\n"
        "                    --model enables it)\n",
        stderr);
    std::fputs(vsim::sim::kRunFlagsHelp, stderr);
    std::fputs(
        "  --conf C          real|oracle|always (default real)\n"
        "  --conf-table-bits N\n"
        "                    log2 confidence-table entries (1..24,\n"
        "                    default 16)\n"
        "  --timing T        D|I  delayed/immediate update (default D)\n"
        "  --predictor P     fcm|last-value|stride|hybrid (default fcm)\n"
        "  --pipeline [A:B]  print the pipeline diagram for cycles\n"
        "                    A..B (default 0:200; not cached)\n"
        "  --trace-retain N  keep only the youngest N instructions in\n"
        "                    the pipeline trace (bounds memory)\n"
        "  --trace-json PATH write the pipeline trace as Chrome/\n"
        "                    Perfetto trace_event JSON (not cached)\n"
        "  --metrics PATH    write the interval time series as CSV\n"
        "  --counters [PATH] write the full counter/histogram registry\n"
        "                    as JSON to PATH, or print a text listing\n"
        "                    (with p50/p90/p99 per histogram) if no\n"
        "                    PATH is given\n"
        "  --stacks [PATH]   CPI stack (every cycle charged to one\n"
        "                    category): JSON to PATH, or a text table\n"
        "                    after the stats block if no PATH is given\n"
        "  --ledger PATH     write the speculation ledger (lifecycle\n"
        "                    of every value prediction) as JSON\n"
        "  --ledger-limit N  emit at most N ledger records (default:\n"
        "                    all; the JSON flags truncation)\n"
        "  --jobs N          worker threads executing shards or\n"
        "                    sample representatives (default 1)\n"
        "  --progress        print a completion line to stderr\n"
        "  --json [PATH]     emit the statistics as one JSON object\n"
        "                    (to PATH if given, else stdout)\n",
        stderr);
}

/** The operand after argv[i] unless it is a flag; advances @p i. */
const char *
optionalValue(int argc, char **argv, int &i)
{
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
        return argv[++i];
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vsim;

    std::string workload, asm_file, trace_file, json_path;
    std::string metrics_path, counters_path, trace_json_path;
    std::string stacks_path, ledger_path;
    int scale = -1;
    std::size_t ledger_limit = 0;
    bool ledger_limit_set = false;
    bool pipeline = false;
    bool jobs_set = false;
    bool json = false;
    bool counters = false;
    bool stacks = false;
    bool progress = false;
    std::uint64_t pipeline_from = 0, pipeline_to = 200;
    sim::RunFlags run_flags;
    core::CoreConfig cfg;
    cfg.issueWidth = 8;
    cfg.windowSize = 48;

    try {
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            auto is = [arg](const char *name) {
                return !std::strcmp(arg, name);
            };
            auto value = [&] { return flagValue(argc, argv, i); };
            if (is("--workload")) {
                workload = value();
            } else if (is("--asm")) {
                asm_file = value();
            } else if (is("--trace")) {
                trace_file = value();
            } else if (is("--scale")) {
                scale = parsePositiveInt(arg, value());
            } else if (is("--width")) {
                cfg.issueWidth =
                    parsePositiveInt(arg, value(), core::kMaxWindow);
            } else if (is("--base")) {
                cfg.useValuePrediction = false;
            } else if (run_flags.parse(argc, argv, i)) {
                // --model also turns value prediction on; a later
                // --base turns it off again.
                if (is("--model"))
                    cfg.useValuePrediction = true;
            } else if (is("--conf-table-bits")) {
                cfg.confidenceTableBits = parsePositiveInt(arg, value(), 24);
            } else if (is("--conf")) {
                const std::string c = value();
                if (c == "real")
                    cfg.confidence = core::ConfidenceKind::Real;
                else if (c == "oracle")
                    cfg.confidence = core::ConfidenceKind::Oracle;
                else if (c == "always")
                    cfg.confidence = core::ConfidenceKind::Always;
                else
                    throw FatalError("bad --conf " + c);
            } else if (is("--timing")) {
                const std::string t = value();
                if (t == "D")
                    cfg.updateTiming = core::UpdateTiming::Delayed;
                else if (t == "I")
                    cfg.updateTiming = core::UpdateTiming::Immediate;
                else
                    throw FatalError("bad --timing " + t);
            } else if (is("--predictor")) {
                cfg.valuePredictor = value();
            } else if (is("--pipeline")) {
                pipeline = true;
                // Optional A:B cycle-window operand.
                if (const char *w = optionalValue(argc, argv, i)) {
                    const std::string bad =
                        std::string("--pipeline window must be A:B, "
                                    "got '") + w + "'";
                    char *end = nullptr;
                    errno = 0;
                    const unsigned long long a =
                        std::strtoull(w, &end, 10);
                    if (errno == ERANGE || end == w || *end != ':')
                        throw FatalError(bad);
                    const char *btext = end + 1;
                    errno = 0;
                    const unsigned long long b =
                        std::strtoull(btext, &end, 10);
                    if (errno == ERANGE || end == btext || *end != '\0'
                        || b < a)
                        throw FatalError(bad);
                    pipeline_from = a;
                    pipeline_to = b;
                }
            } else if (is("--trace-retain")) {
                cfg.traceRetain =
                    static_cast<std::size_t>(parsePositiveInt(arg, value()));
            } else if (is("--trace-json")) {
                trace_json_path = value();
            } else if (is("--metrics")) {
                metrics_path = value();
            } else if (is("--counters")) {
                counters = true;
                if (const char *path = optionalValue(argc, argv, i))
                    counters_path = path;
            } else if (is("--stacks")) {
                stacks = true;
                if (const char *path = optionalValue(argc, argv, i))
                    stacks_path = path;
            } else if (is("--ledger")) {
                ledger_path = value();
            } else if (is("--ledger-limit")) {
                ledger_limit =
                    static_cast<std::size_t>(parsePositiveInt(arg, value()));
                ledger_limit_set = true;
            } else if (is("--jobs")) {
                cfg.shardJobs = parsePositiveInt(arg, value());
                jobs_set = true;
            } else if (is("--progress")) {
                progress = true;
            } else if (is("--json")) {
                json = true;
                if (const char *path = optionalValue(argc, argv, i))
                    json_path = path;
            } else {
                throw FatalError(std::string("unknown flag ") + arg);
            }
        }
        const int sources = (workload.empty() ? 0 : 1)
                            + (asm_file.empty() ? 0 : 1)
                            + (trace_file.empty() ? 0 : 1);
        if (sources != 1)
            throw FatalError("give exactly one of --workload, --asm "
                             "and --trace");
        if (!metrics_path.empty() && run_flags.metricsInterval == 0)
            throw FatalError("--metrics needs --metrics-interval N");
        if (ledger_limit_set && ledger_path.empty())
            throw FatalError("--ledger-limit needs --ledger PATH");
        run_flags.finish(jobs_set ? "--jobs" : nullptr);
        if (run_flags.sharded() && !asm_file.empty())
            throw FatalError("sharded/sampled runs support --workload "
                             "and --trace only, not --asm");
        if (run_flags.sharded() && (pipeline || !trace_json_path.empty()))
            throw FatalError("pipeline tracing needs a single monolithic "
                             "core; drop --shards/--interval-insts/"
                             "--sample");
    } catch (const FatalError &err) {
        std::fprintf(stderr, "%s\n", err.what());
        usage(argv[0]);
        return 2;
    }
    run_flags.applyTo(cfg);
    const bool trace_json = !trace_json_path.empty();
    cfg.tracePipeline = pipeline || trace_json;
    // Detailed per-prediction records are collected only on request —
    // the flag is part of the run's cache identity.
    cfg.specLedger = !ledger_path.empty();

    try {
        if (asm_file.empty() && !cfg.tracePipeline)
            run_flags.attachCache();
        sim::RunResult r;
        std::string pipeline_text;
        obs::TraceWriter trace_writer;

        if (asm_file.empty() && !cfg.tracePipeline) {
            // Workload and trace-replay runs go through the sweep
            // engine's run cache, driven by a single-job SweepRunner
            // so --progress shares the sweep machinery (results are
            // identical either way).
            sim::SweepJob job;
            job.label = sim::configLabel(cfg);
            job.workload = trace_file.empty()
                               ? workload
                               : sim::traceWorkloadName(trace_file);
            job.scale = scale;
            job.cfg = cfg;
            sim::SweepRunner runner(1, &sim::RunCache::process());
            runner.setProgress(progress);
            r = runner.run({job}).front();
        } else {
            std::unique_ptr<core::OooCore> core;
            if (asm_file.empty()) {
                r.workload = trace_file.empty()
                                 ? workload
                                 : sim::traceWorkloadName(trace_file);
                const sim::WorkloadInput in =
                    sim::loadWorkload(r.workload, scale);
                core = std::make_unique<core::OooCore>(in.program,
                                                       in.trace, cfg);
            } else {
                std::ifstream in(asm_file);
                if (!in) {
                    std::fprintf(stderr, "cannot open %s\n",
                                 asm_file.c_str());
                    return 1;
                }
                std::ostringstream ss;
                ss << in.rdbuf();
                core = std::make_unique<core::OooCore>(
                    assembler::assemble(ss.str(), asm_file), cfg);
                r.workload = asm_file;
            }
            const core::SimOutcome out = core->run();
            r.stats = out.stats;
            r.instructions = out.stats.retired;
            r.ipc = out.stats.ipc();
            r.exitCode = out.exitCode;
            r.output = out.output;
            r.intervals = out.intervals;
            r.ledger = out.ledger;
            if (pipeline) {
                pipeline_text =
                    core->tracer().render(pipeline_from, pipeline_to);
            }
            if (trace_json)
                core->tracer().exportTo(trace_writer);
            if (progress)
                logLine("[1/1] " + sim::configLabel(cfg) + " ("
                        + r.workload + ")");
        }
        const core::CoreStats &s = r.stats;

        if (!metrics_path.empty()) {
            std::ostringstream csv;
            csv << obs::IntervalSeries::csvHeader("");
            r.intervals.appendCsv(csv, "");
            sim::writeFile(metrics_path, csv.str());
        }
        if (!counters_path.empty())
            sim::writeFile(counters_path, sim::countersJson(r) + "\n");
        if (!stacks_path.empty())
            sim::writeFile(stacks_path, sim::stacksJson(r) + "\n");
        if (!ledger_path.empty()) {
            sim::writeFile(ledger_path,
                           sim::ledgerJson(r, ledger_limit) + "\n");
        }
        if (trace_json) {
            // Overlay the interval IPC and the per-interval CPI stack
            // as Perfetto counter tracks.
            for (const obs::IntervalSample &iv : r.intervals.samples) {
                trace_writer.counter(
                    "ipc", iv.cycleStart, 1,
                    {{"ipc", obs::TraceWriter::num(iv.ipc())}});
                obs::TraceWriter::Args cpi_args;
                for (std::size_t c = 0; c < obs::kCpiCatCount; ++c) {
                    cpi_args.emplace_back(
                        obs::cpiCatName(static_cast<obs::CpiCat>(c)),
                        obs::TraceWriter::num(iv.cpi.cycles[c]));
                }
                trace_writer.counter("cpi_stack", iv.cycleStart, 1,
                                     std::move(cpi_args));
            }
            sim::writeFile(trace_json_path,
                           trace_writer.toJson() + "\n");
        }

        if (json) {
            const std::string js = sim::toJson(r) + "\n";
            if (json_path.empty())
                std::printf("%s", js.c_str());
            else
                sim::writeFile(json_path, js);
            return 0;
        }

        if (!r.output.empty())
            std::printf("program output: %s\n", r.output.c_str());
        std::printf("exit code      : %llu\n",
                    static_cast<unsigned long long>(r.exitCode));
        std::printf("cycles         : %llu\n",
                    static_cast<unsigned long long>(s.cycles));
        std::printf("instructions   : %llu (IPC %.3f)\n",
                    static_cast<unsigned long long>(s.retired),
                    s.ipc());
        std::printf("loads/stores   : %llu / %llu (%llu forwarded)\n",
                    static_cast<unsigned long long>(s.retiredLoads),
                    static_cast<unsigned long long>(s.retiredStores),
                    static_cast<unsigned long long>(s.loadsForwarded));
        std::printf("cond branches  : %llu (%.2f%% mispredicted)\n",
                    static_cast<unsigned long long>(s.condBranches),
                    s.condBranches
                        ? 100.0
                              * static_cast<double>(s.condMispredicts)
                              / static_cast<double>(s.condBranches)
                        : 0.0);
        std::printf("cache misses   : %llu icache, %llu dcache\n",
                    static_cast<unsigned long long>(s.icacheMisses),
                    static_cast<unsigned long long>(s.dcacheMisses));
        if (cfg.useValuePrediction) {
            std::printf(
                "value pred     : %llu eligible, accuracy %.1f%% "
                "(CH %llu CL %llu IH %llu IL %llu)\n",
                static_cast<unsigned long long>(s.vpEligible),
                100.0 * s.predictionAccuracy(),
                static_cast<unsigned long long>(s.vpCH),
                static_cast<unsigned long long>(s.vpCL),
                static_cast<unsigned long long>(s.vpIH),
                static_cast<unsigned long long>(s.vpIL));
            std::printf(
                "speculation    : %llu verified, %llu invalidated, "
                "%llu nullified, %llu reissued\n",
                static_cast<unsigned long long>(s.verifyEvents),
                static_cast<unsigned long long>(s.invalidateEvents),
                static_cast<unsigned long long>(s.nullifications),
                static_cast<unsigned long long>(s.reissues));
        }
        if (stacks && stacks_path.empty())
            std::printf("\n%s", sim::stacksText(r).c_str());
        if (counters && counters_path.empty())
            std::printf("\n%s", sim::countersText(r).c_str());
        if (pipeline)
            std::printf("\n%s", pipeline_text.c_str());
        return 0;
    } catch (const FatalError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
}
