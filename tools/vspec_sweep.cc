/**
 * @file
 * vspec-sweep: run an arbitrary named sweep from the command line on
 * the parallel sweep engine, and emit the results as a text table
 * and/or machine-readable JSON/CSV. The named sweeps are the job
 * lists behind the bench figures and ablations (see
 * vsim/sim/sweep.cc); this tool makes them scriptable without
 * recompiling a bench binary.
 *
 *   vspec-sweep --list
 *   vspec-sweep fig3 --quick --jobs 8
 *   vspec-sweep confidence --json conf.json --csv conf.csv
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "vsim/base/cli.hh"
#include "vsim/base/logging.hh"
#include "vsim/base/stats.hh"
#include "vsim/sim/report.hh"
#include "vsim/sim/run_flags.hh"
#include "vsim/sim/sweep.hh"

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s NAME [options]\n"
                 "       %s --list\n"
                 "  --quick           3 workloads, middle machine only\n"
                 "  --scale N         workload work factor (default: "
                 "built-in)\n"
                 "  --jobs N          sweep worker threads (default: "
                 "one per hardware\n"
                 "                    thread)\n"
                 "  --json PATH       write every cell as JSON\n"
                 "  --csv PATH        write every cell as CSV\n"
                 "  --metrics PATH    write the per-run interval series "
                 "as CSV\n"
                 "  --stacks PATH     write every cell's CPI stack as "
                 "JSON\n"
                 "  --ledger PATH     write every cell's speculation "
                 "ledger as JSON\n"
                 "                    (per-prediction lifecycle "
                 "records)\n"
                 "  --ledger-limit N  emit at most N ledger records per "
                 "cell\n"
                 "  --trace-json PATH write the sweep execution timeline "
                 "as\n"
                 "                    Chrome/Perfetto JSON\n"
                 "  --progress        print one stderr line per finished "
                 "run\n"
                 "  --trace FILE      replace the built-in workload suite "
                 "with a\n"
                 "                    recorded .vst trace (repeatable; "
                 "see vspec-tracegen)\n"
                 "  --shard-jobs N    worker threads per run for shard or "
                 "representative\n"
                 "                    execution (default 1; --jobs stays "
                 "the sweep-level\n"
                 "                    worker count)\n"
                 "run settings, each overriding every run of the sweep "
                 "(--window and\n"
                 "--fetch-width also tag the labels):\n",
                 argv0, argv0);
    std::fputs(vsim::sim::kRunFlagsHelp, stderr);
    std::fputs("named sweeps:\n", stderr);
    for (const auto &s : vsim::sim::namedSweeps())
        std::fprintf(stderr, "  %-18s %s\n", s.name.c_str(),
                     s.description.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vsim;

    std::string name, json_path, csv_path;
    std::string metrics_path, trace_json_path;
    std::string stacks_path, ledger_path;
    std::size_t ledger_limit = 0;
    bool ledger_limit_set = false;
    bool progress = false;
    sim::SweepOptions opt;
    int jobs = sim::SweepRunner::defaultJobs();
    sim::RunFlags run_flags;
    int shard_jobs = 1;
    bool shard_jobs_set = false;

    try {
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            auto is = [arg](const char *flag) {
                return !std::strcmp(arg, flag);
            };
            auto value = [&] { return flagValue(argc, argv, i); };
            if (is("--list")) {
                usage(argv[0]);
                return 0;
            } else if (run_flags.parse(argc, argv, i)) {
                continue;
            } else if (is("--quick")) {
                opt.quick = true;
            } else if (is("--scale")) {
                opt.scale = parsePositiveInt(arg, value());
            } else if (is("--jobs")) {
                jobs = parsePositiveInt(arg, value());
            } else if (is("--json")) {
                json_path = value();
            } else if (is("--csv")) {
                csv_path = value();
            } else if (is("--metrics")) {
                metrics_path = value();
            } else if (is("--stacks")) {
                stacks_path = value();
            } else if (is("--ledger")) {
                ledger_path = value();
            } else if (is("--ledger-limit")) {
                ledger_limit =
                    static_cast<std::size_t>(parsePositiveInt(arg, value()));
                ledger_limit_set = true;
            } else if (is("--trace-json")) {
                trace_json_path = value();
            } else if (is("--progress")) {
                progress = true;
            } else if (is("--trace")) {
                opt.workloads.push_back(sim::traceWorkloadName(value()));
            } else if (is("--shard-jobs")) {
                shard_jobs = parsePositiveInt(arg, value());
                shard_jobs_set = true;
            } else if (arg[0] != '-' && name.empty()) {
                name = arg;
            } else {
                throw FatalError(std::string("unknown flag ") + arg);
            }
        }
        if (name.empty())
            throw FatalError("name a sweep (see --list)");
        if (!metrics_path.empty() && run_flags.metricsInterval == 0)
            throw FatalError("--metrics needs --metrics-interval N");
        if (ledger_limit_set && ledger_path.empty())
            throw FatalError("--ledger-limit needs --ledger PATH");
        run_flags.finish(shard_jobs_set ? "--shard-jobs" : nullptr);
    } catch (const FatalError &err) {
        std::fprintf(stderr, "%s\n", err.what());
        usage(argv[0]);
        return 2;
    }

    try {
        const sim::NamedSweep &spec = sim::sweepByName(name);
        std::vector<sim::SweepJob> sweep_jobs = spec.build(opt);
        for (sim::SweepJob &job : sweep_jobs) {
            run_flags.applyTo(job.cfg);
            // Detailed per-prediction records are part of the jobKey:
            // a ledger-bearing result must not be served from (or to)
            // a run that did not collect records.
            job.cfg.specLedger = !ledger_path.empty();
            // The per-run worker count is an execution resource like
            // --jobs and is not part of the jobKey.
            job.cfg.shardJobs = shard_jobs;
            // Machine-axis overrides change what the builder's label
            // describes, so they leave a visible mark on it.
            if (run_flags.window)
                job.label += " window=" + std::to_string(*run_flags.window);
            if (run_flags.fetchWidth)
                job.label +=
                    " fetch=" + std::to_string(*run_flags.fetchWidth);
        }

        // Spans are always collected: --json reports per-cell
        // wall-clock and simulation rate alongside the stats.
        std::vector<sim::JobSpan> spans;
        run_flags.attachCache();
        sim::SweepRunner runner(jobs);
        runner.setProgress(progress);
        runner.setSpanSink(&spans);
        const std::vector<sim::RunResult> results = runner.run(sweep_jobs);

        std::printf("== sweep %s: %zu runs (%d worker%s) ==\n\n",
                    spec.name.c_str(), sweep_jobs.size(), jobs,
                    jobs == 1 ? "" : "s");
        TextTable table;
        table.setHeader({"label", "workload", "cycles", "IPC",
                         "accuracy %"});
        for (std::size_t i = 0; i < sweep_jobs.size(); ++i) {
            const auto &r = results[i];
            table.addRow(
                {sweep_jobs[i].label, r.workload,
                 std::to_string(r.stats.cycles),
                 TextTable::fmt(r.ipc, 3),
                 sweep_jobs[i].cfg.useValuePrediction
                     ? TextTable::fmt(
                           100.0 * r.stats.predictionAccuracy(), 1)
                     : "-"});
        }
        std::printf("%s", table.render().c_str());

        if (!json_path.empty()) {
            sim::writeFile(json_path,
                           sim::toJson(sweep_jobs, results, spans));
            std::printf("\nwrote %s\n", json_path.c_str());
        }
        if (!csv_path.empty()) {
            sim::writeFile(csv_path, sim::toCsv(sweep_jobs, results));
            std::printf("\nwrote %s\n", csv_path.c_str());
        }
        if (!metrics_path.empty()) {
            sim::writeFile(metrics_path,
                           sim::metricsToCsv(sweep_jobs, results));
            std::printf("\nwrote %s\n", metrics_path.c_str());
        }
        if (!stacks_path.empty()) {
            sim::writeFile(stacks_path,
                           sim::stacksJson(sweep_jobs, results) + "\n");
            std::printf("\nwrote %s\n", stacks_path.c_str());
        }
        if (!ledger_path.empty()) {
            sim::writeFile(
                ledger_path,
                sim::ledgerJson(sweep_jobs, results, ledger_limit)
                    + "\n");
            std::printf("\nwrote %s\n", ledger_path.c_str());
        }
        if (!trace_json_path.empty()) {
            sim::writeFile(trace_json_path,
                           sim::sweepTraceJson(spans) + "\n");
            std::printf("\nwrote %s\n", trace_json_path.c_str());
        }
        return 0;
    } catch (const FatalError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
}
