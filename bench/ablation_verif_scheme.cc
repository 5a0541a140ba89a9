/**
 * @file
 * Ablation A (paper §3.2): compares the four verification approaches —
 * flattened-hierarchical network, hierarchical tag-broadcast wave,
 * retirement-based, and the hybrid — under the great model's latency
 * variables.
 *
 * Two confidence regimes are shown: with *oracle* confidence every
 * eligible instruction is predicted, so dependence chains between
 * unresolved predictions are at most one level deep and hierarchical
 * equals flattened; with *real* confidence speculation is partial,
 * chains of speculatively computed (non-predicted) values grow deeper,
 * and the wave latency of the hierarchical scheme shows. The
 * retirement-based scheme pays the §3.2(a) pitfall of validating only
 * the w oldest instructions per cycle in both regimes.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace vsim;

    const bench::Options opt = bench::parseOptions(argc, argv);
    const bench::SweepResults sweep("verif-scheme", opt);
    const char *const schemes[] = {"flattened", "hierarchical",
                                   "retirement", "hybrid"};

    // (confidence, sweep cell label prefix)
    for (const auto &[conf, prefix] :
         {std::pair{"oracle", "8/48 great I/O "},
          std::pair{"real", "8/48 great I/R "}}) {
        std::printf("== Ablation: verification scheme (8/48, great "
                    "latencies, %s confidence) ==\n\n",
                    conf);
        TextTable table;
        std::vector<std::string> header = {"workload"};
        for (const char *scheme : schemes)
            header.push_back(scheme);
        table.setHeader(header);

        std::vector<std::vector<double>> per_scheme(std::size(schemes));
        for (const std::string &wname : sim::sweepWorkloads(opt.quick)) {
            std::vector<std::string> row = {wname};
            for (std::size_t s = 0; s < std::size(schemes); ++s) {
                const double sp =
                    sweep.speedup("8/48 base",
                                  std::string(prefix) + schemes[s], wname);
                per_scheme[s].push_back(sp);
                row.push_back(TextTable::fmt(sp, 3));
            }
            table.addRow(row);
        }
        std::vector<std::string> mean_row = {"(hmean)"};
        for (const auto &sp : per_scheme)
            mean_row.push_back(TextTable::fmt(harmonicMean(sp), 3));
        table.addRow(mean_row);
        std::printf("%s\n", table.render().c_str());
    }
    return 0;
}
