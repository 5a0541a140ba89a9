/**
 * @file
 * Ablation C (paper §6): the Invalidation–Reissue latency swept 0–4
 * under *always* confidence — every prediction is speculated on, so
 * misspeculation is frequent and the reissue path is exposed. The
 * paper observed that with real confidence the 1-cycle reissue of the
 * great model is "underutilized" because misspeculation is rare, and
 * conjectured the gap would widen with more misspeculation; this
 * experiment realises that conjecture.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace vsim;

    const bench::Options opt = bench::parseOptions(argc, argv);
    const bench::SweepResults sweep("reissue-latency", opt);
    const int lats[] = {0, 1, 2, 4};

    for (const char *conf : {"always", "real"}) {
        std::printf("== Ablation: Invalidation-Reissue latency sweep "
                    "(8/48, %s confidence, immediate update) ==\n\n",
                    conf);
        TextTable table;
        table.setHeader({"workload", "lat=0", "lat=1", "lat=2",
                         "lat=4"});

        std::vector<std::vector<double>> per_lat(4);
        for (const std::string &wname : sim::sweepWorkloads(opt.quick)) {
            std::vector<std::string> row = {wname};
            for (std::size_t i = 0; i < 4; ++i) {
                const double sp = sweep.speedup(
                    "8/48 base",
                    std::string("8/48 ") + conf + " reissue-lat="
                        + std::to_string(lats[i]),
                    wname);
                per_lat[i].push_back(sp);
                row.push_back(TextTable::fmt(sp, 3));
            }
            table.addRow(row);
        }
        std::vector<std::string> mean_row = {"(hmean)"};
        for (const auto &sp : per_lat)
            mean_row.push_back(TextTable::fmt(harmonicMean(sp), 3));
        table.addRow(mean_row);
        std::printf("%s\n", table.render().c_str());
    }
    return 0;
}
