/**
 * @file
 * Ablation B (paper §6 future work): sensitivity of value-speculation
 * speedup to the Execution–Equality–Verification latency, swept from
 * 0 (great) through 3 cycles on the 8/48 machine with oracle
 * confidence. The paper's central result is that this latency is the
 * performance-critical one ("fast verification latency is found to be
 * essential"); the sweep shows how quickly the benefit decays.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace vsim;

    const bench::Options opt = bench::parseOptions(argc, argv);
    const bench::SweepResults sweep("verif-latency", opt);

    std::printf("== Ablation: Execution-Equality-Verification latency "
                "sweep (8/48, oracle confidence) ==\n\n");
    TextTable table;
    table.setHeader({"workload", "lat=0", "lat=1", "lat=2", "lat=3"});

    std::vector<std::vector<double>> per_lat(4);
    for (const std::string &wname : sim::sweepWorkloads(opt.quick)) {
        std::vector<std::string> row = {wname};
        for (int lat = 0; lat <= 3; ++lat) {
            const double sp = sweep.speedup(
                "8/48 base", "8/48 verif-lat=" + std::to_string(lat),
                wname);
            per_lat[lat].push_back(sp);
            row.push_back(TextTable::fmt(sp, 3));
        }
        table.addRow(row);
    }
    std::vector<std::string> mean_row = {"(hmean)"};
    for (const auto &sp : per_lat)
        mean_row.push_back(TextTable::fmt(harmonicMean(sp), 3));
    table.addRow(mean_row);
    std::printf("%s\n", table.render().c_str());
    return 0;
}
