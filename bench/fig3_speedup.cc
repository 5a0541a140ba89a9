/**
 * @file
 * Reproduces **Figure 3** of the paper: harmonic-mean speedup of the
 * good/great/super speculative execution models over the base
 * processor, for the three machine sizes (4/24, 8/48, 16/96), each
 * under the four confidence/update-timing combinations the paper
 * evaluates: D/R, I/R, D/O, I/O (D = delayed update, I = immediate,
 * R = real 3-bit resetting-counter confidence, O = oracle).
 *
 * Expected shape (paper §6): good << great ~ super, good can dip
 * below 1.0; the benefit grows with issue width/window; moving from
 * real to oracle confidence gains more than moving from delayed to
 * immediate updates.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace vsim;

    const bench::Options opt = bench::parseOptions(argc, argv);
    const bench::SweepResults sweep("fig3", opt);
    const auto wnames = sim::sweepWorkloads(opt.quick);

    std::printf("== Figure 3: Speculative execution models, average "
                "speedup ==\n");
    std::printf("(harmonic mean over %zu workloads; speedup = base "
                "cycles / VP cycles)\n\n",
                wnames.size());

    const char *const combos[] = {"D/R", "I/R", "D/O", "I/O"};
    for (const auto &m : sim::sweepMachines(opt.quick)) {
        std::printf("-- machine %s (issue width / window size) --\n",
                    m.label().c_str());
        TextTable table;
        table.setHeader({"model", "D/R", "I/R", "D/O", "I/O"});
        for (const char *model : {"good", "great", "super"}) {
            std::vector<std::string> row = {model};
            for (const char *combo : combos) {
                std::vector<double> speedups;
                for (const std::string &wname : wnames)
                    speedups.push_back(sweep.speedup(
                        m.label() + " base",
                        m.label() + " " + model + " " + combo, wname));
                row.push_back(
                    TextTable::fmt(harmonicMean(speedups), 3));
            }
            table.addRow(row);
        }
        std::printf("%s\n", table.render().c_str());
    }
    return 0;
}
