/**
 * @file
 * Reproduces **Figure 4** of the paper: average prediction-accuracy
 * breakdown for the great model under real confidence, per machine
 * size and update timing. Predictions of committed instructions are
 * classified as
 *   CH  correct,   high confidence
 *   CL  correct,   low  confidence
 *   IH  incorrect, high confidence
 *   IL  incorrect, low  confidence
 * and averaged arithmetically over the workloads (paper §5.1).
 *
 * Expected shape (paper §6): 63-71 % of predictions correct; IH below
 * 1 % (the resetting counters suppress misspeculation) at the cost of
 * a large CL set (20-25 %); accuracy drops with delayed updates and
 * larger windows.
 */

#include <cstdio>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace vsim;

    const bench::Options opt = bench::parseOptions(argc, argv);
    const bench::SweepResults sweep("fig4", opt);

    std::printf("== Figure 4: Average prediction accuracy (great "
                "model, real confidence) ==\n\n");

    TextTable table;
    table.setHeader({"config", "timing", "CH %", "CL %", "IH %", "IL %",
                     "correct %"});

    for (const auto &m : sim::sweepMachines(opt.quick)) {
        for (const char *timing : {"D", "I"}) {
            std::vector<double> ch, cl, ih, il;
            for (const std::string &wname :
                 sim::sweepWorkloads(opt.quick)) {
                const auto &s =
                    sweep.at(m.label() + " great " + timing + "/R", wname)
                        .stats;
                ch.push_back(bench::pct(s.vpCH, s.vpEligible));
                cl.push_back(bench::pct(s.vpCL, s.vpEligible));
                ih.push_back(bench::pct(s.vpIH, s.vpEligible));
                il.push_back(bench::pct(s.vpIL, s.vpEligible));
            }
            const double mch = arithmeticMean(ch);
            const double mcl = arithmeticMean(cl);
            const double mih = arithmeticMean(ih);
            const double mil = arithmeticMean(il);
            table.addRow({m.label(), timing, TextTable::fmt(mch, 1),
                          TextTable::fmt(mcl, 1), TextTable::fmt(mih, 2),
                          TextTable::fmt(mil, 1),
                          TextTable::fmt(mch + mcl, 1)});
        }
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}
