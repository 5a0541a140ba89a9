/**
 * @file
 * Ablation D (paper §3.6): confidence-estimation design — resetting
 * counters of 1–4 bits (confident only at saturation), a 3-bit counter
 * with a lowered threshold, always-confident, and the oracle — on the
 * 8/48 machine with the great model and delayed updates (the paper's
 * realistic configuration). Reports harmonic-mean speedup and the
 * CH/CL/IH breakdown driving it, quantifying §6's observation that
 * the 3-bit resetting counters buy IH < 1 % at the price of a large
 * CL set.
 */

#include <cstdio>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace vsim;

    const bench::Options opt = bench::parseOptions(argc, argv);
    const bench::SweepResults sweep("confidence", opt);

    // (row name, sweep cell label)
    const std::pair<const char *, const char *> variants[] = {
        {"ctr-1bit", "8/48 ctr-1bit"},
        {"ctr-2bit", "8/48 ctr-2bit"},
        {"ctr-3bit (paper)", "8/48 ctr-3bit"},
        {"ctr-4bit", "8/48 ctr-4bit"},
        {"ctr-3bit thr=4", "8/48 ctr-3bit-thr4"},
        {"always", "8/48 always"},
        {"oracle", "8/48 oracle"},
    };

    std::printf("== Ablation: confidence estimation (8/48, great, "
                "delayed update) ==\n\n");
    TextTable table;
    table.setHeader({"confidence", "hmean speedup", "CH %", "CL %",
                     "IH %"});

    for (const auto &[name, label] : variants) {
        std::vector<double> speedups, ch, cl, ih;
        for (const std::string &wname : sim::sweepWorkloads(opt.quick)) {
            const auto &s = sweep.at(label, wname).stats;
            speedups.push_back(sweep.speedup("8/48 base", label, wname));
            ch.push_back(bench::pct(s.vpCH, s.vpEligible));
            cl.push_back(bench::pct(s.vpCL, s.vpEligible));
            ih.push_back(bench::pct(s.vpIH, s.vpEligible));
        }
        table.addRow({name, TextTable::fmt(harmonicMean(speedups), 3),
                      TextTable::fmt(arithmeticMean(ch), 1),
                      TextTable::fmt(arithmeticMean(cl), 1),
                      TextTable::fmt(arithmeticMean(ih), 2)});
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}
