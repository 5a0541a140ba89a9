/**
 * @file
 * Ablation E: value-predictor choice — the paper's order-4 FCM
 * context predictor versus last-value, 2-delta stride and an
 * FCM+stride hybrid — on the 8/48 machine, great model, oracle
 * confidence and immediate updates (so raw predictor coverage is what
 * differentiates the runs). Reports prediction accuracy and speedup.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace vsim;

    const bench::Options opt = bench::parseOptions(argc, argv);
    const bench::SweepResults sweep("predictors", opt);

    std::printf("== Ablation: value predictor (8/48, great, oracle "
                "confidence, immediate update) ==\n\n");
    TextTable table;
    table.setHeader({"predictor", "hmean speedup", "mean accuracy %"});

    for (const char *pred : {"fcm", "last-value", "stride", "hybrid"}) {
        const std::string label = std::string("8/48 ") + pred;
        std::vector<double> speedups, accs;
        for (const std::string &wname : sim::sweepWorkloads(opt.quick)) {
            speedups.push_back(sweep.speedup("8/48 base", label, wname));
            accs.push_back(
                100.0 * sweep.at(label, wname).stats.predictionAccuracy());
        }
        table.addRow({pred, TextTable::fmt(harmonicMean(speedups), 3),
                      TextTable::fmt(arithmeticMean(accs), 1)});
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}
