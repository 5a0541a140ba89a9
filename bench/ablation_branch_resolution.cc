/**
 * @file
 * Ablation F (paper §3.2, after Sodani & Sohi [38]): branch resolution
 * policy — branches resolved only with *valid* operands (the paper's
 * evaluated configuration; mispredicted values never redirect fetch,
 * but branches wait for verification + verifyToBranch) versus branches
 * resolved with *speculative/predicted* operands (faster resolution,
 * but value mispredictions can trigger spurious squashes).
 *
 * Compared under real and oracle confidence on the 8/48 machine with
 * the great model. With accurate confidence the speculative policy
 * should be competitive (few value-mispredicted redirects); with
 * aggressive speculation it pays for the extra squashes.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace vsim;

    const bench::Options opt = bench::parseOptions(argc, argv);
    const bench::SweepResults sweep("branch-resolution", opt);

    // (confidence, valid-operand cell label)
    for (const auto &[conf, valid] :
         {std::pair{"real", "8/48 great I/R"},
          std::pair{"oracle", "8/48 great I/O"}}) {
        std::printf("== Ablation: branch resolution policy (8/48, "
                    "great, %s confidence, immediate update) ==\n\n",
                    conf);
        const std::string spec = std::string(valid) + " spec-branch";
        TextTable table;
        table.setHeader({"workload", "valid-only", "speculative",
                         "squashes(valid)", "squashes(spec)"});

        std::vector<double> sp_valid, sp_spec;
        for (const std::string &wname : sim::sweepWorkloads(opt.quick)) {
            const double v = sweep.speedup("8/48 base", valid, wname);
            const double s = sweep.speedup("8/48 base", spec, wname);
            sp_valid.push_back(v);
            sp_spec.push_back(s);
            table.addRow(
                {wname, TextTable::fmt(v, 3), TextTable::fmt(s, 3),
                 std::to_string(sweep.at(valid, wname).stats.squashes),
                 std::to_string(sweep.at(spec, wname).stats.squashes)});
        }
        table.addRow({"(hmean)", TextTable::fmt(harmonicMean(sp_valid), 3),
                      TextTable::fmt(harmonicMean(sp_spec), 3), "", ""});
        std::printf("%s\n", table.render().c_str());
    }
    return 0;
}
