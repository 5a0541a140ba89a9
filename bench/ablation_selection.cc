/**
 * @file
 * Ablation G (paper §3.5): issue-selection policy. The paper fixes
 * selection to "branches and loads first, non-speculative preferred
 * over speculative, oldest first" and explicitly leaves selection for
 * speculative execution as future research; this experiment runs that
 * exploration over four policies on the 8/48 machine (great model)
 * under real and oracle confidence.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace vsim;

    const bench::Options opt = bench::parseOptions(argc, argv);
    const bench::SweepResults sweep("selection", opt);

    // (row name, sweep cell label suffix)
    const std::pair<const char *, const char *> policies[] = {
        {"typed+spec-last (paper)", "typed-spec-last"},
        {"typed only", "typed-only"},
        {"oldest first", "oldest-first"},
        {"typed+spec-first", "typed-spec-first"},
    };

    // (confidence, sweep cell label prefix)
    for (const auto &[conf, prefix] :
         {std::pair{"real", "8/48 great I/R "},
          std::pair{"oracle", "8/48 great I/O "}}) {
        std::printf("== Ablation: selection policy (8/48, great, %s "
                    "confidence, immediate update) ==\n\n",
                    conf);
        TextTable table;
        table.setHeader({"policy", "hmean speedup"});
        for (const auto &[name, policy] : policies) {
            std::vector<double> speedups;
            for (const std::string &wname : sim::sweepWorkloads(opt.quick))
                speedups.push_back(sweep.speedup(
                    "8/48 base", std::string(prefix) + policy, wname));
            table.addRow({name, TextTable::fmt(harmonicMean(speedups), 3)});
        }
        std::printf("%s\n", table.render().c_str());
    }
    return 0;
}
