/**
 * @file
 * Ablation: memory resolution policy (paper §3.2) — memory operations
 * issued only with *valid* addresses (the paper's evaluated
 * configuration: loads and stores wait for address verification plus
 * verifyAddrToMem) versus *speculative* memory resolution
 * (memNeedsValidOps=false: loads issue with speculative addresses and
 * forward speculative store data; the LSQ tracks the memory-carried
 * dependences and a mispredicted address or forwarded value kills and
 * reissues the load through the invalidation network).
 *
 * Swept across all three named latency models on the 8/48 machine.
 * The axis matters most for super (verifyAddrToMem = 0 already hides
 * the verification latency, so the remaining cost is the valid-ops
 * *ordering* constraint itself); under real confidence the speculative
 * policy pays for its extra nullifications with invalidateToReissue
 * cycles per violated load.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace vsim;

    const bench::Options opt = bench::parseOptions(argc, argv);
    const bench::SweepResults sweep("mem-resolution", opt);

    for (const char *model : {"super", "great", "good"}) {
        std::printf("== Ablation: memory resolution policy (8/48, %s, "
                    "real confidence, delayed update) ==\n\n",
                    model);
        const std::string valid = std::string("8/48 ") + model + " D/R";
        const std::string spec = valid + " spec-mem";
        TextTable table;
        table.setHeader({"workload", "valid-ops", "spec-mem",
                         "nullified(valid)", "nullified(spec)",
                         "forwarded(spec)"});

        std::vector<double> sp_valid, sp_spec;
        for (const std::string &wname : sim::sweepWorkloads(opt.quick)) {
            const auto &vs = sweep.at(valid, wname).stats;
            const auto &ss = sweep.at(spec, wname).stats;
            const double v = sweep.speedup("8/48 base", valid, wname);
            const double s = sweep.speedup("8/48 base", spec, wname);
            sp_valid.push_back(v);
            sp_spec.push_back(s);
            table.addRow({wname, TextTable::fmt(v, 3),
                          TextTable::fmt(s, 3),
                          std::to_string(vs.nullifications),
                          std::to_string(ss.nullifications),
                          std::to_string(ss.loadsForwarded)});
        }
        table.addRow({"(hmean)",
                      TextTable::fmt(harmonicMean(sp_valid), 3),
                      TextTable::fmt(harmonicMean(sp_spec), 3), "", "",
                      ""});
        std::printf("%s\n", table.render().c_str());
    }
    return 0;
}
