/**
 * @file
 * Reproduces **Table 1** of the paper: benchmark characteristics —
 * dynamic instruction count and the percentage of instructions that
 * are value-predicted (here: per committed instruction, the fraction
 * eligible for value prediction, i.e. register-writing non-control).
 *
 * The paper's SPECint95 rows (40–203 M instructions, 61.7–82.0 %
 * predicted) are replaced by the eight open substitutes at laptop
 * scale; see DESIGN.md §2 for the mapping.
 */

#include <cstdio>
#include <memory>

#include "bench_util.hh"
#include "vsim/arch/functional_core.hh"

int
main(int argc, char **argv)
{
    using namespace vsim;
    const bench::Options opt = bench::parseOptions(argc, argv);

    std::printf("== Table 1: Benchmark Characteristics ==\n");
    std::printf("(paper: SPECint95, 40-203M instr, 61.7%%-82.0%% "
                "predicted; ours: open substitutes)\n\n");

    TextTable table;
    table.setHeader({"Benchmark", "Stands for", "Dynamic Instr (K)",
                     "Instructions Predicted (%)"});

    std::vector<double> pred_rates;
    for (const std::string &name : sim::sweepWorkloads(opt.quick)) {
        const auto &w = workloads::byName(name);

        // Dynamic length and prediction eligibility from the
        // functional reference run.
        const std::shared_ptr<const arch::ExecTrace> trace =
            sim::loadWorkload(name, opt.scale).trace;
        std::uint64_t eligible = 0;
        for (const arch::TraceEntry &e : trace->entries)
            eligible += e.inst.isValuePredictable();
        const double pct = bench::pct(eligible, trace->entries.size());
        pred_rates.push_back(pct);

        table.addRow({name, w.specAnalog,
                      std::to_string(trace->entries.size() / 1000),
                      TextTable::fmt(pct, 1)});
    }
    table.addRow({"(mean)", "", "", TextTable::fmt(
                      arithmeticMean(pred_rates), 1)});
    std::printf("%s\n", table.render().c_str());
    return 0;
}
