/**
 * @file
 * The run settings that vspec_run and vspec_sweep both accept with one
 * meaning: machine size, latency model and model variables, sweep
 * domain, sharding and sampling, interval metrics and the persistent
 * run cache. This module owns each flag's name, value parser, range
 * check and help line, the checks between flags, and the
 * VSIM_CACHE_DIR / VSIM_CACHE_MAX_BYTES fallbacks. The tools keep only
 * the flags whose meaning differs between them.
 */

#ifndef VSIM_SIM_RUN_FLAGS_HH
#define VSIM_SIM_RUN_FLAGS_HH

#include <cstdint>
#include <optional>
#include <string>

#include "vsim/core/core_config.hh"

namespace vsim::sim
{

struct RunFlags
{
    std::optional<int> window;
    std::optional<int> fetchWidth;
    std::optional<core::SpecModel> model;
    std::optional<core::VerifyScheme> verifyScheme;
    std::optional<core::InvalScheme> invalScheme;
    std::optional<core::SelectPolicy> selectPolicy;
    std::optional<bool> memNeedsValidOps;
    std::optional<core::SweepKind> sweepKind;
    std::uint64_t shards = 0;
    std::uint64_t intervalInsts = 0;
    std::uint64_t warmupInsts = UINT64_MAX; //!< 'full' (the default)
    bool warmupSet = false;
    std::uint64_t sampleK = 0;
    std::uint64_t sampleIntervalInsts = 0;
    std::uint64_t metricsInterval = 0;
    std::string cacheDir;
    std::uint64_t cacheMaxBytes = 0;

    /**
     * If argv[i] is a shared flag, consume it and its value (advancing
     * @p i) and return true; otherwise return false. Throws FatalError
     * naming the flag on a missing or bad value.
     */
    bool parse(int argc, char **argv, int &i);

    /**
     * Call once after the argument loop: fill the cache settings from
     * the environment and check the flags against each other.
     * @p shard_workers_flag names the tool's per-run worker-count flag
     * if the user gave it (like --warmup-insts it needs sharding or
     * sampling), else nullptr. Throws FatalError on a violation.
     */
    void finish(const char *shard_workers_flag = nullptr);

    /** Whether the run is split into shards or sampled. */
    bool sharded() const;

    /**
     * Write the settings into @p cfg. --model replaces only the
     * latency variables and each scheme flag only its own variable;
     * all of them apply only when cfg.useValuePrediction is set.
     */
    void applyTo(core::CoreConfig &cfg) const;

    /** Back the process-wide RunCache with the cache directory, if any. */
    void attachCache() const;
};

/** Help lines for the shared flags, in the tools' usage layout. */
extern const char kRunFlagsHelp[];

} // namespace vsim::sim

#endif // VSIM_SIM_RUN_FLAGS_HH
