#include "run_flags.hh"

#include <cstdlib>
#include <cstring>
#include <memory>

#include "vsim/base/cli.hh"
#include "vsim/base/logging.hh"
#include "vsim/core/window_types.hh"
#include "disk_cache.hh"
#include "sweep.hh"

namespace vsim::sim
{

const char kRunFlagsHelp[] =
    "  --window N        window size (1..512)\n"
    "  --fetch-width N   fetch width (1..512; default: issue width)\n"
    "  --model M         super|great|good, or a custom latency\n"
    "                    tuple E,EI,EV,VF,IR,VB,VA such as\n"
    "                    0,0,1,1,1,1,1; replaces only the latency\n"
    "                    variables\n"
    "  --verify-scheme V flattened|hierarchical|retirement|hybrid\n"
    "  --inval-scheme I  flattened|hierarchical|complete\n"
    "  --select S        typed-spec-last|typed-only|oldest-first|\n"
    "                    typed-spec-first\n"
    "  --mem-resolution R\n"
    "                    valid: memory ops need valid addresses\n"
    "                    (default, paper §3.2); spec: loads may\n"
    "                    issue with speculative addresses and\n"
    "                    forward speculative store data\n"
    "                    (--model, the scheme flags and\n"
    "                    --mem-resolution change only runs with\n"
    "                    value prediction)\n"
    "  --sweep-kind K    dense|sparse verification/invalidation\n"
    "                    sweep domain (identical results; sparse\n"
    "                    is the default, dense the legacy scan)\n"
    "  --shards N        split a run into N interval shards,\n"
    "                    simulated independently and merged into\n"
    "                    one report (see --warmup-insts)\n"
    "  --interval-insts K\n"
    "                    shard every K retired instructions\n"
    "                    instead of a fixed shard count\n"
    "  --warmup-insts W  per-shard detailed-warmup prefix in\n"
    "                    instructions, or 'full' (default): full\n"
    "                    replay from instruction 0, bit-identical\n"
    "                    to the monolithic run (with --sample,\n"
    "                    'full' means one interval of warmup)\n"
    "  --sample N        SimPoint-style sampled replay: cluster\n"
    "                    the trace's intervals into at most N\n"
    "                    phases by basic-block vector, simulate\n"
    "                    one representative per phase in detail\n"
    "                    and weight it by the phase population\n"
    "                    (approximate; excludes --shards/\n"
    "                    --interval-insts)\n"
    "  --sample-interval-insts K\n"
    "                    sampling interval length in instructions\n"
    "                    (default 1000000)\n"
    "  --metrics-interval N\n"
    "                    sample interval metrics every N cycles\n"
    "  --cache-dir PATH  persistent on-disk run cache: repeated\n"
    "                    runs of the same configuration are served\n"
    "                    from disk instead of re-simulated (also\n"
    "                    via VSIM_CACHE_DIR; invalidated on\n"
    "                    rebuild)\n"
    "  --cache-max-bytes N\n"
    "                    cap the cache directory at N bytes,\n"
    "                    evicting least-recently-used entries on\n"
    "                    insert (also via VSIM_CACHE_MAX_BYTES;\n"
    "                    needs a cache directory)\n";

bool
RunFlags::parse(int argc, char **argv, int &i)
{
    const char *flag = argv[i];
    auto is = [flag](const char *name) { return !std::strcmp(flag, name); };
    auto value = [&] { return flagValue(argc, argv, i); };

    if (is("--window")) {
        window = parsePositiveInt(flag, value(), core::kMaxWindow);
    } else if (is("--fetch-width")) {
        fetchWidth = parsePositiveInt(flag, value(), core::kMaxWindow);
    } else if (is("--model")) {
        model = core::SpecModel::byName(value());
    } else if (is("--verify-scheme")) {
        verifyScheme = core::parseVerifyScheme(value());
    } else if (is("--inval-scheme")) {
        invalScheme = core::parseInvalScheme(value());
    } else if (is("--select")) {
        selectPolicy = core::parseSelectPolicy(value());
    } else if (is("--mem-resolution")) {
        const std::string r = value();
        if (r != "valid" && r != "spec")
            throw FatalError("--mem-resolution expects valid|spec, got '"
                             + r + "'");
        memNeedsValidOps = r == "valid";
    } else if (is("--sweep-kind")) {
        const std::string k = value();
        if (k != "sparse" && k != "dense")
            throw FatalError("--sweep-kind expects dense|sparse, got '"
                             + k + "'");
        sweepKind = k == "sparse" ? core::SweepKind::Sparse
                                  : core::SweepKind::Dense;
    } else if (is("--shards")) {
        shards = parsePositiveU64(flag, value());
    } else if (is("--interval-insts")) {
        intervalInsts = parsePositiveU64(flag, value());
    } else if (is("--warmup-insts")) {
        const char *w = value();
        warmupInsts =
            !std::strcmp(w, "full") ? UINT64_MAX : parsePositiveU64(flag, w);
        warmupSet = true;
    } else if (is("--sample")) {
        sampleK = parsePositiveU64(flag, value());
    } else if (is("--sample-interval-insts")) {
        sampleIntervalInsts = parsePositiveU64(flag, value());
    } else if (is("--metrics-interval")) {
        metricsInterval = static_cast<std::uint64_t>(
            parsePositiveInt(flag, value()));
    } else if (is("--cache-dir")) {
        cacheDir = value();
    } else if (is("--cache-max-bytes")) {
        cacheMaxBytes = parsePositiveU64(flag, value());
    } else {
        return false;
    }
    return true;
}

bool
RunFlags::sharded() const
{
    return shards > 0 || intervalInsts > 0 || sampleK > 0;
}

void
RunFlags::finish(const char *shard_workers_flag)
{
    if (shards > 0 && intervalInsts > 0)
        throw FatalError(
            "--shards and --interval-insts are mutually exclusive");
    if (sampleK > 0 && (shards > 0 || intervalInsts > 0))
        throw FatalError("--sample and --shards/--interval-insts are "
                         "mutually exclusive");
    if (sampleIntervalInsts > 0 && sampleK == 0)
        throw FatalError("--sample-interval-insts needs --sample");
    const char *needs_shards =
        warmupSet ? "--warmup-insts" : shard_workers_flag;
    if (needs_shards && !sharded())
        throw FatalError(std::string(needs_shards)
                         + " needs --shards, --interval-insts or "
                           "--sample");
    if (cacheDir.empty()) {
        const char *env = std::getenv("VSIM_CACHE_DIR");
        if (env && *env)
            cacheDir = env;
    }
    if (cacheMaxBytes == 0) {
        const char *env = std::getenv("VSIM_CACHE_MAX_BYTES");
        if (env && *env)
            cacheMaxBytes = parsePositiveU64("VSIM_CACHE_MAX_BYTES", env);
    }
    if (cacheMaxBytes > 0 && cacheDir.empty())
        throw FatalError("--cache-max-bytes needs --cache-dir (or "
                         "VSIM_CACHE_DIR)");
}

void
RunFlags::applyTo(core::CoreConfig &cfg) const
{
    if (window)
        cfg.windowSize = *window;
    if (fetchWidth)
        cfg.fetchWidth = *fetchWidth;
    if (sweepKind)
        cfg.sweepKind = *sweepKind;
    cfg.shards = shards;
    cfg.intervalInsts = intervalInsts;
    cfg.warmupInsts = warmupInsts;
    cfg.sampleK = sampleK;
    cfg.sampleIntervalInsts = sampleIntervalInsts;
    cfg.metricsInterval = metricsInterval;
    if (!cfg.useValuePrediction)
        return;
    core::SpecModel &m = cfg.model;
    if (model) {
        core::SpecModel latencies = *model;
        latencies.verifyScheme = m.verifyScheme;
        latencies.invalScheme = m.invalScheme;
        latencies.selectPolicy = m.selectPolicy;
        latencies.branchNeedsValidOps = m.branchNeedsValidOps;
        latencies.memNeedsValidOps = m.memNeedsValidOps;
        m = latencies;
    }
    if (verifyScheme)
        m.verifyScheme = *verifyScheme;
    if (invalScheme)
        m.invalScheme = *invalScheme;
    if (selectPolicy)
        m.selectPolicy = *selectPolicy;
    if (memNeedsValidOps)
        m.memNeedsValidOps = *memNeedsValidOps;
}

void
RunFlags::attachCache() const
{
    if (cacheDir.empty())
        return;
    auto disk = std::make_shared<DiskRunCache>(cacheDir);
    disk->setMaxBytes(cacheMaxBytes);
    RunCache::process().attachDisk(std::move(disk));
}

} // namespace vsim::sim
