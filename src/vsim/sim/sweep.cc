#include "sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <numeric>
#include <sstream>
#include <utility>

#include "disk_cache.hh"
#include "vsim/base/logging.hh"
#include "vsim/base/thread_pool.hh"
#include "vsim/trace/trace_io.hh"
#include "vsim/workloads/workloads.hh"

namespace vsim::sim
{

namespace
{

void
keyCache(std::ostringstream &os, const mem::CacheConfig &c)
{
    os << c.sizeBytes << '/' << c.assoc << '/' << c.blockBytes << ';';
}

} // namespace

std::string
jobKey(const SweepJob &job)
{
    const core::CoreConfig &c = job.cfg;
    const core::SpecModel &m = c.model;
    std::ostringstream os;
    // Workload identity. A trace workload's identity is its content,
    // not its path: the same path can hold a different recording
    // across tool invocations, so the key carries the file's hash
    // (memoised per path — stable for the life of the process).
    os << job.workload << '@' << job.scale;
    if (isTraceWorkload(job.workload)) {
        os << '#' << std::hex
           << trace::traceFileHash(traceWorkloadPath(job.workload))
           << std::dec;
    }
    os << ';';
    // Machine.
    os << c.issueWidth << '/' << c.windowSize << '/' << c.fetchWidth
       << '/' << c.retireWidth << '/' << c.dcachePorts << ';';
    // Value speculation. The model's cosmetic name is excluded: two
    // models with equal variables produce bit-identical runs.
    os << c.useValuePrediction << ';' << c.valuePredictor << ';'
       << static_cast<int>(c.confidence) << '/' << c.confidenceBits
       << '/' << c.confidenceTableBits << '/' << c.confidenceThreshold
       << ';'
       << static_cast<int>(c.updateTiming) << ';';
    os << m.execToEquality << ',' << m.equalityToInvalidate << ','
       << m.equalityToVerify << ',' << m.verifyToFreeResource << ','
       << m.invalidateToReissue << ',' << m.verifyToBranch << ','
       << m.verifyAddrToMem << ',' << static_cast<int>(m.verifyScheme)
       << ',' << static_cast<int>(m.invalScheme) << ','
       << static_cast<int>(m.selectPolicy) << ','
       << m.branchNeedsValidOps << ',' << m.memNeedsValidOps << ';';
    // Front end and memory hierarchy.
    os << c.branchPredictor << ';';
    keyCache(os, c.icache);
    keyCache(os, c.dcache);
    keyCache(os, c.l2cache);
    os << c.icacheHitLat << ',' << c.dcacheHitLat << ',' << c.l2HitLat
       << ',' << c.l2MissLat << ',' << c.storeForwardLat << ';';
    // Functional units and run control.
    os << c.aluLat << ',' << c.mulLat << ',' << c.divLat << ';'
       << c.maxCycles << ';';
    // Observability settings that shape the RunResult (the interval
    // series is part of the memoized value). traceRetain and
    // tracePipeline stay out: they never reach a cached result.
    // sweepKind (like scheduler) stays out too: sparse and dense
    // sweeps produce bit-identical stats, so either may serve a
    // cached result for the other.
    os << c.metricsInterval << ',' << c.specLedger;
    // Sharding: interval partition and warmup depth change the merged
    // statistics (exactly reproducible only at full warmup), so they
    // are part of the key; shardJobs (an execution resource, like
    // scheduler) stays out.
    os << ';' << c.shards << ',' << c.intervalInsts << ','
       << c.warmupInsts;
    // Sampled replay: the phase budget and interval length define the
    // clustering, so both are part of the key (sampled statistics
    // approximate the monolithic run and must never serve it).
    os << ',' << c.sampleK << ',' << c.sampleIntervalInsts;
    return os.str();
}

RunCache &
RunCache::process()
{
    static RunCache cache;
    return cache;
}

RunResult
RunCache::getOrRun(const SweepJob &job, bool *cache_hit,
                   const InputSource &input)
{
    const std::string key = jobKey(job);
    std::promise<RunResult> promise;
    std::shared_future<RunResult> future;
    std::shared_ptr<DiskRunCache> dsk;
    bool owner = false;
    {
        std::unique_lock<std::mutex> lock(mtx);
        auto it = entries.find(key);
        if (it != entries.end()) {
            ++nHits;
            future = it->second;
        } else {
            future = promise.get_future().share();
            entries.emplace(key, future);
            owner = true;
            dsk = diskCache;
        }
    }
    bool from_disk = false;
    if (owner) {
        try {
            RunResult result;
            from_disk = dsk && dsk->load(key, result);
            if (!from_disk)
                result = input
                             ? runWorkload(job.workload, *input(), job.cfg)
                             : runWorkload(job.workload, job.scale, job.cfg);
            promise.set_value(std::move(result));
            {
                std::unique_lock<std::mutex> lock(mtx);
                if (from_disk)
                    ++nDiskHits;
                else
                    ++nMisses;
            }
            if (!from_disk && dsk)
                dsk->store(key, future.get());
        } catch (...) {
            // Release every waiter with the error, then drop the
            // entry: a failure is never memoized, so a retried key
            // simulates again instead of replaying the exception.
            promise.set_exception(std::current_exception());
            std::unique_lock<std::mutex> lock(mtx);
            ++nMisses;
            entries.erase(key);
        }
    }
    if (cache_hit)
        *cache_hit = !owner || from_disk;
    return future.get(); // rethrows the run's error, if any
}

void
RunCache::attachDisk(std::shared_ptr<DiskRunCache> disk)
{
    std::unique_lock<std::mutex> lock(mtx);
    diskCache = std::move(disk);
}

std::shared_ptr<DiskRunCache>
RunCache::disk() const
{
    std::unique_lock<std::mutex> lock(mtx);
    return diskCache;
}

std::uint64_t
RunCache::hits() const
{
    std::unique_lock<std::mutex> lock(mtx);
    return nHits;
}

std::uint64_t
RunCache::misses() const
{
    std::unique_lock<std::mutex> lock(mtx);
    return nMisses;
}

std::uint64_t
RunCache::diskHits() const
{
    std::unique_lock<std::mutex> lock(mtx);
    return nDiskHits;
}

std::size_t
RunCache::size() const
{
    std::unique_lock<std::mutex> lock(mtx);
    return entries.size();
}

void
RunCache::clear()
{
    std::unique_lock<std::mutex> lock(mtx);
    entries.clear();
    nHits = 0;
    nMisses = 0;
    nDiskHits = 0;
}

SweepRunner::SweepRunner(int jobs, RunCache *cache)
    : nJobs(jobs < 1 ? 1 : jobs), cache(cache)
{
}

int
SweepRunner::defaultJobs()
{
    return ThreadPool::defaultThreadCount();
}

namespace
{

/** Completion-order progress line: "[k/N] label (workload)". */
void
progressLine(std::atomic<std::size_t> &done, std::size_t total,
             const SweepJob &job, bool cached)
{
    std::ostringstream os;
    os << "[" << done.fetch_add(1) + 1 << "/" << total << "] "
       << job.label << " (" << job.workload << ")";
    if (cached)
        os << " [cached]";
    logLine(os.str());
}

/**
 * The shared inputs of one SweepRunner::run batch: one slot per
 * distinct (workload, scale), built by the first job that asks for it
 * and dropped once every job naming it has ended.
 */
class BatchInputs
{
  public:
    explicit BatchInputs(const std::vector<SweepJob> &jobs)
        : slotOf(jobs.size())
    {
        std::map<std::pair<std::string, int>, std::size_t> index;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const auto [it, fresh] = index.emplace(
                std::make_pair(jobs[i].workload, jobs[i].scale),
                slots.size());
            if (fresh)
                slots.emplace_back(jobs[i].workload, jobs[i].scale);
            slotOf[i] = it->second;
            ++slots[it->second].users;
        }
        // Slots are numbered in order of first appearance.
        order.resize(jobs.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [this](std::size_t a, std::size_t b) {
                             return slotOf[a] < slotOf[b];
                         });
    }

    /** Job indices grouped by input, in order of first appearance. */
    std::vector<std::size_t> order;

    /**
     * The input of job @p job, built here if no job has started it;
     * a late arrival waits for the first builder. Rethrows a failed
     * build to every job that asks for it.
     */
    std::shared_ptr<const WorkloadInput>
    acquire(std::size_t job)
    {
        Slot &s = slots[slotOf[job]];
        std::promise<std::shared_ptr<const WorkloadInput>> promise;
        std::shared_future<std::shared_ptr<const WorkloadInput>> input;
        bool builder = false;
        {
            std::lock_guard<std::mutex> lock(mtx);
            if (!s.input.valid()) {
                s.input = promise.get_future().share();
                builder = true;
                ++nLoaded;
            }
            input = s.input;
        }
        if (builder) {
            try {
                promise.set_value(std::make_shared<const WorkloadInput>(
                    loadWorkload(s.workload, s.scale)));
            } catch (...) {
                promise.set_exception(std::current_exception());
            }
        }
        return input.get();
    }

    /** Job @p job has ended: the last one of its input drops it. */
    void
    release(std::size_t job)
    {
        std::lock_guard<std::mutex> lock(mtx);
        Slot &s = slots[slotOf[job]];
        if (--s.users == 0)
            s.input = {};
    }

    std::size_t
    loaded() const
    {
        std::lock_guard<std::mutex> lock(mtx);
        return nLoaded;
    }

  private:
    struct Slot
    {
        Slot(std::string w, int sc) : workload(std::move(w)), scale(sc) {}

        const std::string workload;
        const int scale;
        std::size_t users = 0; //!< jobs naming it that have not ended
        std::shared_future<std::shared_ptr<const WorkloadInput>> input;
    };

    mutable std::mutex mtx;
    std::vector<Slot> slots;
    std::vector<std::size_t> slotOf; //!< job index -> slot
    std::size_t nLoaded = 0;
};

} // namespace

std::vector<RunResult>
SweepRunner::run(const std::vector<SweepJob> &jobs)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point epoch = Clock::now();
    const auto now_ns = [epoch] {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - epoch)
                .count());
    };

    std::vector<RunResult> results(jobs.size());
    if (spans) {
        spans->clear();
        spans->resize(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            JobSpan &sp = (*spans)[i];
            sp.index = i;
            sp.label = jobs[i].label;
            sp.workload = jobs[i].workload;
        }
    }
    std::atomic<std::size_t> done{0};
    std::vector<std::exception_ptr> errors(jobs.size());
    BatchInputs inputs(jobs);

    auto runJob = [&](std::size_t i, int worker) {
        JobSpan *sp = spans ? &(*spans)[i] : nullptr;
        if (sp) {
            sp->worker = worker;
            sp->startNs = now_ns();
        }
        bool cached = false;
        try {
            const RunCache::InputSource input = [&inputs, i] {
                return inputs.acquire(i);
            };
            if (cache)
                results[i] = cache->getOrRun(jobs[i], &cached, input);
            else
                results[i] =
                    runWorkload(jobs[i].workload, *input(), jobs[i].cfg);
        } catch (...) {
            errors[i] = std::current_exception();
        }
        inputs.release(i);
        if (sp) {
            sp->endNs = now_ns();
            sp->cacheHit = cached;
        }
        if (progress)
            progressLine(done, jobs.size(), jobs[i], cached);
    };

    if (nJobs <= 1 || jobs.size() <= 1) {
        for (std::size_t i : inputs.order) {
            if (spans)
                (*spans)[i].submitNs = now_ns();
            runJob(i, -1);
        }
    } else {
        ThreadPool pool(std::min<int>(
            nJobs, static_cast<int>(jobs.size())));
        for (std::size_t i : inputs.order) {
            if (spans)
                (*spans)[i].submitNs = now_ns();
            pool.submit([&runJob, i] {
                runJob(i, ThreadPool::currentWorkerIndex());
            });
        }
        pool.wait();
    }
    nInputsLoaded = inputs.loaded();
    for (const std::exception_ptr &err : errors) {
        if (err)
            std::rethrow_exception(err);
    }
    return results;
}

std::vector<std::string>
sweepWorkloads(bool quick)
{
    if (quick)
        return {"compress", "m88k", "queens"};
    std::vector<std::string> names;
    for (const auto &w : workloads::all())
        names.push_back(w.name);
    return names;
}

std::vector<std::string>
sweepWorkloads(const SweepOptions &opt)
{
    if (!opt.workloads.empty())
        return opt.workloads;
    return sweepWorkloads(opt.quick);
}

std::vector<MachineConfig>
sweepMachines(bool quick)
{
    if (quick)
        return {{8, 48}};
    return paperMachines();
}

std::string
configLabel(const core::CoreConfig &cfg)
{
    if (!cfg.useValuePrediction)
        return "base";
    return cfg.model.name + " "
           + timingConfLabel(cfg.updateTiming, cfg.confidence);
}

namespace
{

using core::ConfidenceKind;
using core::SpecModel;
using core::UpdateTiming;

/** Label a job "<machine> <config>" unless the builder overrides. */
SweepJob
makeJob(const MachineConfig &m, const std::string &workload, int scale,
        const core::CoreConfig &cfg, const std::string &label = "")
{
    SweepJob job;
    job.label = label.empty() ? m.label() + " " + configLabel(cfg)
                              : label;
    job.workload = workload;
    job.scale = scale;
    job.cfg = cfg;
    return job;
}

/** Append one job per workload of @p opt, all under @p cfg. */
void
addRuns(std::vector<SweepJob> &jobs, const SweepOptions &opt,
        const MachineConfig &m, const core::CoreConfig &cfg,
        const std::string &label = "")
{
    for (const auto &w : sweepWorkloads(opt))
        jobs.push_back(makeJob(m, w, opt.scale, cfg, label));
}

/** The machine every ablation sweep runs on. */
constexpr MachineConfig kAblationMachine{8, 48};

/** Base runs on the ablation machine: every ablation's speedup baseline. */
std::vector<SweepJob>
ablationBase(const SweepOptions &opt)
{
    std::vector<SweepJob> jobs;
    addRuns(jobs, opt, kAblationMachine, baseConfig(kAblationMachine));
    return jobs;
}

/** "<machine> <config> <variant>": unique per ablation cell. */
std::string
variantLabel(const core::CoreConfig &cfg, const std::string &variant)
{
    return kAblationMachine.label() + " " + configLabel(cfg) + " "
           + variant;
}

std::vector<SweepJob>
buildBase(const SweepOptions &opt)
{
    std::vector<SweepJob> jobs;
    for (const auto &m : sweepMachines(opt.quick))
        addRuns(jobs, opt, m, baseConfig(m));
    return jobs;
}

std::vector<SweepJob>
buildFig3(const SweepOptions &opt)
{
    const std::vector<SpecModel> models = {SpecModel::goodModel(),
                                           SpecModel::greatModel(),
                                           SpecModel::superModel()};
    const std::vector<std::pair<UpdateTiming, ConfidenceKind>> combos = {
        {UpdateTiming::Delayed, ConfidenceKind::Real},
        {UpdateTiming::Immediate, ConfidenceKind::Real},
        {UpdateTiming::Delayed, ConfidenceKind::Oracle},
        {UpdateTiming::Immediate, ConfidenceKind::Oracle},
    };
    std::vector<SweepJob> jobs = buildBase(opt);
    for (const auto &m : sweepMachines(opt.quick))
        for (const SpecModel &model : models)
            for (const auto &[timing, conf] : combos)
                addRuns(jobs, opt, m, vpConfig(m, model, conf, timing));
    return jobs;
}

std::vector<SweepJob>
buildFig4(const SweepOptions &opt)
{
    std::vector<SweepJob> jobs;
    for (const auto &m : sweepMachines(opt.quick))
        for (UpdateTiming timing :
             {UpdateTiming::Delayed, UpdateTiming::Immediate})
            addRuns(jobs, opt, m,
                    vpConfig(m, SpecModel::greatModel(),
                             ConfidenceKind::Real, timing));
    return jobs;
}

std::vector<SweepJob>
buildConfidence(const SweepOptions &opt)
{
    const MachineConfig m = kAblationMachine;
    struct Variant
    {
        const char *name;
        ConfidenceKind kind;
        int bits;
        int threshold;
    };
    const std::vector<Variant> variants = {
        {"ctr-1bit", ConfidenceKind::Real, 1, -1},
        {"ctr-2bit", ConfidenceKind::Real, 2, -1},
        {"ctr-3bit", ConfidenceKind::Real, 3, -1},
        {"ctr-4bit", ConfidenceKind::Real, 4, -1},
        {"ctr-3bit-thr4", ConfidenceKind::Real, 3, 4},
        {"always", ConfidenceKind::Always, 3, -1},
        {"oracle", ConfidenceKind::Oracle, 3, -1},
    };
    std::vector<SweepJob> jobs = ablationBase(opt);
    for (const Variant &v : variants) {
        core::CoreConfig cfg = vpConfig(m, SpecModel::greatModel(), v.kind,
                                        UpdateTiming::Delayed);
        cfg.confidenceBits = v.bits;
        cfg.confidenceThreshold = v.threshold;
        addRuns(jobs, opt, m, cfg, m.label() + " " + v.name);
    }
    return jobs;
}

std::vector<SweepJob>
buildPredictors(const SweepOptions &opt)
{
    const MachineConfig m = kAblationMachine;
    std::vector<SweepJob> jobs = ablationBase(opt);
    for (const char *pred : {"fcm", "last-value", "stride", "hybrid"}) {
        core::CoreConfig cfg =
            vpConfig(m, SpecModel::greatModel(), ConfidenceKind::Oracle,
                     UpdateTiming::Immediate);
        cfg.valuePredictor = pred;
        addRuns(jobs, opt, m, cfg, m.label() + " " + pred);
    }
    return jobs;
}

std::vector<SweepJob>
buildVerifLatency(const SweepOptions &opt)
{
    const MachineConfig m = kAblationMachine;
    std::vector<SweepJob> jobs = ablationBase(opt);
    for (int lat = 0; lat <= 3; ++lat) {
        SpecModel model = SpecModel::greatModel();
        model.execToEquality = lat;
        addRuns(jobs, opt, m,
                vpConfig(m, model, ConfidenceKind::Oracle,
                         UpdateTiming::Immediate),
                m.label() + " verif-lat=" + std::to_string(lat));
    }
    return jobs;
}

std::vector<SweepJob>
buildReissueLatency(const SweepOptions &opt)
{
    const MachineConfig m = kAblationMachine;
    std::vector<SweepJob> jobs = ablationBase(opt);
    for (ConfidenceKind conf :
         {ConfidenceKind::Always, ConfidenceKind::Real}) {
        for (int lat : {0, 1, 2, 4}) {
            SpecModel model = SpecModel::greatModel();
            model.invalidateToReissue = lat;
            addRuns(jobs, opt, m,
                    vpConfig(m, model, conf, UpdateTiming::Immediate),
                    m.label()
                        + (conf == ConfidenceKind::Always ? " always"
                                                          : " real")
                        + " reissue-lat=" + std::to_string(lat));
        }
    }
    return jobs;
}

std::vector<SweepJob>
buildVerifScheme(const SweepOptions &opt)
{
    const MachineConfig m = kAblationMachine;
    std::vector<SweepJob> jobs = ablationBase(opt);
    for (ConfidenceKind conf :
         {ConfidenceKind::Oracle, ConfidenceKind::Real}) {
        for (core::VerifyScheme scheme :
             {core::VerifyScheme::Flattened,
              core::VerifyScheme::Hierarchical,
              core::VerifyScheme::RetirementBased,
              core::VerifyScheme::Hybrid}) {
            SpecModel model = SpecModel::greatModel();
            model.verifyScheme = scheme;
            // A hierarchical verify wave comes with the hierarchical
            // invalidation wave (§3.2).
            if (scheme == core::VerifyScheme::Hierarchical)
                model.invalScheme = core::InvalScheme::Hierarchical;
            const core::CoreConfig cfg =
                vpConfig(m, model, conf, UpdateTiming::Immediate);
            addRuns(jobs, opt, m, cfg,
                    variantLabel(cfg, core::verifySchemeName(scheme)));
        }
    }
    return jobs;
}

std::vector<SweepJob>
buildBranchResolution(const SweepOptions &opt)
{
    const MachineConfig m = kAblationMachine;
    std::vector<SweepJob> jobs = ablationBase(opt);
    for (ConfidenceKind conf :
         {ConfidenceKind::Real, ConfidenceKind::Oracle}) {
        const core::CoreConfig valid = vpConfig(
            m, SpecModel::greatModel(), conf, UpdateTiming::Immediate);
        addRuns(jobs, opt, m, valid);
        core::CoreConfig spec = valid;
        spec.model.branchNeedsValidOps = false;
        addRuns(jobs, opt, m, spec, variantLabel(spec, "spec-branch"));
    }
    return jobs;
}

std::vector<SweepJob>
buildMemResolution(const SweepOptions &opt)
{
    const MachineConfig m = kAblationMachine;
    std::vector<SweepJob> jobs = ablationBase(opt);
    for (const char *model : {"super", "great", "good"}) {
        const core::CoreConfig valid =
            vpConfig(m, SpecModel::byName(model), ConfidenceKind::Real,
                     UpdateTiming::Delayed);
        addRuns(jobs, opt, m, valid);
        core::CoreConfig spec = valid;
        spec.model.memNeedsValidOps = false;
        addRuns(jobs, opt, m, spec, variantLabel(spec, "spec-mem"));
    }
    return jobs;
}

std::vector<SweepJob>
buildSelection(const SweepOptions &opt)
{
    const MachineConfig m = kAblationMachine;
    std::vector<SweepJob> jobs = ablationBase(opt);
    for (ConfidenceKind conf :
         {ConfidenceKind::Real, ConfidenceKind::Oracle}) {
        for (core::SelectPolicy policy :
             {core::SelectPolicy::TypedSpecLast,
              core::SelectPolicy::TypedOnly,
              core::SelectPolicy::OldestFirst,
              core::SelectPolicy::TypedSpecFirst}) {
            SpecModel model = SpecModel::greatModel();
            model.selectPolicy = policy;
            const core::CoreConfig cfg =
                vpConfig(m, model, conf, UpdateTiming::Immediate);
            addRuns(jobs, opt, m, cfg,
                    variantLabel(cfg, core::selectPolicyName(policy)));
        }
    }
    return jobs;
}

} // namespace

const std::vector<NamedSweep> &
namedSweeps()
{
    static const std::vector<NamedSweep> sweeps = {
        {"base", "base machines (no value prediction), all workloads",
         buildBase},
        {"fig3", "Fig. 3 grid: models x D/R-I/R-D/O-I/O x machines "
                 "(plus base runs)",
         buildFig3},
        {"fig4", "Fig. 4 grid: great model, real confidence, D and I "
                 "update timing",
         buildFig4},
        {"confidence", "confidence-estimator design space on 8/48",
         buildConfidence},
        {"predictors", "value-predictor choice on 8/48 (oracle, "
                       "immediate)",
         buildPredictors},
        {"verif-latency",
         "Execution-Equality-Verification latency sweep 0-3 on 8/48",
         buildVerifLatency},
        {"reissue-latency",
         "Invalidation-Reissue latency sweep 0-4 on 8/48, always and "
         "real confidence",
         buildReissueLatency},
        {"verif-scheme",
         "verification scheme (flattened/hierarchical/retirement/"
         "hybrid) on 8/48, oracle and real confidence",
         buildVerifScheme},
        {"branch-resolution",
         "branches resolved with valid vs speculative operands on "
         "8/48, real and oracle confidence",
         buildBranchResolution},
        {"mem-resolution",
         "memory ops issued with valid vs speculative addresses on "
         "8/48, super/great/good",
         buildMemResolution},
        {"selection",
         "issue-selection policy on 8/48, real and oracle confidence",
         buildSelection},
    };
    return sweeps;
}

const NamedSweep &
sweepByName(const std::string &name)
{
    for (const NamedSweep &s : namedSweeps()) {
        if (s.name == name)
            return s;
    }
    VSIM_FATAL("unknown sweep '", name, "'");
}

} // namespace vsim::sim
