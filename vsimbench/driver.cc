/**
 * @file
 * vsim-bench driver: runs one benchmark workload against the vsim
 * libraries, calling their public functions directly, and writes the
 * raw measurements as one JSON document. run.py builds this driver,
 * runs it and turns the raw document into the named metrics.
 *
 *   vsim_bench --workload NAME --seed N --seconds S --trace 0|1
 *              --work DIR --out FILE
 *   vsim_bench --full-detail --work DIR --out FILE
 *
 * A run is: set-up (repeated kSetupReps times, each timed), then cold
 * passes over the workload's job list until S seconds have passed
 * (at least one), each followed by warm passes served from a disk
 * cache the cold pass filled. Every job's simulated statistics are
 * reduced to a digest, and its exit code and output are compared with
 * the functional model's; run.py checks the digests against
 * reference.json.
 *
 * With --trace 1 the run instead makes one untraced and one traced
 * cold pass, then drives a sample of the jobs call by call through
 * the layers (assembler, arch, trace, core, sample, snapshot,
 * disk_cache) and replays the recorded value, branch and address
 * streams through the vpred, bpred and mem models alone. Spans around
 * each call are kept in memory and written out with the document.
 *
 * --full-detail simulates the sampled-long jobs without sampling and
 * writes their cycle counts: the reference the sampled speedup error
 * is measured against (deterministic, so recorded once).
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "vsim/arch/bbv.hh"
#include "vsim/arch/functional_core.hh"
#include "vsim/base/state_io.hh"
#include "vsim/base/thread_pool.hh"
#include "vsim/bpred/bpred.hh"
#include "vsim/core/ooo_core.hh"
#include "vsim/core/snapshot.hh"
#include "vsim/mem/cache.hh"
#include "vsim/sim/disk_cache.hh"
#include "vsim/sim/sample.hh"
#include "vsim/sim/shard.hh"
#include "vsim/sim/simulator.hh"
#include "vsim/sim/sweep.hh"
#include "vsim/trace/trace_io.hh"
#include "vsim/vpred/vpred.hh"
#include "vsim/workloads/workloads.hh"

namespace fs = std::filesystem;
using namespace vsim;

namespace
{

// ---- workload parameters ----------------------------------------------

/** Work factor of the suite kernels (the smallest the kernels take). */
constexpr int kSuiteScale = 1;
/** sampled-long: perl, held out from the sampling work's tuning. */
constexpr const char *kSampledKernel = "perl";
constexpr int kSampledScale = 66; //!< ~10.2M instructions
constexpr std::uint64_t kSampleK = 8;
constexpr std::uint64_t kSampleIntervalInsts = 100'000;
/** Set-up repetitions; run.py reports their median. */
constexpr int kSetupReps = 5;
/**
 * Warm passes after each cold pass: at least kMinWarmReps, and until
 * they have taken kMinWarmSeconds (a warm pass can take microseconds,
 * so its median is taken over many, spread over host-speed swings).
 */
constexpr int kMinWarmReps = 3;
constexpr double kMinWarmSeconds = 2.0;
constexpr int kMaxWarmReps = 100'000;
/** Traced run: about this many jobs, evenly spaced in the job list,
 *  are driven call by call. */
constexpr std::size_t kDecomposeJobs = 24;

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - kEpoch)
            .count());
}

double
secondsBetween(std::uint64_t a, std::uint64_t b)
{
    return static_cast<double>(b - a) * 1e-9;
}

// ---- spans -----------------------------------------------------------------

/** One timed call into a layer: name, interval, cause and run id. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = root
    std::uint64_t run = 0;    //!< job the span belongs to (0 = none)
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::map<std::string, double> args; //!< counts measured at the call
};

/** In-memory span store; a disabled tracer records nothing. */
class Tracer
{
  public:
    explicit Tracer(bool on) : enabled(on) {}

    bool on() const { return enabled; }
    std::uint64_t newId() { return ++lastId; }

    void
    record(Span s)
    {
        std::lock_guard<std::mutex> lock(mtx);
        spans_.push_back(std::move(s));
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled;
    std::atomic<std::uint64_t> lastId{0};
    std::mutex mtx;
    std::vector<Span> spans_;
};

/** RAII span around one call; free when the tracer is off. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, std::uint64_t parent = 0,
          std::uint64_t run = 0)
        : tracer(t)
    {
        if (!tracer.on())
            return;
        span.id = tracer.newId();
        span.parent = parent;
        span.run = run;
        span.name = name;
        span.startNs = nowNs();
    }
    ~Scope()
    {
        if (!tracer.on())
            return;
        span.endNs = nowNs();
        tracer.record(std::move(span));
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint64_t id() const { return span.id; }
    void arg(const char *key, double v)
    {
        if (tracer.on())
            span.args[key] = v;
    }

  private:
    Tracer &tracer;
    Span span;
};

// ---- JSON output -------------------------------------------------------------

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// ---- digests -----------------------------------------------------------------

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

void
digestHistogram(std::ostringstream &os, const obs::Histogram &h)
{
    os << h.count() << ',' << h.sum() << ',' << h.min() << ','
       << h.max() << ',' << h.overflow();
    for (std::size_t i = 0; i < h.bucketCount(); ++i)
        os << ',' << h.bucket(i);
    os << ';';
}

/**
 * Digest of a run's simulated statistics: every CoreStats counter,
 * the CPI stack and the three distributions, named field by field so
 * the digest does not depend on any serialisation format.
 */
std::string
statsDigest(const core::CoreStats &s)
{
    std::ostringstream os;
    for (std::uint64_t v :
         {s.cycles, s.retired, s.fetched, s.dispatched, s.issued,
          s.retiredLoads, s.retiredStores, s.retiredBranches,
          s.condBranches, s.condMispredicts, s.squashes, s.vpEligible,
          s.vpCH, s.vpCL, s.vpIH, s.vpIL, s.vpSpeculated, s.verifyEvents,
          s.invalidateEvents, s.nullifications, s.reissues,
          s.loadsForwarded, s.icacheMisses, s.dcacheMisses, s.predMade,
          s.predSquashed, s.predConsumed, s.verifyTouches,
          s.invalTouches})
        os << v << ',';
    os << ';';
    for (std::uint64_t c : s.cpi.cycles)
        os << c << ',';
    os << ';';
    digestHistogram(os, s.verifyLatency);
    digestHistogram(os, s.invalToReissue);
    digestHistogram(os, s.specInFlight);
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a(os.str())));
    return buf;
}

// ---- jobs ----------------------------------------------------------------------

/** One benchmark job: a sweep cell plus its stable identity. */
struct BenchJob
{
    std::string id;     //!< "<label>|<kernel>", independent of paths
    std::string kernel; //!< suite kernel the job runs or replays
    sim::SweepJob job;
};

/** What the functional model says a kernel prints and exits with. */
struct FunctionalRef
{
    std::uint64_t exitCode = 0;
    std::string output;
};

/** Everything set-up leaves for the timed section. */
struct Setup
{
    std::vector<BenchJob> jobs;
    std::map<std::string, FunctionalRef> functional; //!< by kernel
    int sweepWorkers = 1;
    bool diskColdPass = false; //!< cold pass stores through a disk cache
    std::string cacheRoot;
};

/** Traces are recorded as <work>/traces/<kernel>.vst. */
std::string
kernelOfTrace(const std::string &workload)
{
    return fs::path(sim::traceWorkloadPath(workload)).stem().string();
}

std::vector<BenchJob>
fromSweep(const std::vector<sim::SweepJob> &jobs)
{
    std::vector<BenchJob> out;
    for (const sim::SweepJob &j : jobs) {
        BenchJob b;
        b.kernel = sim::isTraceWorkload(j.workload)
                       ? kernelOfTrace(j.workload)
                       : j.workload;
        b.id = j.label + "|" + b.kernel;
        b.job = j;
        out.push_back(std::move(b));
    }
    return out;
}

core::CoreConfig
wideWindowConfig()
{
    core::CoreConfig cfg = sim::vpConfig(
        {8, 256}, core::SpecModel::goodModel(),
        core::ConfidenceKind::Always, core::UpdateTiming::Delayed);
    cfg.model.memNeedsValidOps = false; // --mem-resolution spec
    cfg.sweepKind = core::SweepKind::Sparse;
    return cfg;
}

/** great (real confidence, D) and base on 8/48, sampled or full. */
std::vector<BenchJob>
sampledJobs(bool sampled, int workers)
{
    const sim::MachineConfig m{8, 48};
    std::vector<BenchJob> out;
    for (bool vp : {true, false}) {
        core::CoreConfig cfg =
            vp ? sim::vpConfig(m, core::SpecModel::greatModel(),
                               core::ConfidenceKind::Real,
                               core::UpdateTiming::Delayed)
               : sim::baseConfig(m);
        if (sampled) {
            cfg.sampleK = kSampleK;
            cfg.sampleIntervalInsts = kSampleIntervalInsts;
            cfg.shardJobs = workers;
        }
        BenchJob b;
        b.kernel = kSampledKernel;
        b.job.label = m.label() + " " + sim::configLabel(cfg)
                      + (sampled ? " sample" : " full");
        b.job.workload = kSampledKernel;
        b.job.scale = kSampledScale;
        b.job.cfg = cfg;
        b.id = b.job.label + "|" + b.kernel;
        out.push_back(std::move(b));
    }
    return out;
}

/**
 * Build the workload's inputs: assemble every kernel it uses, run the
 * functional model for the reference exit code and output, record
 * traces (replay-cache) and create the cache directory root.
 */
Setup
makeSetup(const std::string &workload, const std::string &work,
          int workers, Tracer &tracer)
{
    Setup st;
    st.sweepWorkers = workers;
    st.cacheRoot = work + "/cache";
    fs::remove_all(st.cacheRoot);
    fs::create_directories(st.cacheRoot);

    std::vector<std::string> kernels;
    int scale = kSuiteScale;
    if (workload == "sampled-long") {
        kernels = {kSampledKernel};
        scale = kSampledScale;
    } else {
        kernels = sim::sweepWorkloads(false);
    }

    std::vector<std::string> traceNames;
    for (const std::string &k : kernels) {
        assembler::Program prog;
        {
            Scope s(tracer, "assembler.build");
            prog = workloads::buildProgram(workloads::byName(k), scale);
        }
        arch::FunctionalCore fc(prog);
        fc.run(500'000'000);
        st.functional[k] = {fc.state().exitCode, fc.state().output};
        if (workload == "replay-cache") {
            const std::string path = work + "/traces/" + k + ".vst";
            fs::create_directories(work + "/traces");
            Scope s(tracer, "trace.record");
            trace::recordTrace(prog, path);
            s.arg("bytes", static_cast<double>(fs::file_size(path)));
            traceNames.push_back(sim::traceWorkloadName(path));
        }
    }

    if (workload == "fig3-cold") {
        sim::SweepOptions opt;
        opt.scale = kSuiteScale;
        st.jobs = fromSweep(sim::sweepByName("fig3").build(opt));
    } else if (workload == "wide-window") {
        std::vector<sim::SweepJob> jobs;
        for (const std::string &k : kernels) {
            sim::SweepJob j;
            j.label = "8/256 good always spec-mem";
            j.workload = k;
            j.scale = kSuiteScale;
            j.cfg = wideWindowConfig();
            jobs.push_back(j);
        }
        st.jobs = fromSweep(jobs);
        // Eight jobs of unequal length on four workers would make the
        // batch time depend on the shuffled submission order; one
        // worker measures the core itself.
        st.sweepWorkers = 1;
    } else if (workload == "sampled-long") {
        st.jobs = sampledJobs(true, workers);
        // Each sampled job already spreads its representatives over
        // every worker; the two jobs run one after the other.
        st.sweepWorkers = 1;
    } else if (workload == "replay-cache") {
        // The Fig. 3 grid on the 8/48 machine over the recorded
        // traces: 8 traces x 13 configurations = 104 jobs.
        sim::SweepOptions opt;
        opt.quick = true;
        opt.workloads = traceNames;
        st.jobs = fromSweep(sim::sweepByName("fig3").build(opt));
        st.diskColdPass = true;
    } else {
        throw std::runtime_error("unknown workload '" + workload + "'");
    }
    return st;
}

// ---- passes ----------------------------------------------------------------------

/** Outcome of one job in one pass, checked against the references. */
struct JobRecord
{
    std::string id;
    double latencyS = 0.0;
    std::string digest;
    std::uint64_t cycles = 0;
    bool warm = false; //!< served by a warm pass
    bool exitOk = false;
    bool outputOk = false;
    bool cacheHit = false;
    std::string error; //!< non-empty: the job threw or missed
};

struct PassRecord
{
    double wallS = 0.0;
    std::uint64_t instructions = 0;
    std::vector<JobRecord> jobs;
    std::vector<double> warmWallS;
    std::uint64_t runCacheHits = 0;
    std::uint64_t runCacheMisses = 0;
};

struct BatchOutcome
{
    std::vector<sim::RunResult> results;
    std::vector<sim::JobSpan> spans;
    std::vector<std::string> errors; //!< per job, empty = ok
};

/**
 * Run @p jobs through one SweepRunner. SweepRunner::run rethrows the
 * first failure after the pool drains; the jobs are then retried one
 * by one so each failure is charged to its own job.
 */
BatchOutcome
runBatch(const std::vector<sim::SweepJob> &jobs, int workers,
         sim::RunCache &cache)
{
    BatchOutcome b;
    b.errors.assign(jobs.size(), "");
    sim::SweepRunner runner(workers, &cache);
    runner.setSpanSink(&b.spans);
    try {
        b.results = runner.run(jobs);
    } catch (const std::exception &) {
        b.results.assign(jobs.size(), sim::RunResult{});
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            try {
                b.results[i] = cache.getOrRun(jobs[i]);
            } catch (const std::exception &e) {
                b.errors[i] = e.what();
            }
        }
    }
    return b;
}

std::vector<BenchJob>
shuffled(const std::vector<BenchJob> &jobs, std::mt19937_64 &rng)
{
    std::vector<BenchJob> out = jobs;
    std::shuffle(out.begin(), out.end(), rng);
    return out;
}

std::vector<sim::SweepJob>
sweepJobs(const std::vector<BenchJob> &jobs)
{
    std::vector<sim::SweepJob> out;
    for (const BenchJob &b : jobs)
        out.push_back(b.job);
    return out;
}

JobRecord
checkJob(const BenchJob &b, const sim::RunResult &r,
         const sim::JobSpan &sp, const std::string &error,
         const Setup &st)
{
    JobRecord rec;
    rec.id = b.id;
    rec.latencyS = secondsBetween(sp.startNs, sp.endNs);
    rec.cacheHit = sp.cacheHit;
    rec.error = error;
    if (!error.empty())
        return rec;
    const FunctionalRef &ref = st.functional.at(b.kernel);
    rec.digest = statsDigest(r.stats);
    rec.cycles = r.stats.cycles;
    rec.exitOk = r.exitCode == ref.exitCode;
    rec.outputOk = r.output == ref.output;
    return rec;
}

/** Summed simulated counters of a pass, for the per-layer ratios. */
std::map<std::string, double>
sumCounters(const std::vector<sim::RunResult> &results)
{
    std::map<std::string, double> c;
    for (const sim::RunResult &r : results) {
        const core::CoreStats &s = r.stats;
        c["cycles"] += static_cast<double>(s.cycles);
        c["retired"] += static_cast<double>(s.retired);
        c["fetched"] += static_cast<double>(s.fetched);
        c["issued"] += static_cast<double>(s.issued);
        c["reissues"] += static_cast<double>(s.reissues);
        c["squashes"] += static_cast<double>(s.squashes);
        c["verify_touches"] += static_cast<double>(s.verifyTouches);
        c["inval_touches"] += static_cast<double>(s.invalTouches);
        c["pred_made"] += static_cast<double>(s.predMade);
        c["pred_squashed"] += static_cast<double>(s.predSquashed);
        c["invalidate_events"] += static_cast<double>(s.invalidateEvents);
        c["vp_eligible"] += static_cast<double>(s.vpEligible);
        c["vp_ch"] += static_cast<double>(s.vpCH);
        c["cond_branches"] += static_cast<double>(s.condBranches);
        c["cond_mispredicts"] += static_cast<double>(s.condMispredicts);
        c["dcache_misses"] += static_cast<double>(s.dcacheMisses);
        c["icache_misses"] += static_cast<double>(s.icacheMisses);
        for (std::size_t i = 0; i < obs::kCpiCatCount; ++i)
            c[std::string("cpi.")
              + obs::cpiCatName(static_cast<obs::CpiCat>(i))] +=
                static_cast<double>(s.cpi.cycles[i]);
    }
    return c;
}

/**
 * One cold pass, then warm passes served from the disk cache the cold
 * pass filled. On replay-cache the cold pass stores through the disk
 * cache itself; elsewhere the store happens between the timed passes.
 */
PassRecord
runPass(const Setup &st, int passIndex, std::mt19937_64 &rng,
        Tracer &tracer, std::vector<sim::RunResult> *coldResults)
{
    PassRecord pass;
    const std::string dir =
        st.cacheRoot + "/pass-" + std::to_string(passIndex);
    fs::remove_all(dir);

    const std::vector<BenchJob> order = shuffled(st.jobs, rng);
    const std::vector<sim::SweepJob> jobs = sweepJobs(order);
    BatchOutcome cold;
    {
        sim::RunCache cache;
        std::shared_ptr<sim::DiskRunCache> disk;
        if (st.diskColdPass) {
            disk = std::make_shared<sim::DiskRunCache>(dir);
            cache.attachDisk(disk);
        }
        Scope s(tracer, "sweep.run");
        const std::uint64_t t0 = nowNs();
        cold = runBatch(jobs, st.sweepWorkers, cache);
        const std::uint64_t t1 = nowNs();
        pass.wallS = secondsBetween(t0, t1);
        pass.runCacheHits = cache.hits();
        pass.runCacheMisses = cache.misses();
        if (tracer.on()) {
            for (const sim::JobSpan &sp : cold.spans) {
                Span js;
                js.id = tracer.newId();
                js.parent = s.id();
                js.name = "sweep.job";
                js.startNs = t0 + sp.startNs;
                js.endNs = t0 + sp.endNs;
                js.args["queue_wait_s"] =
                    secondsBetween(sp.submitNs, sp.startNs);
                tracer.record(std::move(js));
            }
            s.arg("workers", st.sweepWorkers);
        }
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
        pass.jobs.push_back(checkJob(order[i], cold.results[i],
                                     cold.spans[i], cold.errors[i], st));
        pass.instructions += cold.results[i].instructions;
    }

    if (!st.diskColdPass) {
        sim::DiskRunCache disk(dir);
        for (std::size_t i = 0; i < jobs.size(); ++i)
            if (cold.errors[i].empty())
                disk.store(sim::jobKey(jobs[i]), cold.results[i]);
    }

    // Warm passes: every job must be a disk hit with the cold digest.
    // They run on one worker: a warm job takes microseconds, so on a
    // pool the threads' wake-up latency, not the cache, would set the
    // time (measured: 108% quartile spread on replay-cache).
    auto disk = std::make_shared<sim::DiskRunCache>(dir);
    double warmTotal = 0.0;
    for (int rep = 0; rep < kMaxWarmReps
                      && (rep < kMinWarmReps || warmTotal < kMinWarmSeconds);
         ++rep) {
        const std::vector<BenchJob> worder = shuffled(st.jobs, rng);
        sim::RunCache cache;
        cache.attachDisk(disk);
        const std::uint64_t t0 = nowNs();
        BatchOutcome warm =
            runBatch(sweepJobs(worder), 1, cache);
        const double w = secondsBetween(t0, nowNs());
        pass.warmWallS.push_back(w);
        warmTotal += w;
        for (std::size_t i = 0; i < worder.size(); ++i) {
            JobRecord rec = checkJob(worder[i], warm.results[i],
                                     warm.spans[i], warm.errors[i], st);
            rec.warm = true;
            if (rec.error.empty() && !rec.cacheHit)
                rec.error = "warm pass missed the disk cache";
            // The first warm pass is reported job by job; later ones
            // only when a job fails.
            if (rep == 0 || !rec.error.empty())
                pass.jobs.push_back(std::move(rec));
        }
    }
    fs::remove_all(dir);
    if (coldResults)
        *coldResults = std::move(cold.results);
    return pass;
}

// ---- standalone model replays ------------------------------------------------

/** Value predictor + confidence over the recorded value stream. */
std::uint64_t
replayVpred(const arch::ExecTrace &t, const core::CoreConfig &cfg)
{
    auto vp = vpred::makeValuePredictor(cfg.valuePredictor);
    vpred::ResettingConfidence conf(cfg.confidenceBits,
                                    cfg.confidenceTableBits,
                                    cfg.confidenceThreshold);
    std::uint64_t ops = 0;
    std::uint64_t confident = 0;
    for (const arch::TraceEntry &e : t.entries) {
        if (e.inst.destReg() < 0 || e.inst.isControl())
            continue;
        const vpred::Prediction p = vp->predict(e.pc);
        const bool correct = p.value == e.value;
        confident += conf.confident(e.pc);
        if (cfg.updateTiming == core::UpdateTiming::Immediate) {
            vp->pushHistory(e.pc, e.value);
            vp->updateTable(e.pc, p.token, e.value);
        } else {
            vp->pushHistory(e.pc, p.value);
            vp->updateTable(e.pc, p.token, e.value);
            vp->commitHistory(e.pc, e.value, correct);
        }
        conf.update(e.pc, correct);
        ++ops;
    }
    return ops + (confident > ops); // keeps the confidence reads live
}

/** Branch predictor over the recorded conditional-branch stream. */
std::uint64_t
replayBpred(const arch::ExecTrace &t, const core::CoreConfig &cfg)
{
    auto bp = bpred::makeBranchPredictor(cfg.branchPredictor);
    std::uint64_t ops = 0;
    std::uint64_t wrong = 0;
    for (const arch::TraceEntry &e : t.entries) {
        if (!e.inst.isCondBranch())
            continue;
        const bool taken = e.nextPc != e.pc + 4;
        wrong += bp->predict(e.pc) != taken;
        bp->update(e.pc, taken);
        ++ops;
    }
    return ops + (wrong > ops);
}

/** Instruction and data cache hierarchy over the recorded addresses. */
std::uint64_t
replayMem(const arch::ExecTrace &t, const core::CoreConfig &cfg)
{
    mem::Cache l2(cfg.l2cache);
    mem::CacheHierarchy icache(
        cfg.icache, l2, {cfg.icacheHitLat, cfg.l2HitLat, cfg.l2MissLat});
    mem::CacheHierarchy dcache(
        cfg.dcache, l2, {cfg.dcacheHitLat, cfg.l2HitLat, cfg.l2MissLat});
    std::uint64_t ops = 0;
    std::uint64_t cycles = 0;
    for (const arch::TraceEntry &e : t.entries) {
        cycles += static_cast<std::uint64_t>(icache.access(e.pc, false));
        ++ops;
        if (e.inst.isMem()) {
            cycles += static_cast<std::uint64_t>(
                dcache.access(e.memAddr, e.inst.isStore()));
            ++ops;
        }
    }
    return ops + (cycles == 0);
}

// ---- decomposed jobs (traced run) ----------------------------------------------

/**
 * Drive one job call by call through the layers, with a span around
 * each call, and return the digest of its simulated statistics (which
 * must equal the sweep's). Throws on any other mismatch.
 */
std::string
decomposeJob(const BenchJob &b, std::uint64_t run, const Setup &st,
             const std::string &scratch, Tracer &tracer)
{
    const core::CoreConfig &cfg = b.job.cfg;
    Scope job(tracer, "job", 0, run);
    const std::uint64_t parent = job.id();

    assembler::Program prog;
    std::shared_ptr<const arch::ExecTrace> trace;
    if (sim::isTraceWorkload(b.job.workload)) {
        const std::string path = sim::traceWorkloadPath(b.job.workload);
        Scope s(tracer, "trace.load", parent, run);
        trace::LoadedTrace loaded = trace::loadTrace(path);
        s.arg("bytes", static_cast<double>(fs::file_size(path)));
        s.arg("trace_bytes", static_cast<double>(loaded.trace.entries.size()
                                                 * sizeof(arch::TraceEntry)));
        prog = std::move(loaded.program);
        trace = std::make_shared<const arch::ExecTrace>(
            std::move(loaded.trace));
    } else {
        {
            Scope s(tracer, "assembler.build", parent, run);
            prog = workloads::buildProgram(
                workloads::byName(b.job.workload), b.job.scale);
        }
        Scope s(tracer, "arch.preexec", parent, run);
        trace = std::make_shared<const arch::ExecTrace>(
            arch::preExecute(prog));
        s.arg("entries", static_cast<double>(trace->entries.size()));
        s.arg("trace_bytes", static_cast<double>(trace->entries.size()
                                                 * sizeof(arch::TraceEntry)));
    }

    // The models alone, over the recorded streams.
    if (cfg.useValuePrediction) {
        Scope s(tracer, "vpred.replay", parent, run);
        s.arg("ops", static_cast<double>(replayVpred(*trace, cfg)));
    }
    {
        Scope s(tracer, "bpred.replay", parent, run);
        s.arg("ops", static_cast<double>(replayBpred(*trace, cfg)));
    }
    {
        Scope s(tracer, "mem.replay", parent, run);
        s.arg("ops", static_cast<double>(replayMem(*trace, cfg)));
    }

    sim::RunResult result;
    if (cfg.sampleK > 0) {
        // The stages of a sampled run, called one by one as
        // ShardRunner composes them (vsim/sim/shard.cc).
        const std::uint64_t K = cfg.sampleIntervalInsts;
        const std::uint64_t len = trace->entries.size();
        std::vector<arch::Bbv> bbvs;
        {
            Scope s(tracer, "arch.bbv", parent, run);
            bbvs = arch::profileBbv(*trace, K);
        }
        sim::SamplePlan plan;
        {
            Scope s(tracer, "sample.cluster", parent, run);
            plan = sim::clusterIntervals(
                std::vector<arch::Bbv>(bbvs.begin(), bbvs.end() - 1),
                cfg.sampleK);
        }
        plan.representatives.push_back(bbvs.size() - 1);
        std::vector<sim::ShardPlan> shards;
        std::vector<std::uint64_t> points;
        std::uint64_t detail = 0;
        for (std::size_t rep : plan.representatives) {
            sim::ShardPlan p;
            p.start = rep * K;
            p.stop = std::min(len, (rep + 1) * K);
            p.warmStart = p.start - std::min(p.start, K);
            if (p.warmStart > 0)
                points.push_back(p.warmStart);
            detail += p.stop - p.start;
            shards.push_back(p);
        }
        std::sort(points.begin(), points.end());
        std::vector<core::SimSnapshot> snaps;
        {
            Scope s(tracer, "snapshot.warmup", parent, run);
            snaps = core::functionalWarmup(prog, *trace, cfg, points);
            s.arg("count", static_cast<double>(snaps.size()));
            s.arg("phases", static_cast<double>(plan.clusters()));
            s.arg("detail_insts", static_cast<double>(detail));
            s.arg("represented_insts", static_cast<double>(len));
        }
        for (const sim::ShardPlan &p : shards) {
            std::unique_ptr<core::OooCore> core;
            {
                Scope s(tracer, "core.ctor", parent, run);
                core = std::make_unique<core::OooCore>(prog, trace, cfg);
            }
            if (p.warmStart > 0) {
                const auto it = std::lower_bound(
                    points.begin(), points.end(), p.warmStart);
                core->startFromSnapshot(
                    snaps[static_cast<std::size_t>(it - points.begin())]);
            }
            core->setRunWindow(p.start, p.stop);
            Scope s(tracer, "core.run", parent, run);
            const core::SimOutcome out = core->run();
            s.arg("insts", static_cast<double>(out.stats.retired));
            s.arg("cycles", static_cast<double>(out.stats.cycles));
        }
        // Then the whole sampled run through its public entry point,
        // after releasing this job's copy of the trace.
        snaps.clear();
        trace.reset();
        Scope s(tracer, "sample.run", parent, run);
        result = sim::ShardRunner(cfg).run(b.job.workload, b.job.scale);
    } else {
        std::unique_ptr<core::OooCore> core;
        {
            Scope s(tracer, "core.ctor", parent, run);
            core = std::make_unique<core::OooCore>(prog, trace, cfg);
        }
        Scope s(tracer, "core.run", parent, run);
        const core::SimOutcome out = core->run();
        s.arg("insts", static_cast<double>(out.stats.retired));
        s.arg("cycles", static_cast<double>(out.stats.cycles));
        if (!out.halted)
            throw std::runtime_error("did not halt");
        result.workload = b.job.workload;
        result.stats = out.stats;
        result.instructions = out.stats.retired;
        result.ipc = out.stats.ipc();
        result.exitCode = out.exitCode;
        result.output = out.output;
    }

    // The disk cache, and its codec alone.
    {
        Scope s(tracer, "disk_cache.codec", parent, run);
        StateWriter w;
        sim::saveRunResult(w, result);
        const std::vector<std::uint8_t> bytes = w.take();
        StateReader r(bytes);
        const sim::RunResult back = sim::loadRunResult(r);
        s.arg("bytes", static_cast<double>(bytes.size()));
        if (!(back.stats == result.stats))
            throw std::runtime_error("codec round trip changed the stats");
    }
    sim::DiskRunCache disk(scratch);
    const std::string key = sim::jobKey(b.job);
    {
        Scope s(tracer, "disk_cache.store", parent, run);
        disk.store(key, result);
    }
    sim::RunResult loaded;
    bool hit = false;
    {
        Scope s(tracer, "disk_cache.load", parent, run);
        hit = disk.load(key, loaded);
    }
    if (!hit || !(loaded.stats == result.stats))
        throw std::runtime_error("disk cache did not return the stored stats");

    const FunctionalRef &ref = st.functional.at(b.kernel);
    if (result.exitCode != ref.exitCode || result.output != ref.output)
        throw std::runtime_error(
            "exit code or output differs from the functional model");
    return statsDigest(result.stats);
}

// ---- output ---------------------------------------------------------------------

void
writeJob(std::ostream &os, const JobRecord &j)
{
    os << "{\"id\":" << quote(j.id) << ",\"latency_s\":" << num(j.latencyS)
       << ",\"digest\":" << quote(j.digest)
       << ",\"cycles\":" << j.cycles
       << ",\"warm\":" << (j.warm ? "true" : "false")
       << ",\"exit_ok\":" << (j.exitOk ? "true" : "false")
       << ",\"output_ok\":" << (j.outputOk ? "true" : "false")
       << ",\"cache_hit\":" << (j.cacheHit ? "true" : "false")
       << ",\"error\":" << quote(j.error) << "}";
}

void
writeSpans(std::ostream &os, const std::vector<Span> &spans)
{
    os << "[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "\n") << "{\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"run\":" << s.run
           << ",\"name\":" << quote(s.name) << ",\"start_ns\":"
           << s.startNs << ",\"end_ns\":" << s.endNs << ",\"args\":{";
        bool first = true;
        for (const auto &[k, v] : s.args) {
            os << (first ? "" : ",") << quote(k) << ":" << num(v);
            first = false;
        }
        os << "}}";
    }
    os << "]";
}

void
writeCounters(std::ostream &os, const std::map<std::string, double> &c)
{
    os << "{";
    bool first = true;
    for (const auto &[k, v] : c) {
        os << (first ? "" : ",") << quote(k) << ":" << num(v);
        first = false;
    }
    os << "}";
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool fullDetail = false;
    std::string work;
    std::string out;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "vsim_bench: %s\nusage: vsim_bench --workload NAME "
                 "--seed N --seconds S --trace 0|1 --work DIR --out FILE\n"
                 "       vsim_bench --full-detail --work DIR --out FILE\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--full-detail") {
            a.fullDetail = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (flag == "--work")
                a.work = v;
            else if (flag == "--out")
                a.out = v;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (a.work.empty() || a.out.empty()
        || (!a.fullDetail && a.workload.empty()))
        usage("missing required flag");
    return a;
}

/** --full-detail: cycles of the sampled-long jobs simulated in full. */
int
fullDetail(const Args &a)
{
    std::ofstream os(a.out);
    os << "{\"full_detail_cycles\":{";
    bool first = true;
    for (const BenchJob &b : sampledJobs(false, 1)) {
        const sim::RunResult r =
            sim::runWorkload(b.job.workload, b.job.scale, b.job.cfg);
        os << (first ? "" : ",")
           << quote(b.job.cfg.useValuePrediction ? "great" : "base") << ":"
           << r.stats.cycles;
        first = false;
    }
    os << "}}\n";
    return os ? 0 : 1;
}

int
benchMain(const Args &a)
{
    const int workers = std::min(4, ThreadPool::defaultThreadCount());
    std::mt19937_64 rng(a.seed);
    Tracer tracer(a.trace);

    // Set-up, repeated; the last repetition's artefacts are used.
    std::vector<double> setupS;
    Setup st;
    for (int i = 0; i < kSetupReps; ++i) {
        Tracer quiet(false);
        const std::uint64_t t0 = nowNs();
        st = makeSetup(a.workload, a.work, workers,
                       i + 1 == kSetupReps ? tracer : quiet);
        setupS.push_back(secondsBetween(t0, nowNs()));
    }

    std::vector<PassRecord> passes;
    std::map<std::string, double> counters;
    std::vector<JobRecord> decomposed; //!< traced run: driven call by call
    double untracedWall = 0.0;
    double tracedWall = 0.0;
    if (!a.trace) {
        const std::uint64_t t0 = nowNs();
        do {
            passes.push_back(runPass(st, static_cast<int>(passes.size()),
                                     rng, tracer, nullptr));
        } while (secondsBetween(t0, nowNs()) < a.seconds);
    } else {
        Tracer off(false);
        passes.push_back(runPass(st, 0, rng, off, nullptr));
        untracedWall = passes.back().wallS;
        std::vector<sim::RunResult> results;
        passes.push_back(runPass(st, 1, rng, tracer, &results));
        tracedWall = passes.back().wallS;
        counters = sumCounters(results);

        // A sample of the jobs, call by call, on the sweep's workers.
        const std::string scratch = st.cacheRoot + "/decomposed";
        const std::size_t stride =
            (st.jobs.size() + kDecomposeJobs - 1) / kDecomposeJobs;
        for (std::size_t i = 0; i < st.jobs.size(); i += stride) {
            JobRecord rec;
            rec.id = st.jobs[i].id;
            decomposed.push_back(rec);
        }
        ThreadPool pool(st.sweepWorkers);
        for (std::size_t k = 0; k < decomposed.size(); ++k) {
            pool.submit([&, k] {
                const std::size_t i = k * stride;
                try {
                    decomposed[k].digest = decomposeJob(
                        st.jobs[i], i + 1, st, scratch, tracer);
                    decomposed[k].exitOk = decomposed[k].outputOk = true;
                } catch (const std::exception &e) {
                    decomposed[k].error = e.what();
                }
            });
        }
        pool.wait();
    }
    fs::remove_all(st.cacheRoot);

    std::ofstream os(a.out);
    os << "{\"manifest\":{\"build_fingerprint\":\"";
    char fp[24];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(
                      sim::DiskRunCache::buildFingerprint()));
    os << fp << "\",\"build_type\":" << quote(VSIM_BENCH_BUILD_TYPE)
       << ",\"compiler\":" << quote(VSIM_BENCH_COMPILER)
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"workers\":" << workers << ",\"sweep_workers\":"
       << st.sweepWorkers << ",\"seed\":" << a.seed
       << ",\"workload\":" << quote(a.workload) << "},\n";
    os << "\"setup_s\":[";
    for (std::size_t i = 0; i < setupS.size(); ++i)
        os << (i ? "," : "") << num(setupS[i]);
    os << "],\n\"peak_rss_mb\":" << num(peakRssMb()) << ",\n";
    os << "\"untraced_wall_s\":" << num(untracedWall)
       << ",\"traced_wall_s\":" << num(tracedWall) << ",\n";
    os << "\"passes\":[";
    for (std::size_t p = 0; p < passes.size(); ++p) {
        const PassRecord &pr = passes[p];
        os << (p ? ",\n" : "\n") << "{\"wall_s\":" << num(pr.wallS)
           << ",\"instructions\":" << pr.instructions
           << ",\"run_cache_hits\":" << pr.runCacheHits
           << ",\"run_cache_misses\":" << pr.runCacheMisses
           << ",\"warm_wall_s\":[";
        for (std::size_t i = 0; i < pr.warmWallS.size(); ++i)
            os << (i ? "," : "") << num(pr.warmWallS[i]);
        os << "],\"jobs\":[";
        for (std::size_t i = 0; i < pr.jobs.size(); ++i) {
            os << (i ? ",\n" : "\n");
            writeJob(os, pr.jobs[i]);
        }
        os << "]}";
    }
    os << "],\n\"counters\":";
    writeCounters(os, counters);
    os << ",\n\"decomposed\":[";
    for (std::size_t i = 0; i < decomposed.size(); ++i) {
        os << (i ? ",\n" : "\n");
        writeJob(os, decomposed[i]);
    }
    os << "],\n\"spans\":";
    writeSpans(os, tracer.spans());
    os << "}\n";
    return os ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    // A fixed mmap threshold returns every large buffer (traces, the
    // window) to the system when it is freed. glibc's default raises
    // the threshold as it goes, so peak RSS would depend on the order
    // jobs ran in, i.e. on the seed, rather than on live memory.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
    try {
        fs::create_directories(a.work);
        return a.fullDetail ? fullDetail(a) : benchMain(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "vsim_bench: %s\n", e.what());
        return 1;
    }
}
