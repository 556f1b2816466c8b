/**
 * @file
 * perfbench-trace: the benchmark's traced replay of one workload.
 *
 * Runs every cell of a spec file on a runner::CellExecutor (a
 * closed loop: each worker takes the next cell when its last one
 * finishes) by calling the library's public functions one layer at
 * a time, and records a span around each call:
 *
 *   runner.cell
 *     serve.key, serve.lookup          (with --cache)
 *     workloads.instance, cfg.compile, core.gpu_build,
 *     workloads.init, core.launch, workloads.verify
 *     serve.store                      (with --cache, on a miss)
 *   runner.serialize                   (the results document)
 *
 * Spans stay in memory and are written at the end as Chrome Trace
 * Event JSON; args carry the cell id, span id and parent span id,
 * plus Gpu::skippedCycles() on each simulated cell. The results
 * document is assembled exactly as runner::runCell() and
 * siwi-run --json assemble it, so its simulated statistics can be
 * compared with those of an untraced run.
 *
 * usage: perfbench-trace --spec PATH --json OUT --trace-out OUT
 *                        [-j N] [--cache DIR]
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "runner/runner.hh"
#include "serve/cache_key.hh"
#include "serve/result_cache.hh"

using namespace siwi;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point t_start = Clock::now();

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     t_start)
        .count();
}

struct Span
{
    const char *name = "";
    double start_us = 0.0;
    double end_us = 0.0;
    u64 id = 0;
    u64 parent = 0; //!< 0 = no parent
    long cell = -1; //!< -1 = not part of a cell
    u64 tid = 0;
    long skipped_sm_cycles = -1; //!< set on simulated cell spans
    bool cached = false;
};

std::atomic<u64> next_span_id{1};

/** Span log of one cell (or of the serialization step). */
class SpanLog
{
  public:
    SpanLog(long cell, u64 tid) : cell_(cell), tid_(tid) {}

    /** Open a span under @p parent; returns its index. */
    size_t open(const char *name, u64 parent)
    {
        Span s;
        s.name = name;
        s.start_us = nowUs();
        s.id = next_span_id.fetch_add(1);
        s.parent = parent;
        s.cell = cell_;
        s.tid = tid_;
        spans_.push_back(s);
        return spans_.size() - 1;
    }

    void close(size_t i) { spans_[i].end_us = nowUs(); }

    Span &at(size_t i) { return spans_[i]; }

    /** Time @p fn as one child span of @p parent. */
    template <typename Fn>
    void timed(const char *name, u64 parent, Fn &&fn)
    {
        size_t i = open(name, parent);
        fn();
        close(i);
    }

    std::vector<Span> &spans() { return spans_; }

  private:
    long cell_;
    u64 tid_;
    std::vector<Span> spans_;
};

struct Context
{
    std::vector<runner::SweepSpec> sweeps;
    std::vector<runner::CellSpec> cells;
    serve::ResultCache *cache = nullptr;
    runner::Results *out = nullptr;

    std::mutex mu; //!< guards spans and errors
    std::vector<Span> spans;
    std::vector<std::string> errors;
};

/** 1-based index of the calling worker thread. */
u64
threadIndex()
{
    static std::atomic<u64> next{1};
    thread_local const u64 index = next.fetch_add(1);
    return index;
}

/** runner::runCell(), one span per layer call. */
void
runTracedCell(Context &ctx, size_t i)
{
    const runner::CellSpec &cs = ctx.cells[i];
    const runner::SweepSpec &sweep = ctx.sweeps[cs.sweep];
    SpanLog log(long(i), threadIndex());
    const size_t root = log.open("runner.cell", 0);
    const u64 rid = log.at(root).id;

    runner::CellResult c;
    std::string key;
    bool cached = false;
    if (ctx.cache) {
        log.timed("serve.key", rid,
                  [&] { key = serve::cellCacheKey(sweep, cs); });
        log.timed("serve.lookup", rid,
                  [&] { cached = ctx.cache->lookup(key, &c); });
    }
    std::string store_err;
    if (!cached) {
        const runner::MachineSpec &m = sweep.machines[cs.machine];
        const workloads::Workload &w = *sweep.wls[cs.wl];
        const unsigned num_sms = sweep.smsAt(cs.sms);
        const frontend::SchedPolicyKind pol =
            runner::effectivePolicy(sweep, cs.machine, cs.policy);
        const core::GpuConfig chip = runner::resolvedCellConfig(
            sweep, cs.machine, cs.sms, cs.policy);

        workloads::Instance inst;
        std::optional<core::Kernel> kernel;
        std::optional<core::Gpu> gpu;
        core::SimStats stats;
        bool verified = false;
        std::string verify_msg;
        log.timed("workloads.instance", rid,
                  [&] { inst = w.instance(sweep.size); });
        log.timed("cfg.compile", rid, [&] {
            kernel.emplace(
                core::Kernel::compile(inst.raw, inst.compile));
        });
        log.timed("core.gpu_build", rid, [&] { gpu.emplace(chip); });
        log.timed("workloads.init", rid,
                  [&] { w.init(gpu->memory(), sweep.size); });
        core::LaunchConfig lc;
        lc.grid_blocks = inst.grid_blocks;
        lc.block_threads = inst.block_threads;
        log.timed("core.launch", rid,
                  [&] { stats = gpu->launch(*kernel, lc); });
        log.timed("workloads.verify", rid, [&] {
            verified = w.verify(gpu->memory(), sweep.size,
                                &verify_msg);
        });
        log.at(root).skipped_sm_cycles = long(gpu->skippedCycles());

        c.sweep = sweep.name;
        c.machine = runner::cellMachineLabel(m.name, pol, num_sms);
        c.num_sms = num_sms;
        c.policy = frontend::schedPolicyName(pol);
        c.workload = w.name();
        c.size = runner::sizeClassName(sweep.size);
        c.excluded_from_means = w.excludedFromMeans();
        c.verified = verified;
        c.verify_msg = verify_msg;
        c.timed_out = stats.timed_out;
        c.stats = stats;
        c.ipc = stats.ipc();

        bool stored = true;
        if (ctx.cache) {
            log.timed("serve.store", rid, [&] {
                stored = ctx.cache->store(key, c, &store_err);
            });
        }
        if (!stored && store_err.empty())
            store_err = "cannot store cell " + std::to_string(i);
    }
    log.at(root).cached = cached;
    log.close(root);
    ctx.out->cells[i] = std::move(c);

    std::lock_guard<std::mutex> lock(ctx.mu);
    for (const Span &s : log.spans())
        ctx.spans.push_back(s);
    if (!store_err.empty())
        ctx.errors.push_back(store_err);
}

bool
writeTrace(const std::string &path, const std::vector<Span> &spans,
           unsigned jobs, double wall_s)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    std::fprintf(f, "{\"otherData\": {\"jobs\": %u, "
                    "\"cell_phase_s\": %.9f},\n\"traceEvents\": [\n",
                 jobs, wall_s);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"cell\": %ld, \"span\": %llu, "
                     "\"parent\": %llu",
                     s.name, (unsigned long long)s.tid, s.start_us,
                     s.end_us - s.start_us, s.cell,
                     (unsigned long long)s.id,
                     (unsigned long long)s.parent);
        if (s.skipped_sm_cycles >= 0)
            std::fprintf(f, ", \"skipped_sm_cycles\": %ld",
                         s.skipped_sm_cycles);
        if (s.cell >= 0 && s.parent == 0)
            std::fprintf(f, ", \"cached\": %s",
                         s.cached ? "true" : "false");
        std::fprintf(f, "}}%s\n", i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    const bool written = !std::ferror(f);
    return std::fclose(f) == 0 && written;
}

} // namespace

int
main(int argc, char **argv)
{
    runner::ArgList args(argc, argv);
    std::string spec_path, json_path, trace_path, cache_dir;
    unsigned jobs = 0;
    args.option("--spec", &spec_path);
    args.option("--json", &json_path);
    args.option("--trace-out", &trace_path);
    args.option("--cache", &cache_dir);
    args.intOption("-j", &jobs);
    if (!runner::finishArgs(args, "perfbench-trace") ||
        spec_path.empty() || json_path.empty() ||
        trace_path.empty()) {
        std::fprintf(stderr,
                     "usage: perfbench-trace --spec PATH --json OUT "
                     "--trace-out OUT [-j N] [--cache DIR]\n");
        return 3;
    }

    Context ctx;
    runner::MachineRegistry registry;
    std::string label, err;
    if (!runner::loadSpecFile(spec_path, &registry, &ctx.sweeps,
                              &label, &err)) {
        std::fprintf(stderr, "perfbench-trace: %s\n", err.c_str());
        return 3;
    }
    // The same normalization siwi-run and runSweeps() apply, so the
    // cell order and the results document match theirs.
    for (runner::SweepSpec &s : ctx.sweeps)
        s.dedupeMachines();
    std::erase_if(ctx.sweeps, [](const runner::SweepSpec &s) {
        return s.cellCount() == 0;
    });
    ctx.cells = runner::expandCells(ctx.sweeps);

    serve::ResultCache cache;
    if (!cache_dir.empty()) {
        if (!cache.open(cache_dir, 0, &err)) {
            std::fprintf(stderr, "perfbench-trace: %s\n",
                         err.c_str());
            return 4;
        }
        ctx.cache = &cache;
    }

    runner::Results res;
    res.suite = label;
    res.machines = runner::machineRecords(ctx.sweeps);
    res.cells.resize(ctx.cells.size());
    ctx.out = &res;

    const unsigned workers =
        runner::effectiveJobs(jobs, ctx.cells.size());
    const double cells_t0 = nowUs();
    {
        runner::CellExecutor pool(workers);
        for (size_t i = 0; i < ctx.cells.size(); ++i)
            pool.submit([&ctx, i] { runTracedCell(ctx, i); });
        // The destructor drains the queue, then joins.
    }
    const double cells_s = (nowUs() - cells_t0) * 1e-6;

    SpanLog log(-1, 0);
    bool saved = false;
    log.timed("runner.serialize", 0,
              [&] { saved = res.save(json_path, &err); });
    if (!saved) {
        std::fprintf(stderr, "perfbench-trace: %s\n", err.c_str());
        return 4;
    }
    for (const Span &s : log.spans())
        ctx.spans.push_back(s);

    for (const std::string &e : ctx.errors)
        std::fprintf(stderr, "perfbench-trace: %s\n", e.c_str());
    if (!writeTrace(trace_path, ctx.spans, workers, cells_s)) {
        std::fprintf(stderr, "perfbench-trace: cannot write %s\n",
                     trace_path.c_str());
        return 4;
    }
    std::printf("perfbench-trace: %zu cells on %u thread(s) in "
                "%.3fs, %zu spans\n",
                ctx.cells.size(), workers, cells_s,
                ctx.spans.size());
    return ctx.errors.empty() ? 0 : 4;
}
