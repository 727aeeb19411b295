#include "synth/leap_synthesizer.hh"

#include <algorithm>
#include <cmath>
#include <optional>

#include "linalg/decompose.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "resilience/error.hh"
#include "resilience/fault.hh"
#include "resilience/thread_pool.hh"
#include "synth/synth_cache.hh"
#include "util/logging.hh"
#include "verify/verifier.hh"
#include "util/names.hh"
#include "util/annotations.hh"

namespace quest {

namespace {

/**
 * Structural lint over every recorded candidate: native gate set on
 * the right wire count, and a CNOT count that matches the circuit.
 * Any failure is a synthesizer bug.
 */
void
verifyCandidates(const SynthOutput &out, int n)
{
    CircuitVerifier verifier({.requireNative = true,
                              .allowPseudoOps = false,
                              .maxIssues = 16});
    for (size_t i = 0; i < out.candidates.size(); ++i) {
        const SynthCandidate &c = out.candidates[i];
        QUEST_ASSERT(c.circuit.numQubits() == n,
                     "candidate ", i, " spans ",
                     c.circuit.numQubits(), " wires; target has ", n);
        QUEST_ASSERT(static_cast<size_t>(c.cnotCount) ==
                     c.circuit.cnotCount(),
                     "candidate ", i, " reports ", c.cnotCount,
                     " CNOTs but contains ", c.circuit.cnotCount());
        VerifyReport report = verifier.verify(c.circuit);
        if (!report.ok()) {
            QUEST_PANIC("synthesis candidate ", i,
                        " failed verification:\n", report.toString());
        }
    }
}

/**
 * Deep validation of a cache-loaded output. Disk bytes are untrusted
 * even after checksums: a stale or foreign entry must never reach the
 * pipeline, so every candidate is re-linted (native gate set, wires,
 * finite angles) and the summary fields are cross-checked. A failure
 * here is a reason to invalidate and re-synthesize, never to crash.
 */
bool
loadedOutputUsable(const SynthOutput &out, int n)
{
    if (out.candidates.empty() ||
        out.bestIndex >= out.candidates.size()) {
        return false;
    }
    const CircuitVerifier verifier({.requireNative = true,
                                    .allowPseudoOps = false,
                                    .maxIssues = 1});
    for (const SynthCandidate &c : out.candidates) {
        if (c.circuit.numQubits() != n)
            return false;
        if (c.cnotCount < 0 ||
            static_cast<size_t>(c.cnotCount) != c.circuit.cnotCount()) {
            return false;
        }
        if (!std::isfinite(c.distance) || c.distance < 0.0)
            return false;
        if (!verifier.verify(c.circuit).ok())
            return false;
    }
    return true;
}

/** Searches actually performed (not served by any cache layer). */
obs::Counter &
searchCounter()
{
    static auto &c = obs::MetricsRegistry::global().counter(
        names::kMetricSynthCacheMisses);
    return c;
}

/** Searches avoided via the persistent store (the pipeline's
 *  in-memory dedup adds to the same counter). */
obs::Counter &
diskHitCounter()
{
    static auto &c = obs::MetricsRegistry::global().counter(
        names::kMetricSynthCacheHits);
    return c;
}

int
log2Dim(size_t dim)
{
    int n = 0;
    while ((size_t{1} << n) < dim)
        ++n;
    QUEST_ASSERT((size_t{1} << n) == dim, "dimension not a power of two");
    return n;
}

/** A live tree node: structure plus its best instantiation. */
struct Node
{
    Ansatz ansatz;
    std::vector<double> params;
    double distance;
};

/**
 * Fixed pair schedules for the auxiliary lineages. Greedy tree search
 * over a distance heuristic dead-ends when the landscape is
 * non-monotonic in depth (adding a layer can make the best achievable
 * distance temporarily worse before it collapses), so the compiler
 * also grows fixed-structure lineages that are known to converge:
 * a nearest-neighbor brickwork ladder (even bonds then odd bonds) and
 * an all-pairs round-robin ladder.
 */
std::vector<std::pair<int, int>>
brickworkSchedule(int n)
{
    std::vector<std::pair<int, int>> schedule;
    for (int i = 0; i + 1 < n; i += 2)
        schedule.emplace_back(i, i + 1);
    for (int i = 1; i + 1 < n; i += 2)
        schedule.emplace_back(i, i + 1);
    return schedule;
}

std::vector<std::pair<int, int>>
allPairsSchedule(int n)
{
    // Ordered by wire distance so the cycle starts like brickwork
    // but also reaches the long-range pairs.
    std::vector<std::pair<int, int>> schedule;
    for (int d = 1; d < n; ++d)
        for (int a = 0; a + d < n; ++a)
            schedule.emplace_back(a, a + d);
    return schedule;
}

/** Translate a fired budget into the structured error the pipeline's
 *  per-block handler maps to a timeout/cancelled BlockOutcome. */
[[noreturn]] void
throwBudgetExhausted(resilience::StopReason reason, int level)
{
    using resilience::ErrorCategory;
    const auto category = reason == resilience::StopReason::Cancelled
                              ? ErrorCategory::Cancelled
                              : ErrorCategory::Timeout;
    throw resilience::QuestError(
        category, std::string("synthesis budget exhausted (") +
                      resilience::stopReasonName(reason) + ")")
        .withContext("at synthesis level " + std::to_string(level));
}

} // namespace

LeapSynthesizer::LeapSynthesizer(SynthConfig config)
    : cfg(std::move(config))
{
    QUEST_ASSERT(cfg.beamWidth >= 1, "beam width must be positive");
    QUEST_ASSERT(cfg.reseedInterval >= 1, "reseed interval must be >= 1");
}

SynthOutput
LeapSynthesizer::synthesize(const Matrix &target, int max_cnots,
                            const std::vector<std::pair<int, int>>
                                *skeleton) const
{
    QUEST_TRACE_SCOPE("synth.synthesize");
    static auto &synth_calls =
        obs::MetricsRegistry::global().counter(names::kMetricSynthCalls);
    synth_calls.increment();

    const int n = log2Dim(target.rows());
    QUEST_ASSERT(target.isUnitary(1e-8), "synthesis target not unitary");

    std::string cache_key;
    if (cfg.cache) {
        cache_key = synthesisCacheKey(target, max_cnots, skeleton, cfg);
        if (auto loaded = cfg.cache->load(cache_key)) {
            if (loadedOutputUsable(*loaded, n)) {
                diskHitCounter().increment();
                return *std::move(loaded);
            }
            // The store's own integrity checks passed but the content
            // is not a valid output for this target: drop the entry
            // and synthesize fresh.
            obs::MetricsRegistry::global()
                .counter(names::kMetricCacheCorrupt)
                .increment();
            warn("synthesis cache: entry ", cache_key,
                 " failed deep validation; re-synthesizing");
            cfg.cache->invalidate(cache_key);
        }
    }
    searchCounter().increment();

    // Deterministic chaos hooks: force this block's synthesis to fail
    // the way a diverging or runaway search would, after the cache
    // consult (a cached block never re-fails) and before any work.
    if (QUEST_FAULT_POINT(names::kFaultSynthBlockDiverge)) {
        throw resilience::QuestError(resilience::ErrorCategory::Diverged,
                                     "injected synthesis divergence");
    }
    if (QUEST_FAULT_POINT(names::kFaultSynthBlockTimeout)) {
        throw resilience::QuestError(resilience::ErrorCategory::Timeout,
                                     "injected synthesis timeout");
    }

    SynthOutput out;

    if (n == 1) {
        // One-qubit targets decompose analytically.
        ZyzAngles a = zyzDecompose(target);
        Circuit c(1);
        c.append(Gate::u3(0, a.theta, a.phi, a.lambda));
        out.candidates.push_back({std::move(c), 0.0, 0});
        out.bestIndex = 0;
        if (cfg.verifyCandidates)
            verifyCandidates(out, n);
        if (cfg.cache)
            cfg.cache->store(cache_key, out);
        return out;
    }

    Rng rng(cfg.seed);

    // Worker threads for the per-level instantiations: a shared pool
    // when the caller provides one (cooperative parallelFor, so this
    // is safe even from inside the caller's own parallelFor), else a
    // private pool of cfg.threads - 1 workers — the calling thread
    // participates, so cfg.threads is the total busy-thread count.
    // Each sibling group's multistarts run lane-lockstep on the
    // group's thread.
    ThreadPool *pool = cfg.pool;
    std::optional<ThreadPool> local_pool;
    if (!pool && cfg.threads > 1) {
        local_pool.emplace(cfg.threads - 1);
        pool = &*local_pool;
    }

    InstantiaterOptions inst = cfg.inst;
    inst.goal = cfg.exactEpsilon * cfg.exactEpsilon;
    inst.budget = inst.budget.withDeadline(cfg.budget.deadline);
    if (!inst.budget.cancel)
        inst.budget.cancel = cfg.budget.cancel;

    // The brickwork lineage is one task out of ~pairs-per-level, so
    // giving it a stronger optimization budget is cheap and makes the
    // guaranteed-convergence path actually converge.
    InstantiaterOptions brick_inst = inst;
    brick_inst.multistarts = 2 * inst.multistarts;
    brick_inst.lbfgs.maxIterations = 2 * inst.lbfgs.maxIterations;

    // Level 0: U3 on every wire.
    std::vector<Node> frontier;
    {
        Ansatz a = Ansatz::initialLayer(n);
        InstantiationResult r = instantiate(target, a, rng, inst);
        out.candidates.push_back(
            {a.instantiate(r.params), r.distance, 0});
        frontier.push_back({std::move(a), std::move(r.params),
                            r.distance});
    }

    // Allowed CNOT placements: all unordered wire pairs, or the
    // configured coupling graph (the CX direction is absorbed by the
    // surrounding U3s either way).
    std::vector<std::pair<int, int>> pairs;
    if (cfg.couplings.empty()) {
        for (int a = 0; a < n; ++a)
            for (int b = a + 1; b < n; ++b)
                pairs.emplace_back(a, b);
    } else {
        for (auto [a, b] : cfg.couplings) {
            QUEST_ASSERT(a >= 0 && a < n && b >= 0 && b < n && a != b,
                         "bad coupling (", a, ",", b, ")");
            pairs.emplace_back(std::min(a, b), std::max(a, b));
        }
        std::sort(pairs.begin(), pairs.end());
        pairs.erase(std::unique(pairs.begin(), pairs.end()),
                    pairs.end());
    }

    // The dedicated fixed-schedule lineages grow one layer per level.
    struct Lineage
    {
        Node node;
        std::vector<std::pair<int, int>> schedule;
    };
    std::vector<Lineage> lineages;
    if (cfg.couplings.empty()) {
        lineages.push_back({frontier.front(), brickworkSchedule(n)});
        if (n > 2) {
            auto all = allPairsSchedule(n);
            if (all != lineages.front().schedule)
                lineages.push_back({frontier.front(), std::move(all)});
        }
    } else {
        // Topology-restricted: cycle the coupling edges round-robin.
        lineages.push_back({frontier.front(), pairs});
    }
    if (skeleton && !skeleton->empty()) {
        // Following the original circuit's own CX ordering keeps the
        // exact solution (and its shorter prefixes) in the tree.
        std::vector<std::pair<int, int>> sched = *skeleton;
        bool duplicate = false;
        for (const Lineage &l : lineages)
            duplicate |= l.schedule == sched;
        if (!duplicate)
            lineages.push_back({frontier.front(), std::move(sched)});
    }

    const int budget = std::min(max_cnots, cfg.maxLayers);
    double best_overall = frontier.front().distance;
    int levels_past_exact = 0;
    int stall = 0;

    static auto &levels_counter =
        obs::MetricsRegistry::global().counter(names::kMetricSynthLevels);
    static auto &tasks_counter =
        obs::MetricsRegistry::global().counter(names::kMetricSynthTasks);

    for (int level = 1; level <= budget; ++level) {
        QUEST_TRACE_SCOPE("synth.level");
        if (const auto stop = cfg.budget.stop();
            stop != resilience::StopReason::None) {
            throwBudgetExhausted(stop, level);
        }
        levels_counter.increment();
        // Build the level's task list: every (frontier node, pair)
        // expansion plus the brickwork lineage.
        struct Task
        {
            Ansatz ansatz;
            const std::vector<double> *warm;
            Rng rng;
            bool isBrick;
        };
        std::vector<Task> tasks;
        for (const Node &parent : frontier) {
            for (auto [a, b] : pairs) {
                Ansatz child = parent.ansatz;
                child.addLayer(a, b);
                tasks.push_back({std::move(child), &parent.params,
                                 rng.split(), false});
            }
        }
        for (Lineage &lineage : lineages) {
            auto [a, b] = lineage.schedule[static_cast<size_t>(level - 1) %
                                           lineage.schedule.size()];
            lineage.node.ansatz.addLayer(a, b);
            tasks.push_back({lineage.node.ansatz, &lineage.node.params,
                             rng.split(), true});
        }

        tasks_counter.add(tasks.size());
        // Group the tasks into sibling sets (Ansatz::isSiblingOf): the
        // children of one frontier node, plus any lineage whose node
        // has that node's structure. Each group is one lane-lockstep
        // instantiation, and each task's result is what instantiating
        // it alone would give, so the grouping never shows in the
        // output.
        std::vector<std::vector<size_t>> groups;
        for (size_t i = 0; i < tasks.size(); ++i) {
            auto group = std::find_if(
                groups.begin(), groups.end(), [&](const auto &g) {
                    return tasks[g.front()].ansatz.isSiblingOf(
                        tasks[i].ansatz);
                });
            if (group == groups.end())
                groups.push_back({i});
            else
                group->push_back(i);
        }
        std::vector<Node> children(tasks.size(),
                                   Node{Ansatz(n), {}, 1.0});
        auto run_group = [&](size_t g) {
            std::vector<InstantiationTask> batch;
            for (size_t i : groups[g]) {
                Task &t = tasks[i];
                batch.push_back({t.ansatz, t.rng,
                                 t.isBrick ? brick_inst : inst, t.warm});
            }
            std::vector<InstantiationResult> results =
                instantiateSiblings(target, batch);
            for (size_t k = 0; k < groups[g].size(); ++k) {
                const size_t i = groups[g][k];
                children[i] = {std::move(tasks[i].ansatz),
                               std::move(results[k].params),
                               results[k].distance};
            }
        };
        if (pool) {
            pool->parallelFor(groups.size(), run_group, cfg.budget.cancel);
        } else {
            for (size_t g = 0; g < groups.size(); ++g) {
                if (cfg.budget.exhausted())
                    break;
                run_group(g);
            }
        }
        // A fired budget can leave unclaimed tasks untouched
        // (default-constructed children with no circuit behind them);
        // bail out before any of those could be recorded.
        if (const auto stop = cfg.budget.stop();
            stop != resilience::StopReason::None) {
            throwBudgetExhausted(stop, level);
        }
        for (size_t l = 0; l < lineages.size(); ++l)
            lineages[l].node =
                children[children.size() - lineages.size() + l];

        std::sort(children.begin(), children.end(),
                  [](const Node &x, const Node &y) {
                      return x.distance < y.distance;
                  });

        // Record the best candidates at this CNOT level.
        const int keep = std::min<int>(cfg.candidatesPerLevel,
                                       static_cast<int>(children.size()));
        for (int i = 0; i < keep; ++i) {
            QUEST_BOUNDED_LOOP("keep <= candidatesPerLevel, a small "
                               "config constant; instantiate() here "
                               "is a cheap parameter bind");
            // Diverged instantiations carry an infinite distance (and
            // sort last); recording them would produce an output that
            // can never pass the cache's deep validation.
            if (!std::isfinite(children[i].distance))
                break;
            out.candidates.push_back(
                {children[i].ansatz.instantiate(children[i].params),
                 children[i].distance, level});
        }

        // New frontier: beam, with LEAP prefix reseeding collapsing
        // to the single best node every reseedInterval levels.
        int width = (level % cfg.reseedInterval == 0)
                        ? 1
                        : cfg.beamWidth;
        width = std::min<int>(width, static_cast<int>(children.size()));
        frontier.assign(std::make_move_iterator(children.begin()),
                        std::make_move_iterator(children.begin() + width));

        // Termination: exact solution reached (explore a few extra
        // levels so above-minimum CNOT counts are represented), or
        // the distance has stopped improving.
        if (frontier.front().distance < cfg.exactEpsilon) {
            if (++levels_past_exact > cfg.extraLevels)
                break;
            continue;
        }
        if (frontier.front().distance < best_overall * 0.99) {
            best_overall = frontier.front().distance;
            stall = 0;
        } else if (++stall >= std::max(cfg.stallLevels, 2 * (n - 1))) {
            break;
        }
    }

    std::stable_sort(out.candidates.begin(), out.candidates.end(),
                     [](const SynthCandidate &x, const SynthCandidate &y) {
                         if (x.cnotCount != y.cnotCount)
                             return x.cnotCount < y.cnotCount;
                         return x.distance < y.distance;
                     });
    // Preferred candidate: the first (shortest, candidates being
    // CNOT-sorted) one that counts as exact, matching the selection
    // synthesizeExact makes; with no exact candidate, fall back to
    // the global minimum distance.
    out.bestIndex = 0;
    size_t argmin = 0;
    bool have_exact = false;
    for (size_t i = 0; i < out.candidates.size(); ++i) {
        if (out.candidates[i].distance <
            out.candidates[argmin].distance) {
            argmin = i;
        }
        if (!have_exact &&
            out.candidates[i].distance < cfg.exactEpsilon) {
            have_exact = true;
            out.bestIndex = i;
        }
    }
    if (!have_exact)
        out.bestIndex = argmin;
    static auto &candidates_counter =
        obs::MetricsRegistry::global().counter(names::kMetricSynthCandidates);
    candidates_counter.add(out.candidates.size());

    // Cache-purity gate: the budget may have fired inside the final
    // level's instantiations without tripping a loop poll. Exhaustion
    // is monotone (a deadline stays expired, a token stays
    // cancelled), so "not exhausted here" proves the whole search ran
    // unbounded — only such complete, deterministic outputs may be
    // published to the cache or returned.
    if (const auto stop = cfg.budget.stop();
        stop != resilience::StopReason::None) {
        throwBudgetExhausted(stop, budget);
    }

    if (cfg.verifyCandidates)
        verifyCandidates(out, n);
    if (cfg.cache)
        cfg.cache->store(cache_key, out);
    return out;
}

SynthCandidate
LeapSynthesizer::synthesizeExact(const Matrix &target, double epsilon,
                                 int max_cnots) const
{
    SynthOutput out = synthesize(target, max_cnots);
    for (const SynthCandidate &c : out.candidates) {
        if (c.distance < epsilon)
            return c;  // candidates are sorted by CNOT count
    }
    return out.best();
}

} // namespace quest
