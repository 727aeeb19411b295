#include "synth/lbfgs.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hh"
#include "util/logging.hh"
#include "util/names.hh"

namespace quest {

namespace {

double
dot(const std::vector<double> &a, const std::vector<double> &b)
{
    double sum = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        sum += a[i] * b[i];
    return sum;
}

double
infNorm(const std::vector<double> &v)
{
    double worst = 0.0;
    for (double x : v)
        worst = std::max(worst, std::abs(x));
    return worst;
}

/** Flush one finished run's iteration/evaluation tallies to the
 *  metrics registry. */
void
tallyRun(int evaluations, int iterations, bool capped)
{
    static auto &calls =
        obs::MetricsRegistry::global().counter(names::kMetricLbfgsCalls);
    static auto &iters =
        obs::MetricsRegistry::global().counter(names::kMetricLbfgsIterations);
    static auto &evals = obs::MetricsRegistry::global().counter(
        names::kMetricLbfgsEvaluations);
    static auto &iter_hist = obs::MetricsRegistry::global().histogram(
        names::kMetricLbfgsIterationsPerCall);
    static auto &cap_hits =
        obs::MetricsRegistry::global().counter(names::kMetricLbfgsCapHits);
    calls.increment();
    evals.add(static_cast<uint64_t>(evaluations));
    iters.add(static_cast<uint64_t>(iterations));
    iter_hist.record(static_cast<uint64_t>(iterations));
    if (capped)
        cap_hits.increment();
}

} // namespace

LbfgsMachine::LbfgsMachine(std::vector<double> x0,
                           const LbfgsOptions &options)
    : options(options), n(x0.size())
{
    result.x = std::move(x0);
    grad.resize(n);
    direction.resize(n);
    x_new.resize(n);
    grad_new.resize(n);
}

const std::vector<double> &
LbfgsMachine::queryPoint() const
{
    QUEST_ASSERT(phase != Phase::Finished,
                 "queryPoint() on a finished machine");
    return phase == Phase::AwaitInitial ? result.x : x_new;
}

void
LbfgsMachine::finishWithValue()
{
    result.value = f;
    phase = Phase::Finished;
}

void
LbfgsMachine::proposeTrial()
{
    for (size_t i = 0; i < n; ++i)
        x_new[i] = result.x[i] + step * direction[i];
    phase = Phase::AwaitTrial;
}

void
LbfgsMachine::beginIteration()
{
    // The top of one iteration, through its first line-search trial
    // proposal.
    if (iter >= options.maxIterations) {
        capped = true;
        finishWithValue();
        return;
    }

    // The per-iteration safe point: a cancelled or overdue run stops
    // here with the best point found so far.
    const resilience::StopReason stop = options.budget.stop();
    if (stop != resilience::StopReason::None) {
        result.stopped = stop;
        finishWithValue();
        return;
    }

    result.iterations = iter + 1;
    if (infNorm(grad) < options.gradTolerance) {
        result.converged = true;
        finishWithValue();
        return;
    }

    // Two-loop recursion: direction = -H g.
    direction = grad;
    alpha_buf.assign(pairs, 0.0);
    for (size_t h = pairs; h-- > 0;) {
        const Pair &p = pairAt(h);
        double a = p.rho * dot(p.s, direction);
        alpha_buf[h] = a;
        for (size_t i = 0; i < n; ++i)
            direction[i] -= a * p.y[i];
    }
    if (pairs > 0) {
        const Pair &last = pairAt(pairs - 1);
        double gamma = dot(last.s, last.y) / dot(last.y, last.y);
        for (double &d : direction)
            d *= gamma;
    }
    for (size_t h = 0; h < pairs; ++h) {
        const Pair &p = pairAt(h);
        double beta = p.rho * dot(p.y, direction);
        for (size_t i = 0; i < n; ++i)
            direction[i] += p.s[i] * (alpha_buf[h] - beta);
    }
    for (double &d : direction)
        d = -d;

    dir_deriv = dot(grad, direction);
    if (dir_deriv >= 0.0) {
        // Not a descent direction: reset to steepest descent.
        oldest = 0;
        pairs = 0;
        for (size_t i = 0; i < n; ++i)
            direction[i] = -grad[i];
        dir_deriv = -dot(grad, grad);
    }

    step = 1.0;
    ls = 0;
    proposeTrial();
}

void
LbfgsMachine::consume(double fval, std::vector<double> &g)
{
    QUEST_ASSERT(phase != Phase::Finished, "consume() on a finished machine");
    ++evals;

    if (phase == Phase::AwaitInitial) {
        if (!std::isfinite(fval)) {
            // A non-finite objective at the starting point cannot be
            // optimized (every Armijo test would fail); report a
            // diverged run instead of comparing against NaN below.
            static auto &nonfinite = obs::MetricsRegistry::global().counter(
                names::kMetricLbfgsNonfiniteObjectives);
            nonfinite.increment();
            result.value = std::numeric_limits<double>::infinity();
            phase = Phase::Finished;
            return;
        }
        f = fval;
        grad.swap(g);
        if (n == 0) {
            result.value = f;
            result.converged = true;
            phase = Phase::Finished;
            return;
        }
        iter = 0;
        beginIteration();
        return;
    }

    // A line-search trial came back: Armijo test, then either accept
    // (curvature update, stagnation check, next iteration) or shrink
    // the step by quadratic interpolation and retry.
    const double f_new = fval;
    grad_new.swap(g);
    constexpr double c1 = 1e-4;
    if (f_new <= f + c1 * step * dir_deriv) {
        Pair &p = spare;
        p.s.resize(n);
        p.y.resize(n);
        for (size_t i = 0; i < n; ++i) {
            p.s[i] = x_new[i] - result.x[i];
            p.y[i] = grad_new[i] - grad[i];
        }
        double sy = dot(p.s, p.y);
        const size_t cap =
            static_cast<size_t>(std::max(options.historySize, 0));
        if (sy > 1e-12 && cap > 0) {
            p.rho = 1.0 / sy;
            // The slot after the newest pair, which is the oldest one
            // when the ring is full; spare takes its buffers. Slots
            // fill from 0 up before the ring first wraps (a reset
            // restarts at slot 0), so a new slot is always the next
            // one to append.
            const size_t slot = (oldest + pairs) % cap;
            if (slot == history.size()) {
                history.push_back(std::move(p));
                p = Pair{};
            } else {
                std::swap(p, history[slot]);
            }
            if (pairs < cap)
                ++pairs;
            else
                oldest = (oldest + 1) % cap;
        }

        double f_old = f;
        result.x = x_new;
        grad.swap(grad_new);
        f = f_new;

        if (std::abs(f_old - f) <=
            options.valueTolerance * std::max(1.0, std::abs(f_old))) {
            result.converged = true;
            finishWithValue();
            return;
        }
        ++iter;
        beginIteration();
        return;
    }

    double denom = 2.0 * (f_new - f - dir_deriv * step);
    double interpolated =
        denom > 0.0 ? -dir_deriv * step * step / denom : 0.5 * step;
    step = std::clamp(interpolated, 0.1 * step, 0.5 * step);
    ++ls;
    if (ls >= 40) {
        result.converged = infNorm(grad) < 1e-6;
        finishWithValue();
        return;
    }
    proposeTrial();
}

LbfgsResult
LbfgsMachine::takeResult()
{
    QUEST_ASSERT(phase == Phase::Finished,
                 "takeResult() on an unfinished machine");
    tallyRun(evals, result.iterations, capped);
    return std::move(result);
}

LbfgsResult
lbfgsMinimize(const GradObjective &objective, std::vector<double> x0,
              const LbfgsOptions &options)
{
    // Presized: objectives may write the gradient without resizing.
    std::vector<double> grad(x0.size());
    LbfgsMachine machine(std::move(x0), options);
    while (!machine.done()) {
        const double f = objective(machine.queryPoint(), &grad);
        machine.consume(f, grad);
    }
    return machine.takeResult();
}

} // namespace quest
