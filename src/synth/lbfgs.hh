/**
 * @file
 * Limited-memory BFGS minimizer with backtracking line search: the
 * numerical-optimization engine behind circuit instantiation.
 *
 * The minimizer is an inverted-control state machine (LbfgsMachine):
 * it exposes the next point it wants evaluated and consumes the
 * objective value and gradient there. That lets the multistart
 * driver step many runs in lane lockstep through one batched cost
 * evaluation per tick; lbfgsMinimize() is the same machine driven by
 * a callable objective.
 */

#ifndef QUEST_SYNTH_LBFGS_HH
#define QUEST_SYNTH_LBFGS_HH

#include <functional>
#include <vector>

#include "resilience/budget.hh"

namespace quest {

/**
 * Objective callback: returns f(x); writes the gradient into @p grad
 * when it is non-null.
 */
using GradObjective =
    std::function<double(const std::vector<double> &x,
                         std::vector<double> *grad)>;

/** L-BFGS options. */
struct LbfgsOptions
{
    int maxIterations = 400;
    int historySize = 8;
    double gradTolerance = 1e-10;   //!< stop when ||g||_inf below this
    double valueTolerance = 1e-14;  //!< stop on relative f stagnation

    /**
     * Deadline/cancellation, polled once per iteration (an unbounded
     * budget costs two branches and no clock read). On exhaustion the
     * best point so far is returned with `stopped` set.
     */
    resilience::Budget budget;
};

/** Minimization outcome. */
struct LbfgsResult
{
    std::vector<double> x;
    double value = 0.0;
    int iterations = 0;
    bool converged = false;

    /** Why the loop quit early, if the budget fired. */
    resilience::StopReason stopped = resilience::StopReason::None;
};

/** One minimization in progress. */
class LbfgsMachine
{
  public:
    LbfgsMachine(std::vector<double> x0, const LbfgsOptions &options);

    /** True once the run has terminated; queryPoint() is then
     *  invalid and takeResult() is ready. */
    bool done() const { return phase == Phase::Finished; }

    /** The point to evaluate next (valid while !done()). */
    const std::vector<double> &queryPoint() const;

    /**
     * Deliver the objective value and gradient at queryPoint().
     * @p grad is swapped out (its post-call contents are
     * unspecified); the caller's buffer is reused round-robin.
     */
    void consume(double f, std::vector<double> &grad);

    /**
     * The finished result (valid once done()). Flushes the run's
     * lbfgs.* metrics, so take each result exactly once; a run
     * abandoned before it finished is never counted.
     */
    LbfgsResult takeResult();

    /** Objective evaluations consumed so far. */
    int evaluations() const { return evals; }

  private:
    enum class Phase
    {
        AwaitInitial,  //!< waiting for f/grad at the start point
        AwaitTrial,    //!< waiting for f/grad at a line-search trial
        Finished,
    };

    struct Pair
    {
        std::vector<double> s;
        std::vector<double> y;
        double rho;
    };

    void beginIteration();
    void proposeTrial();
    void finishWithValue();

    /** The h-th curvature pair, oldest first. */
    const Pair &
    pairAt(size_t h) const
    {
        return history[(oldest + h) % history.size()];
    }

    LbfgsOptions options;
    LbfgsResult result;
    Phase phase = Phase::AwaitInitial;
    size_t n = 0;
    int evals = 0;
    int iter = 0;
    bool capped = false;  //!< ended by options.maxIterations

    double f = 0.0;
    std::vector<double> grad;
    /**
     * The last historySize curvature pairs, a ring: pairs pairs from
     * slot oldest on. A new pair is built in spare and swapped into
     * its slot, so an evicted pair's buffers carry the next one and
     * accepted steps stop allocating once the ring is full.
     */
    std::vector<Pair> history;
    size_t oldest = 0;
    size_t pairs = 0;
    Pair spare;
    std::vector<double> direction, x_new, grad_new, alpha_buf;

    // Line-search state.
    double step = 1.0;
    double dir_deriv = 0.0;
    int ls = 0;
};

/** Minimize an unconstrained smooth objective from @p x0. */
LbfgsResult lbfgsMinimize(const GradObjective &objective,
                          std::vector<double> x0,
                          const LbfgsOptions &options = {});

} // namespace quest

#endif // QUEST_SYNTH_LBFGS_HH
