// Projected L-BFGS for bound-constrained smooth minimization.
//
// Used by the reduced-space sizing mode, where the only variables are the
// speed factors S in [1, limit] and the objective/constraint values come from
// a forward SSTA sweep with adjoint gradients (no cheap Hessian available —
// hence quasi-Newton instead of the Newton-CG machinery in tron.h).
//
// The quasi-Newton direction acts on the free variables only: a variable is
// held when it sits at its lower bound with g > 0 or at its upper bound with
// g < 0, and its gradient entry is zeroed before the two-loop recursion and
// its direction entry after it (Bertsekas' two-metric projection). The step
// is then a descent direction, so a line search does not have to shrink its
// way past the held variables' outward pull.

#pragma once

#include <functional>
#include <vector>

namespace statsize::nlp {

/// Objective callback: returns f(x) and fills grad (same size as x). The
/// solver calls it once per line-search trial.
using GradFn = std::function<double(const std::vector<double>&, std::vector<double>&)>;

/// Objective callback with an optional gradient: returns f(x), and fills
/// *grad (same size as x) when grad is non-null. Line-search trials ask for
/// the value only; the gradient is requested at accepted points only, each
/// time right after the value-only call at the same x — so an evaluator can
/// record its forward pass on the value call and reuse it for the gradient.
using ValueGradFn = std::function<double(const std::vector<double>&, std::vector<double>* grad)>;

struct LbfgsOptions {
  double tol = 1e-6;  ///< projected-gradient infinity norm
  int max_iterations = 500;
  int history = 10;
  double min_step = 1e-14;
  bool verbose = false;
};

struct LbfgsResult {
  double objective = 0.0;
  double projected_gradient = 0.0;
  int iterations = 0;
  /// Points whose objective value was computed: the start plus every
  /// line-search trial (a forward pass each, for a sweep-based evaluator).
  int evaluations = 0;
  /// Gradients computed: every trial for a GradFn, the start and the
  /// accepted points for a ValueGradFn.
  int gradients = 0;
  bool converged = false;
};

LbfgsResult minimize_projected_lbfgs(const GradFn& fn, std::vector<double>& x,
                                     const std::vector<double>& lower,
                                     const std::vector<double>& upper,
                                     const LbfgsOptions& options = {});

LbfgsResult minimize_projected_lbfgs(const ValueGradFn& fn, std::vector<double>& x,
                                     const std::vector<double>& lower,
                                     const std::vector<double>& upper,
                                     const LbfgsOptions& options = {});

}  // namespace statsize::nlp
