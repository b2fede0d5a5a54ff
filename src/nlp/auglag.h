// Augmented Lagrangian method for the Problem class — the same algorithm
// family as LANCELOT (Conn–Gould–Toint): bound constraints are handled by the
// inner solver, equality constraints by the multiplier/penalty outer loop
//
//   Psi(x; lambda, rho) = f(x) - sum_j lambda_j c_j(x) + (rho/2) sum_j c_j(x)^2
//
// with the classic update schedule (Nocedal & Wright, Alg. 17.4): when the
// inner solve ends sufficiently feasible, first-order multiplier update
// lambda <- lambda - rho c and tightened tolerances; otherwise rho increases.
//
// Hessian information is assembled from the per-element analytic Hessians:
//
//   H_Psi v = H_f v + sum_j (rho c_j - lambda_j) H_{c_j} v
//             + rho sum_j (grad c_j . v) grad c_j
//
// which is exactly why the paper needed closed-form second derivatives of the
// statistical max operator.

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "nlp/model.h"
#include "nlp/problem.h"

namespace statsize::nlp {

struct AugLagOptions {
  double initial_rho = 10.0;
  double rho_increase = 10.0;
  double max_rho = 1e10;
  double feasibility_tol = 1e-7;   ///< final ||c||_inf target
  double optimality_tol = 1e-6;    ///< final projected-gradient target
  int max_outer_iterations = 40;
  int max_inner_iterations = 400;  ///< trust-region iterations per subproblem
  bool verbose = false;
  /// Optional per-outer-iteration callback (iteration, x, ||c||, projgrad).
  std::function<void(int, const std::vector<double>&, double, double)> on_outer;
};

enum class SolveStatus {
  kConverged,       ///< feasibility and first-order optimality tolerances met
  kAcceptable,      ///< feasible and objective stagnant with the projected
                    ///< gradient within 10x optimality_tol: the inner solver
                    ///< could not certify the last factor (typically
                    ///< ill-conditioning near an active-bound solution)
  kMaxIterations,   ///< outer budget exhausted; best iterate returned
  kStalled,         ///< no progress: infeasible at max_rho, or feasible and
                    ///< objective stagnant with the projected gradient
                    ///< beyond 10x optimality_tol
  kTimeLimit,       ///< a runtime::CancelScope deadline/cancel fired; the
                    ///< best checkpoint seen is returned (DESIGN.md §9)
  kNumericalBreakdown,  ///< a non-finite evaluation tripwire fired; the best
                        ///< checkpoint is returned and `breakdown_site` names
                        ///< the offending element/constraint
};

struct SolveResult {
  SolveStatus status = SolveStatus::kMaxIterations;
  std::vector<double> x;
  std::vector<double> multipliers;
  double objective = 0.0;
  double constraint_violation = 0.0;
  double projected_gradient = 0.0;
  int outer_iterations = 0;
  int inner_iterations = 0;
  double final_rho = 0.0;

  // Resilience provenance (meaningful for kTimeLimit / kNumericalBreakdown,
  // where the returned iterate is the best checkpoint rather than the last
  // point the inner solver touched).
  bool from_checkpoint = false;  ///< x restored from the best-iterate checkpoint
  int checkpoint_outer = -1;     ///< outer iteration the checkpoint was taken
                                 ///< after (-1 = the clamped start point)
  std::string breakdown_site;    ///< EvalBreakdown tripwire detail, else empty

  bool ok() const {
    return status == SolveStatus::kConverged || status == SolveStatus::kAcceptable;
  }
  std::string status_string() const;
};

/// Least-squares multiplier estimate at `x`:
///
///   argmin_lambda || P (grad f(x) - J(x)^T lambda) ||_2
///
/// where J is the constraint Jacobian and P keeps only the variables more
/// than `held_tol` from a finite bound. At a feasible x, grad Psi = grad f -
/// J^T lambda for any rho, so these multipliers make the projected gradient
/// the inner solver tests as small as it can be there: started from a KKT
/// point with them, the augmented Lagrangian needs no walk back. A variable
/// within `held_tol` of its bound adds at most `held_tol` to that projected
/// gradient when its gradient pushes into the bound, so pass the optimality
/// tolerance. A much smaller span counts barely-inactive slacks as free and
/// forces their constraints' multipliers to zero.
///
/// Solved by CGLS on a CSR copy of J's free columns, built once, with each
/// row scaled to unit norm (that column scaling of the least-squares matrix
/// roughly halves the iterations on the sizing problems). A constraint that
/// touches no free variable gets lambda = 0. Serial, so the result is the
/// same at any thread count.
std::vector<double> least_squares_multipliers(const Problem& problem, const std::vector<double>& x,
                                              double held_tol);

/// Solves `problem` starting from problem.start().
SolveResult solve_augmented_lagrangian(const Problem& problem, const AugLagOptions& options = {});

/// Solves `problem` starting from problem.start() with the given initial
/// multipliers (one per constraint; empty means zeros, which is exactly the
/// plain overload; any other size throws std::invalid_argument). Sizer passes
/// least_squares_multipliers at its pre-solved start, so the outer loop starts
/// at the first-order point instead of re-estimating lambda from zero.
SolveResult solve_augmented_lagrangian(const Problem& problem, const AugLagOptions& options,
                                       const std::vector<double>& multipliers);

/// The Psi model itself — exposed for tests and for reuse by the
/// reduced-space sizer's constraint handling.
class AugLagModel final : public SmoothModel {
 public:
  AugLagModel(const Problem& problem, std::vector<double> multipliers, double rho);

  int num_vars() const override { return problem_->num_vars(); }

  /// Psi and (optionally) its gradient: a serial loop over the objective and
  /// then the constraint groups in ascending j, so the result is the same at
  /// any thread count (see DESIGN.md §7). With a gradient it also refreshes
  /// the element snapshots hess_vec reads.
  double eval(const std::vector<double>& x, std::vector<double>* grad) override;

  /// Hessian-vector product from the element snapshots of the last gradient
  /// evaluation: a serial scatter over the snapshots, then the Gauss-Newton
  /// constraint terms in ascending j.
  void hess_vec(const std::vector<double>& v, std::vector<double>& hv) const override;

  void set_rho(double rho) { rho_ = rho; }
  void set_multipliers(std::vector<double> m) { multipliers_ = std::move(m); }
  double rho() const { return rho_; }
  const Problem& problem() const { return *problem_; }
  const std::vector<double>& multipliers() const { return multipliers_; }
  const std::vector<double>& constraint_values() const { return c_; }

 private:
  struct ElementSnapshot {
    const ElementFunction* fn;
    const int* vars;
    double weight;       ///< group weight at snapshot time (incl. y_j factor)
    double* hess;        ///< packed Hessian storage
  };

  const Problem* problem_;
  std::vector<double> multipliers_;
  double rho_;

  // Snapshot state for hess_vec (refreshed on every gradient evaluation):
  // the objective's elements first, then each constraint's in ascending j,
  // the order eval visits them.
  std::vector<double> c_;                       ///< constraint values
  std::vector<ElementSnapshot> snapshots_;      ///< all elements with weights
  std::vector<double> hess_storage_;            ///< packed Hessians, contiguous
  std::vector<std::vector<int>> cgrad_idx_;     ///< sparse grad c_j indices
  std::vector<std::vector<double>> cgrad_val_;  ///< sparse grad c_j values
};

}  // namespace statsize::nlp
