// Element functions and function groups — the partially-separable problem
// structure LANCELOT is built around (Conn, Gould & Toint, 1992), which the
// paper exploits: every constraint of the sizing formulation (eq. 17) touches
// only a handful of variables, and its nonlinearity is confined to small
// "elements" (a Clark max over four variables, a product S*mu over two, a
// square over one). Carrying analytic gradients and Hessians per element is
// exactly the "first and second order derivative information" the paper says
// LANCELOT needs to deal with highly nonlinear problems efficiently.

#pragma once

#include <memory>
#include <vector>

namespace statsize::nlp {

/// Hard upper bound on ElementFunction::arity(). Evaluation paths stage
/// element-local values/gradients in fixed stack buffers of this size
/// (FunctionGroup::eval / accumulate_grad, AugLagModel::eval / hess_vec), so
/// a larger element would be a stack-buffer overflow. Problem::validate(),
/// Problem::own() and the AugLagModel constructor all reject violations with
/// a named diagnostic before any such buffer is touched.
inline constexpr int kMaxElementArity = 16;

/// A smooth function of a small number of "local" variables with analytic
/// gradient and (packed upper-triangle, row-major) Hessian. Implementations
/// must be stateless with respect to eval: one instance serves every
/// ElementRef that points at it.
class ElementFunction {
 public:
  virtual ~ElementFunction() = default;

  virtual int arity() const = 0;

  /// Evaluates at the local point `x` (arity() entries). If `grad` is
  /// non-null it receives arity() entries; if `hess` is non-null it receives
  /// arity()*(arity()+1)/2 packed entries. Returns the value.
  virtual double eval(const double* x, double* grad, double* hess) const = 0;
};

/// Packed-index helper shared with autodiff::Dual2 layout.
constexpr int packed_index(int n, int i, int j) {
  if (i > j) {
    const int t = i;
    i = j;
    j = t;
  }
  return i * n - i * (i - 1) / 2 + (j - i);
}

struct LinearTerm {
  int var = 0;
  double coef = 0.0;
};

/// Reference to an element within a group: which global variables feed its
/// local arguments, and a scalar weight.
struct ElementRef {
  const ElementFunction* fn = nullptr;
  std::vector<int> vars;  ///< size == fn->arity()
  double weight = 1.0;
};

/// g(x) = constant + sum_k coef_k x_{i_k} + sum_e weight_e f_e(x_e).
///
/// Used both as the objective and as equality constraints g(x) = 0. Keeping
/// the linear part explicit follows the paper's advice ("we find it
/// advantageous to have as many linear terms ... as possible in each
/// constraint") — linear terms contribute nothing to the Hessian.
struct FunctionGroup {
  double constant = 0.0;
  std::vector<LinearTerm> linear;
  std::vector<ElementRef> elements;

  double eval(const std::vector<double>& x) const;

  /// grad += scale * dg/dx (sparse accumulation into a dense vector).
  void accumulate_grad(const std::vector<double>& x, double scale,
                       std::vector<double>& grad) const;
};

}  // namespace statsize::nlp
