#include "nlp/projected_lbfgs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "runtime/cancel.h"

namespace statsize::nlp {

namespace {

double clamp_to_box(double v, double lo, double hi) { return std::min(std::max(v, lo), hi); }

double pg_norm(const std::vector<double>& x, const std::vector<double>& g,
               const std::vector<double>& lo, const std::vector<double>& hi) {
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    worst = std::max(worst, std::abs(clamp_to_box(x[i] - g[i], lo[i], hi[i]) - x[i]));
  }
  return worst;
}

/// GradFn: one callback per trial computes value and gradient together, so
/// an accepted trial's gradient is already in place.
struct TrialWithGradient {
  static constexpr bool kValueCarriesGradient = true;
  const GradFn& fn;
  double value(const std::vector<double>& x, std::vector<double>& g) const { return fn(x, g); }
};

/// ValueGradFn: trials ask for the value only; the gradient is requested at
/// an accepted point, right after the value call at the same x.
struct ValueThenGradient {
  static constexpr bool kValueCarriesGradient = false;
  const ValueGradFn& fn;
  double value(const std::vector<double>& x, std::vector<double>&) const {
    return fn(x, nullptr);
  }
  void gradient(const std::vector<double>& x, std::vector<double>& g) const { fn(x, &g); }
};

template <class Eval>
LbfgsResult minimize(const Eval& eval, std::vector<double>& x, const std::vector<double>& lower,
                     const std::vector<double>& upper, const LbfgsOptions& options) {
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) x[i] = clamp_to_box(x[i], lower[i], upper[i]);

  // Curvature pairs live in a ring of `history` preallocated slots, oldest
  // first from `oldest`. A new pair is built in s_new/y_new and swapped into
  // its slot only when its curvature is accepted.
  const std::size_t m = static_cast<std::size_t>(std::max(options.history, 0));
  std::vector<std::vector<double>> s_ring(m, std::vector<double>(n));
  std::vector<std::vector<double>> y_ring(m, std::vector<double>(n));
  std::vector<double> rho_ring(m);
  std::size_t oldest = 0;
  std::size_t count = 0;
  auto slot = [&](std::size_t k) { return (oldest + k) % m; };  // k-th oldest pair
  std::vector<double> s_new(n);
  std::vector<double> y_new(n);

  std::vector<double> g(n);
  std::vector<double> g_new(n);
  std::vector<double> d(n);
  std::vector<double> x_new(n);
  std::vector<double> alpha_buf(m);
  std::vector<unsigned char> held(n);

  LbfgsResult result;
  auto value = [&](const std::vector<double>& at, std::vector<double>& grad) {
    ++result.evaluations;
    if constexpr (Eval::kValueCarriesGradient) ++result.gradients;
    return eval.value(at, grad);
  };
  auto gradient = [&](const std::vector<double>& at, std::vector<double>& grad) {
    if constexpr (!Eval::kValueCarriesGradient) {
      ++result.gradients;
      eval.gradient(at, grad);
    }
  };

  double f = value(x, g);
  gradient(x, g);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    runtime::poll_cancel();
    result.iterations = iter + 1;
    result.objective = f;
    result.projected_gradient = pg_norm(x, g, lower, upper);
    if (result.projected_gradient <= options.tol) {
      result.converged = true;
      return result;
    }

    // Two-loop recursion for d = -H g over the free variables: a variable at
    // a bound whose gradient pushes it outward is held, its gradient entry
    // zeroed before the recursion and its direction entry after it.
    for (std::size_t i = 0; i < n; ++i) {
      held[i] = (x[i] <= lower[i] && g[i] > 0.0) || (x[i] >= upper[i] && g[i] < 0.0);
      d[i] = held[i] ? 0.0 : g[i];
    }
    for (std::size_t k = count; k-- > 0;) {
      const std::size_t p = slot(k);
      double sd = 0.0;
      for (std::size_t i = 0; i < n; ++i) sd += s_ring[p][i] * d[i];
      alpha_buf[k] = rho_ring[p] * sd;
      for (std::size_t i = 0; i < n; ++i) d[i] -= alpha_buf[k] * y_ring[p][i];
    }
    if (count > 0) {
      const std::size_t last = slot(count - 1);
      double yy = 0.0;
      double sy = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        yy += y_ring[last][i] * y_ring[last][i];
        sy += s_ring[last][i] * y_ring[last][i];
      }
      const double gamma = sy / std::max(yy, 1e-30);
      for (std::size_t i = 0; i < n; ++i) d[i] *= gamma;
    }
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t p = slot(k);
      double yd = 0.0;
      for (std::size_t i = 0; i < n; ++i) yd += y_ring[p][i] * d[i];
      const double beta = rho_ring[p] * yd;
      for (std::size_t i = 0; i < n; ++i) d[i] += (alpha_buf[k] - beta) * s_ring[p][i];
    }
    for (std::size_t i = 0; i < n; ++i) d[i] = held[i] ? 0.0 : -d[i];

    // Projected Armijo backtracking along P(x + a d), asking for values only;
    // the gradient is computed once, at the accepted point. Should the
    // quasi-Newton direction still fail (a free variable near a bound can
    // clip at every tried length), retry once from steepest descent with
    // cleared curvature pairs.
    bool accepted = false;
    double step = 1.0;
    for (int attempt = 0; attempt < 2 && !accepted; ++attempt) {
      if (attempt == 1) {
        if (count == 0) break;  // d already was -g on the free variables
        count = 0;
        for (std::size_t i = 0; i < n; ++i) d[i] = -g[i];
      }
      step = 1.0;
      for (int bt = 0; bt < 60 && step >= options.min_step; ++bt, step *= 0.5) {
        double gt_dx = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          x_new[i] = clamp_to_box(x[i] + step * d[i], lower[i], upper[i]);
          gt_dx += g[i] * (x_new[i] - x[i]);
        }
        if (gt_dx >= 0.0) continue;  // non-descent at this length: shrink further
        const double f_new = value(x_new, g_new);
        if (f_new <= f + 1e-4 * gt_dx + 1e-12 * (1.0 + std::abs(f))) {
          gradient(x_new, g_new);
          double sy = 0.0;
          double ss = 0.0;
          double yy = 0.0;
          for (std::size_t i = 0; i < n; ++i) {
            s_new[i] = x_new[i] - x[i];
            y_new[i] = g_new[i] - g[i];
            sy += s_new[i] * y_new[i];
            ss += s_new[i] * s_new[i];
            yy += y_new[i] * y_new[i];
          }
          if (m > 0 && sy > 1e-10 * std::sqrt(ss * yy)) {
            std::size_t dst = oldest;
            if (count < m) {
              dst = slot(count++);
            } else {
              oldest = (oldest + 1) % m;
            }
            s_ring[dst].swap(s_new);
            y_ring[dst].swap(y_new);
            rho_ring[dst] = 1.0 / sy;
          }
          x.swap(x_new);
          g.swap(g_new);
          f = f_new;
          accepted = true;
          break;
        }
      }
    }
    if (options.verbose) {
      std::printf("[lbfgs] it=%d f=%.8g pg=%.2e step=%.2e\n", iter, f,
                  result.projected_gradient, step);
    }
    if (!accepted) {
      // Line search failed even along steepest descent: stationary to
      // numerical precision.
      return result;
    }
  }
  return result;
}

}  // namespace

LbfgsResult minimize_projected_lbfgs(const GradFn& fn, std::vector<double>& x,
                                     const std::vector<double>& lower,
                                     const std::vector<double>& upper,
                                     const LbfgsOptions& options) {
  return minimize(TrialWithGradient{fn}, x, lower, upper, options);
}

LbfgsResult minimize_projected_lbfgs(const ValueGradFn& fn, std::vector<double>& x,
                                     const std::vector<double>& lower,
                                     const std::vector<double>& upper,
                                     const LbfgsOptions& options) {
  return minimize(ValueThenGradient{fn}, x, lower, upper, options);
}

}  // namespace statsize::nlp
