#include "stat/random.h"

#include "stat/normal.h"

namespace statsize::stat {

namespace {

double unnormalised_pdf(double x) { return std::exp(-0.5 * x * x); }

}  // namespace

namespace detail {

const ZigguratTables& ziggurat_tables() {
  static const ZigguratTables tables = [] {
    ZigguratTables t{};
    // Every layer's area: the base layer is the rectangle [0, r] x [0, f(r)]
    // plus the tail's integral, sqrt(pi / 2) * erfc(r / sqrt(2)).
    constexpr double r = NormalStream::kTailStart;
    const double v = r * unnormalised_pdf(r) + 0.5 * kSqrt2Pi * std::erfc(r * kInvSqrt2);
    t.x[0] = v / unnormalised_pdf(r);
    t.x[1] = r;
    // Layer i spans heights [f(x[i]), f(x[i+1])] at width x[i]; equal areas
    // give f(x[i+1]) = f(x[i]) + v / x[i].
    for (int i = 1; i < 255; ++i) {
      t.x[i + 1] = std::sqrt(-2.0 * std::log(v / t.x[i] + unnormalised_pdf(t.x[i])));
    }
    t.x[256] = 0.0;
    for (int i = 0; i < 257; ++i) t.f[i] = unnormalised_pdf(t.x[i]);
    return t;
  }();
  return tables;
}

}  // namespace detail

double NormalStream::tail(double u) {
  // Marsaglia (1964): with U1, U2 uniform on (0, 1), x = -ln(U1) / r and
  // y = -ln(U2), accept when 2y > x^2; r + x is then exactly a draw from the
  // normal tail beyond r. Open uniforms keep both logarithms finite.
  auto open01 = [this] { return (static_cast<double>(bits_.next() >> 11) + 0.5) * 0x1.0p-53; };
  double x = 0.0;
  double y = 0.0;
  do {
    x = -std::log(open01()) / kTailStart;
    y = -std::log(open01());
  } while (2.0 * y <= x * x);
  return u < 0.0 ? -(kTailStart + x) : kTailStart + x;
}

bool NormalStream::wedge_accepts(std::size_t i, double x) {
  const double height = zig_->f[i] + (zig_->f[i + 1] - zig_->f[i]) * bits_.uniform01();
  return height < unnormalised_pdf(x);
}

}  // namespace statsize::stat
