// Seeded random streams: the repository's one uniform generator (SplitMix64)
// and the standard-normal stream Monte Carlo draws its gate delays from.
//
// Everything here is a pure function of its 64-bit seed, written out in this
// file rather than taken from <random>: the standard fixes mt19937_64's
// output but leaves normal_distribution's algorithm to the library, so
// samples drawn through it could change with the toolchain.

#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace statsize::stat {

/// SplitMix64 (Steele, Lea and Flood, 2014): a 64-bit counter advanced by the
/// golden-ratio increment and passed through a bijective mixer. One add, two
/// multiplies and three xor-shifts per draw; every seed gives a full-period
/// stream. Never rand()/random_device: every consumer (Monte Carlo streams,
/// client backoff jitter, audit points) must be reproducible from its seed.
class SplitMix64 {
 public:
  static constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;

  explicit SplitMix64(std::uint64_t state) : state_(state) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += kGamma);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1) from the top 53 bits.
  double uniform01() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Seed of stream `stream` under base `seed`: output number `stream` (from 0)
/// of SplitMix64(seed), reached in O(1), so adjacent streams get mixed,
/// decorrelated seeds. Monte Carlo chunk i draws from
/// NormalStream(stream_seed(seed, i)).
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return SplitMix64(seed + SplitMix64::kGamma * stream).next();
}

namespace detail {

/// Marsaglia–Tsang Ziggurat tables for the unnormalised density
/// f(x) = exp(-x^2 / 2): 256 layers of equal area. x[0] is the base layer's
/// width (its rectangle plus the tail beyond x[1] = r, folded into one area),
/// x[1..255] fall towards the peak and x[256] = 0; f[i] = f(x[i]).
struct ZigguratTables {
  double x[257];
  double f[257];
};

/// Built once per process on first use.
const ZigguratTables& ziggurat_tables();

}  // namespace detail

/// Standard-normal draws from one 64-bit seed: a 256-layer Ziggurat
/// (Marsaglia and Tsang, 2000) over SplitMix64, with Marsaglia's exact
/// exponential method beyond r = kTailStart.
///
/// Each SplitMix64 word supplies the layer from its low 8 bits and a
/// symmetric uniform in [-1, 1) from its top 53 bits. The two ranges do not
/// overlap, so the layer and the value are independent (the 32-bit original
/// took both from one word's overlapping bits). About 98.8% of draws cost
/// one word, one multiply and one compare; the rest consume further words.
class NormalStream {
 public:
  /// r, where the tail starts: x[1] of Marsaglia and Tsang's 256-layer table.
  static constexpr double kTailStart = 3.6541528853610088;

  explicit NormalStream(std::uint64_t seed) : bits_(seed), zig_(&detail::ziggurat_tables()) {}

  double operator()() {
    for (;;) {
      const std::uint64_t bits = bits_.next();
      const std::size_t i = static_cast<std::size_t>(bits & 0xFF);
      const double u = static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
      const double x = u * zig_->x[i];
      if (std::abs(x) < zig_->x[i + 1]) return x;  // inside the layer's core
      if (i == 0) return tail(u);
      if (wedge_accepts(i, x)) return x;
    }
  }

 private:
  /// A draw beyond r on the side of sign(u).
  double tail(double u);
  /// Whether a uniform height in layer i's wedge falls under f(x).
  bool wedge_accepts(std::size_t i, double x);

  SplitMix64 bits_;
  const detail::ZigguratTables* zig_;
};

}  // namespace statsize::stat
