// Deterministic random number generation for reproducible experiments.
//
// Every experiment in the benchmark harness is seeded; re-running a bench
// binary reproduces the paper tables bit-for-bit. We implement
// xoshiro256** (public-domain, Blackman & Vigna) seeded via splitmix64
// rather than depending on the unspecified std::default_random_engine, and
// we provide explicit inverse-CDF / transform samplers so results do not
// depend on libstdc++'s distribution implementations either.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace dc {

/// splitmix64: used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality, 256-bit state PRNG.
/// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1). Uses the top 53 bits.
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive (lo <= hi). Unbiased via
  /// Lemire's rejection method.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Lognormal parameterized by the *target* mean and coefficient of
  /// variation (cv = stddev/mean) of the resulting distribution — far more
  /// convenient for trace calibration than (mu, sigma).
  double lognormal_mean_cv(double mean, double cv);

  /// Standard normal via Box–Muller (one value per call, no caching so the
  /// stream is position-independent).
  double normal();

  /// Two-phase hyperexponential: with probability p draw Exp(mean1),
  /// otherwise Exp(mean2). Models the short-jobs/long-jobs mix in HTC traces.
  double hyperexponential(double p, double mean1, double mean2);

  /// True with probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Index drawn from the (unnormalized, non-negative) weight vector.
  std::size_t weighted_index(std::span<const double> weights);

  /// Raw generator state, for snapshot/restore. `set_state` makes this
  /// generator continue the exact stream the saved generator would have
  /// produced.
  const std::array<std::uint64_t, 4>& state() const { return state_; }
  void set_state(const std::array<std::uint64_t, 4>& state) { state_ = state; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Samples an arrival-time sequence from a non-homogeneous Poisson process
/// via thinning. `rate(t)` gives the instantaneous rate (arrivals/second) and
/// must be bounded above by `max_rate` on [0, horizon).
std::vector<double> sample_nhpp(Rng& rng, double horizon, double max_rate,
                                const std::function<double(double)>& rate);

}  // namespace dc
