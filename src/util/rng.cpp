#include "util/rng.hpp"

#include <cassert>
#include <numbers>

namespace dc {

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) {  // full 64-bit range
    return static_cast<std::int64_t>((*this)());
  }
  // Lemire's nearly-divisionless unbiased bounded sampling.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * range;
  auto low = static_cast<std::uint64_t>(m);
  if (low < range) {
    const std::uint64_t threshold = (0ULL - range) % range;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * range;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::int64_t>(m >> 64);
}

double Rng::exponential(double mean) {
  assert(mean > 0.0);
  double u = uniform();
  // Guard against log(0); uniform() < 1 so 1-u > 0.
  return -mean * std::log1p(-u);
}

double Rng::lognormal_mean_cv(double mean, double cv) {
  assert(mean > 0.0 && cv >= 0.0);
  if (cv == 0.0) return mean;
  const double sigma2 = std::log1p(cv * cv);
  const double mu = std::log(mean) - 0.5 * sigma2;
  return std::exp(mu + std::sqrt(sigma2) * normal());
}

double Rng::normal() {
  // Box–Muller; draw u1 in (0,1].
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::hyperexponential(double p, double mean1, double mean2) {
  return bernoulli(p) ? exponential(mean1) : exponential(mean2);
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  assert(total > 0.0);
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numeric edge: fell off the end
}

std::vector<double> sample_nhpp(Rng& rng, double horizon, double max_rate,
                                const std::function<double(double)>& rate) {
  assert(horizon > 0.0 && max_rate > 0.0);
  std::vector<double> arrivals;
  double t = 0.0;
  while (true) {
    t += rng.exponential(1.0 / max_rate);
    if (t >= horizon) break;
    const double r = rate(t);
    assert(r <= max_rate * (1.0 + 1e-9) && "rate(t) exceeds declared max_rate");
    if (rng.uniform() * max_rate < r) arrivals.push_back(t);
  }
  return arrivals;
}

}  // namespace dc
