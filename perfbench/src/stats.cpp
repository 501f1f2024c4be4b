#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

std::size_t samples_beyond(std::size_t n, double q) {
  // Integer arithmetic on per-mille so q = 0.75 with n = 40 gives exactly 10.
  const auto keep = static_cast<std::size_t>(std::llround((1.0 - q) * 1000.0));
  return n * keep / 1000;
}

bool quantile_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= kSamplesBeyond;
}

std::size_t min_samples_for(double q) {
  std::size_t n = 1;
  while (!quantile_supported(n, q)) ++n;
  return n;
}

}  // namespace perfbench
