#pragma once
/// \file stats.h
/// \brief Order statistics of the timed ops.
///
/// A latency percentile is reported only when at least ten samples lie
/// beyond it (so p75 needs 40 samples): fewer, and the value is set by a
/// handful of stragglers and jumps from run to run.

#include <cstddef>
#include <vector>

namespace perfbench {

/// Minimum number of samples strictly above the q-quantile's rank.
inline constexpr std::size_t kSamplesBeyond = 10;

/// Linear-interpolation quantile (the "type 7" / numpy default) of
/// \p values, q in [0, 1].  0 for an empty sample.
double quantile(std::vector<double> values, double q);

double median(const std::vector<double>& values);

/// Samples lying beyond the q-quantile of n samples: floor(n * (1 - q)).
std::size_t samples_beyond(std::size_t n, double q);

/// True when the q-quantile of n samples has >= kSamplesBeyond beyond it.
bool quantile_supported(std::size_t n, double q);

/// Smallest n for which quantile_supported(n, q) holds.
std::size_t min_samples_for(double q);

}  // namespace perfbench
