#pragma once
/// \file layers.h
/// \brief Per-layer attribution of traced ops that run partitioned applies
/// on the caller thread (gcrdd-cluster, dslash-halfwire).
///
/// The caller timeline is folded with every partitioned apply replaced by
/// one `dirac.hop` span covering its rank tasks, so the caller's own spans
/// keep only the time outside the applies.  Inside the applies the rank
/// tracks give the Fig. 4 phases (post / interior / wait / exterior),
/// averaged over ranks.

#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "trace_fold.h"

namespace perfbench {

/// Σ of each overlap phase over the traced applies, mean over ranks.
struct RankPhaseTotals {
  double post_us = 0;
  double interior_us = 0;
  double wait_us = 0;
  double exterior_us = 0;
};

struct CallerBudget {
  double ops = 0;            ///< traced ops (`bench.op` spans)
  double op_us = 0;          ///< Σ traced op time
  double hop_max_us = 0;     ///< Σ over applies of the longest rank task
  RankPhaseTotals phases;
  FoldedSpans caller;        ///< caller timeline, applies as `dirac.hop`
};

/// Attribution of every traced op in \p events for a cluster of \p ranks.
CallerBudget caller_budget(const std::vector<lqcd::SpanEvent>& events,
                           int ranks);

/// interior / (interior + wait) over the phase, from the registry's
/// `dslash.overlap.*` gauges (1 when nothing was exchanged).
double overlap_efficiency(const lqcd::MetricsSnapshot& delta);

/// CPUs this process may run on (what `nproc` prints).
int usable_cpus();

/// Virtual ranks per usable CPU; above 1 the overlap figures are not
/// meaningful (ranks time-share cores).
double ranks_per_core(int ranks);

}  // namespace perfbench
