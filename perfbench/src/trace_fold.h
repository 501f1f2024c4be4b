#pragma once
/// \file trace_fold.h
/// \brief Folds the tracer's spans (obs/trace.h) into per-name inclusive
/// and self time.
///
/// A span's self time is its duration minus the part of its interval that
/// its direct children cover.  Children are spans of the same timeline one
/// nesting level deeper whose interval lies inside the parent's.  A
/// timeline is one or more tracks recorded by a single thread: in the
/// threads rank mode the caller executes rank 0, so the caller's fallback
/// track and rank track 0 form one timeline (the depth tree spans both).
///
/// Partitioned applies show up as one `rank.task` span per rank track.
/// group_rank_applies() recovers the applies (rank tasks that overlap in
/// time belong to one apply) and their extents, which fold_timeline() can
/// substitute for the caller's own rank-0 task so the caller's self time
/// excludes the whole apply, launch and join included.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct FoldedSpans {
  std::map<std::string, double> self_us;  ///< Σ self time per name

  double self(const std::string& n) const;
  /// Σ self over every name (== Σ duration of the roots).
  double self_sum() const;
};

/// Length of the union of [begin, end) intervals.
double union_length(std::vector<std::pair<double, double>> iv);

/// Folds the spans whose track is in \p tracks as one timeline.
FoldedSpans fold_timeline(const std::vector<lqcd::SpanEvent>& events,
                          const std::vector<int>& tracks);

/// One partitioned apply: the rank tasks that overlap in time.
struct RankApply {
  double begin_us = 0;      ///< first rank task start
  double end_us = 0;        ///< last rank task end
  double max_task_us = 0;   ///< longest single rank task
  int tasks = 0;            ///< rank tasks in the group
  int caller_depth = 0;     ///< depth of the rank-0 task (caller thread)

  double extent_us() const { return end_us - begin_us; }
};

/// Groups the `rank.task` spans of rank tracks (< kFallbackTrackBase) into
/// applies by interval overlap, in time order.
std::vector<RankApply> group_rank_applies(
    const std::vector<lqcd::SpanEvent>& events);

/// The caller timeline with every apply replaced by one `dirac.hop` span
/// at the rank-0 task's depth: spans of \p caller_track plus the synthetic
/// hop spans (rank track 0 is dropped — its phases are folded per track).
std::vector<lqcd::SpanEvent> caller_timeline(
    const std::vector<lqcd::SpanEvent>& events, int caller_track,
    const std::vector<RankApply>& applies);

/// Spans whose interval lies inside [begin_us, end_us].
std::vector<lqcd::SpanEvent> spans_within(
    const std::vector<lqcd::SpanEvent>& events, double begin_us,
    double end_us);

}  // namespace perfbench
