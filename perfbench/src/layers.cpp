#include "layers.h"

#include <sched.h>

#include <algorithm>
#include <cstring>

namespace perfbench {

CallerBudget caller_budget(const std::vector<lqcd::SpanEvent>& events,
                           int ranks) {
  CallerBudget b;
  int caller_track = -1;
  for (const auto& e : events) {
    if (std::strcmp(e.name, "bench.op") == 0) {
      caller_track = e.track;
      b.ops += 1;
      b.op_us += e.dur_us;
    }
  }
  const std::vector<RankApply> applies = group_rank_applies(events);
  for (const RankApply& a : applies) b.hop_max_us += a.max_task_us;
  b.caller = fold_timeline(caller_timeline(events, caller_track, applies),
                           {caller_track});
  for (const auto& e : events) {
    if (e.track >= ranks) continue;
    if (std::strcmp(e.name, "dslash.post") == 0) b.phases.post_us += e.dur_us;
    if (std::strcmp(e.name, "dslash.interior") == 0) {
      b.phases.interior_us += e.dur_us;
    }
    if (std::strcmp(e.name, "dslash.wait") == 0) b.phases.wait_us += e.dur_us;
    if (std::strcmp(e.name, "dslash.exterior") == 0) {
      b.phases.exterior_us += e.dur_us;
    }
  }
  const double r = ranks > 0 ? ranks : 1;
  b.phases.post_us /= r;
  b.phases.interior_us /= r;
  b.phases.wait_us /= r;
  b.phases.exterior_us /= r;
  return b;
}

double overlap_efficiency(const lqcd::MetricsSnapshot& delta) {
  const double interior = delta.gauge("dslash.overlap.interior_s");
  const double wait = delta.gauge("dslash.overlap.wait_s");
  return interior + wait > 0 ? interior / (interior + wait) : 1.0;
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

double ranks_per_core(int ranks) {
  return static_cast<double>(ranks) / static_cast<double>(usable_cpus());
}

}  // namespace perfbench
