#include "trace_fold.h"

#include <algorithm>
#include <set>

namespace perfbench {

namespace {

double end_of(const lqcd::SpanEvent& e) { return e.begin_us + e.dur_us; }

}  // namespace

double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0, cur_b = 0, cur_e = 0;
  bool open = false;
  for (const auto& [b, e] : iv) {
    if (!open || b > cur_e) {
      if (open) total += cur_e - cur_b;
      cur_b = b;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) total += cur_e - cur_b;
  return total;
}

double FoldedSpans::self(const std::string& n) const {
  auto it = self_us.find(n);
  return it == self_us.end() ? 0.0 : it->second;
}

double FoldedSpans::self_sum() const {
  double s = 0;
  for (const auto& [name, v] : self_us) s += v;
  return s;
}

FoldedSpans fold_timeline(const std::vector<lqcd::SpanEvent>& events,
                          const std::vector<int>& tracks) {
  const std::set<int> keep(tracks.begin(), tracks.end());
  std::vector<lqcd::SpanEvent> ev;
  for (const auto& e : events) {
    if (keep.count(e.track) != 0) ev.push_back(e);
  }
  // Parents before children: by begin, then shallower first.
  std::sort(ev.begin(), ev.end(), [](const auto& a, const auto& b) {
    if (a.begin_us != b.begin_us) return a.begin_us < b.begin_us;
    return a.depth < b.depth;
  });
  FoldedSpans out;
  // Open-span stack walk: each span's direct children are the later spans
  // one level deeper that start before it ends.
  std::vector<std::size_t> stack;
  std::vector<std::vector<std::pair<double, double>>> child_iv(ev.size());
  for (std::size_t i = 0; i < ev.size(); ++i) {
    const auto& e = ev[i];
    while (!stack.empty()) {
      const auto& top = ev[stack.back()];
      if (top.depth < e.depth && e.begin_us < end_of(top)) break;
      stack.pop_back();
    }
    if (!stack.empty() && ev[stack.back()].depth + 1 == e.depth) {
      const auto& parent = ev[stack.back()];
      child_iv[stack.back()].emplace_back(
          e.begin_us, std::min(end_of(e), end_of(parent)));
    }
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < ev.size(); ++i) {
    const double self = ev[i].dur_us - union_length(child_iv[i]);
    out.self_us[ev[i].name] += std::max(0.0, self);
  }
  return out;
}

std::vector<RankApply> group_rank_applies(
    const std::vector<lqcd::SpanEvent>& events) {
  std::vector<lqcd::SpanEvent> tasks;
  for (const auto& e : events) {
    if (e.track < lqcd::kFallbackTrackBase &&
        std::string(e.name) == "rank.task") {
      tasks.push_back(e);
    }
  }
  std::sort(tasks.begin(), tasks.end(),
            [](const auto& a, const auto& b) { return a.begin_us < b.begin_us; });
  std::vector<RankApply> out;
  for (const auto& t : tasks) {
    if (out.empty() || t.begin_us > out.back().end_us) {
      out.push_back(RankApply{t.begin_us, end_of(t), 0, 0, 0});
    }
    RankApply& a = out.back();
    a.end_us = std::max(a.end_us, end_of(t));
    a.max_task_us = std::max(a.max_task_us, t.dur_us);
    a.tasks += 1;
    if (t.track == 0) a.caller_depth = t.depth;
  }
  return out;
}

std::vector<lqcd::SpanEvent> caller_timeline(
    const std::vector<lqcd::SpanEvent>& events, int caller_track,
    const std::vector<RankApply>& applies) {
  std::vector<lqcd::SpanEvent> out;
  for (const auto& e : events) {
    if (e.track == caller_track) out.push_back(e);
  }
  for (const auto& a : applies) {
    out.push_back(lqcd::SpanEvent{"dirac.hop", a.begin_us, a.extent_us(),
                                  caller_track, a.caller_depth});
  }
  return out;
}

std::vector<lqcd::SpanEvent> spans_within(
    const std::vector<lqcd::SpanEvent>& events, double begin_us,
    double end_us) {
  std::vector<lqcd::SpanEvent> out;
  for (const auto& e : events) {
    if (e.begin_us >= begin_us && end_of(e) <= end_us) out.push_back(e);
  }
  return out;
}

}  // namespace perfbench
