#pragma once
/// \file serve_driver.h
/// \brief Closed-loop driver for the batched solve service: one thread
/// keeps a fixed number of requests of each compatibility class
/// outstanding, waits on the oldest future, and resubmits a request of
/// the same class as soon as it has retired one.
///
/// With `per_class` equal to the batch width and two classes, every
/// request waits exactly one batch of the other class, so its latency has
/// a single mode (about T_A + T_B) instead of depending on queue position.

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <vector>

#include "serve/service.h"

namespace perfbench {

struct ServeCompletion {
  int cls = 0;
  std::uint64_t seq = 0;  ///< per-run request number (submission order)
  lqcd::serve::Result result;
  std::vector<lqcd::WilsonField<double>> rhs;  ///< the request's sources
};

class ClosedLoopDriver {
 public:
  /// Builds the request of class \p cls with sequence number \p seq.
  using MakeRequest =
      std::function<lqcd::serve::Request(int cls, std::uint64_t seq)>;
  /// Called on the driver thread for every retired request; returns false
  /// to stop resubmitting.  The requests still outstanding are then
  /// drained and handed to the callback with `draining` set.
  using OnRetire = std::function<bool(ServeCompletion&, bool draining)>;

  ClosedLoopDriver(lqcd::serve::SolveService& svc, MakeRequest make)
      : svc_(svc), make_(std::move(make)) {}

  /// Submits the initial requests in \p fill_order (one class id per
  /// request), then retires the oldest and resubmits its class until
  /// \p on_retire returns false, then drains.
  void run(const std::vector<int>& fill_order, const OnRetire& on_retire) {
    for (int cls : fill_order) submit(cls);
    bool resubmit = true;
    while (!pending_.empty()) {
      Pending p = std::move(pending_.front());
      pending_.pop_front();
      ServeCompletion c;
      c.cls = p.cls;
      c.seq = p.seq;
      c.rhs = std::move(p.rhs);
      c.result = p.future.get();
      const bool more = on_retire(c, !resubmit);
      resubmit = resubmit && more;
      if (resubmit) submit(p.cls);
    }
  }

  /// Outstanding requests right after every submit (the closed-loop
  /// invariant: constant once the initial fill is done).
  const std::vector<std::size_t>& outstanding_at_submit() const {
    return outstanding_log_;
  }
  /// Service queue depth sampled right before every submit.
  const std::vector<std::size_t>& queue_depth_at_submit() const {
    return depth_log_;
  }

 private:
  struct Pending {
    int cls;
    std::uint64_t seq;
    std::vector<lqcd::WilsonField<double>> rhs;
    std::future<lqcd::serve::Result> future;
  };

  void submit(int cls) {
    lqcd::serve::Request req = make_(cls, next_seq_);
    Pending p{cls, next_seq_, req.rhs, {}};
    ++next_seq_;
    depth_log_.push_back(svc_.queue_depth());
    p.future = svc_.submit(std::move(req));
    pending_.push_back(std::move(p));
    outstanding_log_.push_back(pending_.size());
  }

  lqcd::serve::SolveService& svc_;
  MakeRequest make_;
  std::uint64_t next_seq_ = 0;
  std::deque<Pending> pending_;
  std::vector<std::size_t> outstanding_log_;
  std::vector<std::size_t> depth_log_;
};

}  // namespace perfbench
