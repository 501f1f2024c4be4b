#pragma once
/// \file partitioned.h
/// \brief Multi-dimensionally partitioned Dirac operators — the paper's
/// contribution (i): the lattice is split over a 4-D grid of virtual ranks,
/// the stencil over each rank's sublattice is evaluated as an *interior
/// kernel* (everything computable from rank-local data, including partial
/// sums on boundary sites) followed by one *exterior kernel per partitioned
/// dimension* which adds the ghost-zone contributions (§6.2).
///
/// Ghost exchange is explicit and metered (comm/exchange.h); with
/// `comms = false` the exchange and exterior kernels are skipped, which is
/// precisely the Dirichlet-cut operator the additive Schwarz preconditioner
/// applies ("essentially, we just have to switch off the communications
/// between GPUs", §8.1).
///
/// Gauge (and fat/long) link ghosts are exchanged once at construction, as
/// in the paper where "the gauge field ... must only be transfered once at
/// the beginning of a solve".
///
/// Execution modes (comm/virtual_cluster.h): under `LQCD_RANK_MODE=threads`
/// (the default) every rank runs as its own thread and the apply executes
/// the Fig. 4 overlap schedule for real — copy its own sites in, gather
/// faces, post the sends on the channel mesh, run the interior kernel
/// *while the messages are in flight*, wait for the ghosts, run the
/// exterior kernels and any per-rank epilogue, and copy its own sites
/// out; the caller never sweeps the global field.  The
/// measured per-rank phase times are accumulated in OverlapStats.  Under
/// `seq` the ranks execute one after another through the reference
/// exchange; both modes are bitwise identical (asserted in tests).  The
/// Wilson and staggered operators run this schedule through one driver,
/// detail::run_partitioned.  Each interior is its action's one site body
/// with ghost entries as dropped legs: the Wilson body (spin-pair lanes in
/// float, dirac/wilson_kernel.h) and the staggered body (colour-row lanes
/// in float, the third use of the lane family, dirac/staggered.h).  The
/// exterior kernels' float ghost legs run the same lane multiplies.

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "comm/domain_map.h"
#include "comm/exchange.h"
#include "dirac/dslash_tune.h"
#include "dirac/multi_rhs.h"
#include "dirac/operator.h"
#include "dirac/recon_policy.h"
#include "dirac/staggered.h"
#include "fields/clover.h"
#include "fields/compressed_gauge.h"
#include "lattice/neighbor_table.h"
#include "linalg/gamma.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tune/site_loop.h"
#include "util/parallel_for.h"
#include "util/stopwatch.h"

namespace lqcd {

/// Traffic report of a partitioned operator.
struct PartitionedTraffic {
  ExchangeCounters spinor;  ///< per-apply ghost spinor exchanges (cumulative)
  ExchangeCounters gauge;   ///< one-time link ghost exchange
  std::int64_t applications = 0;
};

/// Measured wall time of each phase of the threaded execution path, summed
/// over ranks and applications (one sample = one rank's one apply).  The
/// overlap-efficiency metric is the fraction of the comm-facing interval
/// the rank spent computing rather than stalled in wait_all: 1.0 means the
/// interior kernel fully hid the message traffic (the ideal Fig. 4
/// schedule); values near 0 mean the rank idled for its ghosts — the
/// degradation regime of the strong-scaling figures.
struct OverlapStats {
  double post_s = 0;      ///< face gather + channel post
  double interior_s = 0;  ///< interior kernel (overlapped with traffic)
  double wait_s = 0;      ///< stalled in wait_all after the interior
  double exterior_s = 0;  ///< exterior kernels after ghost arrival
  std::int64_t rank_samples = 0;

  double overlap_efficiency() const {
    const double comm_window = interior_s + wait_s;
    return comm_window > 0 ? interior_s / comm_window : 1.0;
  }
  void reset() { *this = OverlapStats{}; }
};

namespace detail {
/// One rank's phase times for one apply.
struct OverlapSample {
  double post_s = 0;
  double interior_s = 0;
  double wait_s = 0;
  double exterior_s = 0;
};

inline void accumulate(OverlapStats& stats,
                       const std::vector<OverlapSample>& samples) {
  // Per-operator stats plus the process-global metrics mirror — the obs
  // snapshot shows the same phase split one registry away (keys
  // dslash.overlap.*, see obs/metrics.h).  Called after the rank join, so
  // the tallies here need no synchronization of their own.
  static Gauge& m_post = metric_gauge("dslash.overlap.post_s");
  static Gauge& m_interior = metric_gauge("dslash.overlap.interior_s");
  static Gauge& m_wait = metric_gauge("dslash.overlap.wait_s");
  static Gauge& m_exterior = metric_gauge("dslash.overlap.exterior_s");
  static Counter& m_samples = metric_counter("dslash.overlap.rank_samples");
  for (const auto& s : samples) {
    stats.post_s += s.post_s;
    stats.interior_s += s.interior_s;
    stats.wait_s += s.wait_s;
    stats.exterior_s += s.exterior_s;
    ++stats.rank_samples;
    m_post.add(s.post_s);
    m_interior.add(s.interior_s);
    m_wait.add(s.wait_s);
    m_exterior.add(s.exterior_s);
    m_samples.add(1);
  }
}

/// Per-rank staging of a partitioned operator: each rank's copy of its
/// source sites and its local result, its spinor ghost zones, and the
/// operator's traffic and overlap meters.
template <typename Site, typename Ghost>
struct RankStaging {
  std::vector<LatticeField<Site>> in;
  std::vector<LatticeField<Site>> out;
  std::vector<GhostZones<Ghost>> ghosts;
  PartitionedTraffic traffic;
  OverlapStats overlap;
};

/// A per-rank step run on rank r's local result after its exterior
/// kernels and before its copy-out: epilogue(r, local_out).
template <typename Site>
using RankEpilogue = std::function<void(int, LatticeField<Site>&)>;

/// The partitioned apply of §6.2, shared by the Wilson and staggered
/// operators.  Each rank copies its own sites of \p in into its staging
/// field, evaluates the stencil as `interior(r)` plus one `exterior(r, mu)`
/// per partitioned dimension, runs \p epilogue (when set) on its local
/// result, and copies that result out into its own sites of \p out; the
/// caller never touches the whole field.  With \p target set, faces carry
/// the source (opposite) parity only, packed by \p Packer and sent in
/// \p wire format; each rank copies in only its source-parity sites, and
/// copies out only its target-parity sites, writing +0 to its other
/// sites of \p out.  Otherwise every site is copied both ways.
///
/// Under `threads` every rank runs as a task through the Fig. 4 schedule:
/// copy in, post its faces, compute the interior while the messages are
/// in flight, wait for the ghosts, apply the exterior kernels in fixed mu
/// order (the corner-site dependency is rank-local, so ranks never need a
/// barrier between phases), then the epilogue and the copy-out; each
/// rank's phase times land in `st.overlap`.  Under `seq`, or inside a rank
/// task, every rank copies in, the reference exchange runs, then every
/// interior, the exteriors dimension by dimension, and each rank's
/// epilogue and copy-out.  Both orders write the same bits.  With \p comms
/// off only the interiors run: the Dirichlet-cut operator.
template <typename Packer, typename Site, typename Interior,
          typename Exterior>
void run_partitioned(const DomainMap& map, const NeighborTable& nt,
                     bool comms, std::optional<Parity> target,
                     WireFormat wire,
                     RankStaging<Site, typename Packer::ghost_type>& st,
                     LatticeField<Site>& out, const LatticeField<Site>& in,
                     const Interior& interior, const Exterior& exterior,
                     const RankEpilogue<Site>& epilogue = nullptr) {
  const Partitioning& part = map.partitioning();
  const int nr = part.num_ranks();
  const auto n = static_cast<std::size_t>(nr);
  std::optional<Parity> source;
  if (target.has_value()) source = opposite(*target);
  st.traffic.applications += 1;
  if (st.in.size() != n) st.in.assign(n, LatticeField<Site>(part.local()));
  if (st.out.size() != n) st.out.assign(n, LatticeField<Site>(part.local()));
  const auto copy_in = [&](int r) {
    ScopedSpan span("dslash.scatter");
    map.scatter(r, in, st.in[static_cast<std::size_t>(r)], source);
  };
  const auto finish = [&](int r) {
    auto& local = st.out[static_cast<std::size_t>(r)];
    if (epilogue) {
      ScopedSpan span("dslash.epilogue");
      epilogue(r, local);
    }
    ScopedSpan span("dslash.gather");
    map.gather(r, local, out, target);
  };
  if (rank_mode() == RankMode::Threads && !in_rank_task()) {
    std::vector<OverlapSample> samples(n);
    if (comms) {
      AsyncGhostExchange<Packer, Site> ex(part, nt, st.in, st.ghosts, source,
                                         wire);
      run_ranks(nr, [&](int r) {
        copy_in(r);
        auto& sample = samples[static_cast<std::size_t>(r)];
        Stopwatch sw;
        {
          ScopedSpan span("dslash.post");
          ex.post_sends(r);
        }
        sample.post_s = sw.seconds();
        {
          ScopedSpan span("dslash.interior");
          interior(r);
        }
        sample.interior_s = sw.seconds() - sample.post_s;
        {
          ScopedSpan span("dslash.wait");
          ex.wait_all(r);
        }
        sample.wait_s = sw.seconds() - sample.post_s - sample.interior_s;
        {
          ScopedSpan span("dslash.exterior");
          for (int mu = 0; mu < kNDim; ++mu) {
            if (part.partitioned(mu)) exterior(r, mu);
          }
        }
        sample.exterior_s =
            sw.seconds() - sample.post_s - sample.interior_s - sample.wait_s;
        finish(r);
      });
      const ExchangeCounters delta = ex.total_sent();
      st.traffic.spinor += delta;
      account_exchange(delta);
    } else {
      run_ranks(nr, [&](int r) {
        copy_in(r);
        Stopwatch sw;
        {
          ScopedSpan span("dslash.interior");
          interior(r);
        }
        samples[static_cast<std::size_t>(r)].interior_s = sw.seconds();
        finish(r);
      });
    }
    accumulate(st.overlap, samples);
  } else {
    for (int r = 0; r < nr; ++r) copy_in(r);
    if (comms) {
      ScopedSpan span("dslash.exchange");
      exchange_ghosts<Packer>(part, nt, st.in, st.ghosts, &st.traffic.spinor,
                              source, wire);
    }
    for (int r = 0; r < nr; ++r) interior(r);
    if (comms) {
      // Exterior kernels run per dimension, sequentially, matching the
      // data dependency on corner sites described in §6.2.
      for (int mu = 0; mu < kNDim; ++mu) {
        if (!part.partitioned(mu)) continue;
        for (int r = 0; r < nr; ++r) exterior(r, mu);
      }
    }
    for (int r = 0; r < nr; ++r) finish(r);
  }
}
}  // namespace detail

/// Partitioned Wilson-clover operator M = (4 + m + A) - D/2.
template <typename Real>
class PartitionedWilsonClover : public LinearOperator<WilsonField<Real>> {
 public:
  /// \param recon gauge storage format for the *local* link body; ghost
  /// links *store* as full matrices but may *travel* 12/8-real compressed
  /// (LQCD_GHOST_RECON, comm/wire.h gauge codec) — they are a face's worth
  /// of data, transferred once per solve, reconstructed into the halo on
  /// arrival.  LQCD_RECON forces or tunes the local format across all
  /// ranks (policy key `wilson_part_recon`).
  PartitionedWilsonClover(const Partitioning& part, const GaugeField<Real>& u,
                          const CloverField<Real>* a, double mass,
                          bool comms = true,
                          Reconstruct recon = Reconstruct::None)
      : PartitionedWilsonClover(part, u, a, mass, comms, recon,
                                /*resolve_recon=*/true) {}

  /// Rank-local hops for a Schwarz preconditioner, driven through
  /// apply_hop_local: comms off, no clover, and the links stored in exactly
  /// \p recon.  LQCD_RECON is not consulted: the caller resolves the
  /// format under the policy entry of the operator it must match.
  static PartitionedWilsonClover block_hops(const Partitioning& part,
                                            const GaugeField<Real>& u,
                                            Reconstruct recon) {
    return PartitionedWilsonClover(part, u, nullptr, 0.0, /*comms=*/false,
                                   recon, /*resolve_recon=*/false);
  }

 private:
  PartitionedWilsonClover(const Partitioning& part, const GaugeField<Real>& u,
                          const CloverField<Real>* a, double mass, bool comms,
                          Reconstruct recon, bool resolve_recon)
      : part_(part), map_(part), nt_(part.local(), part.partitioned_dims(), 1),
        mass_(mass), comms_(comms) {
    map_.scatter_gauge(u, u_local_);
    if (a != nullptr) {
      map_.scatter(*a, clover_local_);
    }
    // Ghost zones feed only the exterior kernels, which a comms-off
    // operator never runs: it neither exchanges nor stores link ghosts, and
    // sizes its per-rank staging fields on its first apply (a block
    // operator driven only through apply_hop_local never needs them).
    if (comms_) {
      gauge_ghosts_.assign(static_cast<std::size_t>(part.num_ranks()),
                           GhostZones<Matrix3<Real>>(nt_));
      exchange_gauge_ghosts(part_, nt_, u_local_, gauge_ghosts_,
                            &st_.traffic.gauge);
      st_.in.assign(static_cast<std::size_t>(part.num_ranks()),
                    WilsonField<Real>(part.local()));
      st_.out.assign(static_cast<std::size_t>(part.num_ranks()),
                     WilsonField<Real>(part.local()));
      st_.ghosts.assign(static_cast<std::size_t>(part.num_ranks()),
                        GhostZones<HalfSpinor<Real>>(nt_));
    }
    // Nominal local link loads per full-volume interior pass: 8 per site
    // minus the two missing hops per face site of each partitioned dim.
    interior_links_ = 8 * part.local().volume();
    for (int mu = 0; mu < kNDim; ++mu) {
      if (part.partitioned(mu)) {
        interior_links_ -= 2 * nt_.face(mu).face_volume();
      }
    }
    std::unique_ptr<WilsonField<Real>> tin;
    std::unique_ptr<WilsonField<Real>> tout;
    recon_ = recon;
    if (resolve_recon) {
      recon_ = select_reconstruct(
          "wilson_part", detail::dslash_aux<Real>(std::nullopt, false),
          part.local().volume(), recon, [&](Reconstruct r) {
            if (!tin) {
              tin = std::make_unique<WilsonField<Real>>(part.global());
              tout = std::make_unique<WilsonField<Real>>(part.global());
            }
            ensure_compressed(r);
            const Reconstruct keep = recon_;
            recon_ = r;
            run(*tout, *tin, std::nullopt, /*hop_only=*/false);
            recon_ = keep;
          });
    }
    ensure_compressed(recon_);
    if (recon_ != Reconstruct::Twelve) u12_.clear();
    if (recon_ != Reconstruct::Eight) u8_.clear();
    // Spinor-ghost wire format (comm/wire.h): each axis forced/clamped by
    // its env (LQCD_GHOST_PREC, LQCD_GHOST_RECON), the (recon, precision)
    // pairs swept jointly as one policy tunable under `tune` (timing a
    // full exchanging apply per candidate), full/native otherwise.
    // Operators with comms off never exchange, so the policy is moot
    // there.
    if (comms_) {
      ghost_wire_ = select_ghost_wire(
          "wilson_part", detail::dslash_aux<Real>(std::nullopt, false),
          part.local().volume(), NativePrecision<Real>::value,
          [&](WireFormat f) {
            if (!tin) {
              tin = std::make_unique<WilsonField<Real>>(part.global());
              tout = std::make_unique<WilsonField<Real>>(part.global());
            }
            const WireFormat keep = ghost_wire_;
            ghost_wire_ = f;
            run(*tout, *tin, std::nullopt, /*hop_only=*/false);
            ghost_wire_ = keep;
          });
    }
  }

 public:
  Reconstruct recon() const { return recon_; }
  /// Resolved spinor-ghost wire precision (native unless LQCD_GHOST_PREC).
  Precision ghost_precision() const { return ghost_wire_.prec; }
  /// Resolved spinor-ghost wire format (full/native unless forced/tuned).
  WireFormat ghost_wire() const { return ghost_wire_; }

  void apply(WilsonField<Real>& out, const WilsonField<Real>& in) const override {
    this->count_application();
    run(out, in, std::nullopt, /*hop_only=*/false);
  }

  /// Hopping term only (D in), restricted to \p target parity sites — the
  /// building block of the even-odd preconditioned system.  Ghost exchange
  /// packs only source-parity sites (half the payload), and only those
  /// sites of \p in are read.  Non-target sites of \p out are zeroed.
  /// \p epilogue, when set, runs in each rank's task on its local hop
  /// result (local even-odd indices, domain_map().rank_map(r) to global)
  /// before that result is copied into \p out: the Schur operator's
  /// clover terms.
  void apply_hop(WilsonField<Real>& out, const WilsonField<Real>& in,
                 Parity target,
                 const detail::RankEpilogue<WilsonSpinor<Real>>& epilogue =
                     nullptr) const {
    run(out, in, target, /*hop_only=*/true, epilogue);
  }

  /// Rank-local hopping term on rank \p r's sublattice: out = D in on the
  /// \p target sites (others zeroed) with every hop whose neighbour lies
  /// in a ghost zone dropped.  This is the interior kernel alone — no
  /// scatter, exchange, span or overlap sample — so on a Partitioning
  /// along a Schwarz block grid it is one block's Dirichlet-cut hop: the
  /// NeighborTable's ghost entries are exactly the cut links.  \p out and
  /// \p in are local fields (geometry partitioning().local()); calls for
  /// distinct fields may run concurrently.  Inside a serial region the
  /// site loop runs inline and untuned.
  void apply_hop_local(int r, WilsonField<Real>& out,
                       const WilsonField<Real>& in, Parity target) const {
    const auto rest = out.parity_span(opposite(target));
    std::fill(rest.begin(), rest.end(), WilsonSpinor<Real>{});
    interior_kernel(r, in, out, target, /*hop_only=*/true);
  }

  /// Batched apply_hop_local for a Schwarz block's RHS batch: each
  /// neighbour lookup serves every RHS through the shared multi-RHS site
  /// body (detail::wilson_site_hop_multi), and outs[i] is bitwise
  /// equal to apply_hop_local on ins[i].  A width-1 batch runs the
  /// interior kernel itself.  Wider batches run in groups of
  /// kMaxMultiRhs on parallel_for's default grid (inline inside a serial
  /// region), with no tune key of their own.
  void apply_hop_local(int r, const std::vector<WilsonField<Real>*>& outs,
                       const std::vector<const WilsonField<Real>*>& ins,
                       Parity target) const {
    if (ins.size() == 1) {
      apply_hop_local(r, *outs[0], *ins[0], target);
      return;
    }
    const LatticeGeometry& local = part_.local();
    const std::int64_t h = local.half_volume();
    const std::int64_t begin = target == Parity::Odd ? h : 0;
    for (WilsonField<Real>* out : outs) {
      // The other parity is zeroed, as in the width-1 call.
      const auto rest = out->parity_span(opposite(target));
      std::fill(rest.begin(), rest.end(), WilsonSpinor<Real>{});
    }
    with_local_gauge(r, [&](const auto& u) {
      for (std::size_t base = 0; base < ins.size(); base += kMaxMultiRhs) {
        const int w = static_cast<int>(
            std::min<std::size_t>(kMaxMultiRhs, ins.size() - base));
        const WilsonSpinor<Real>* in[kMaxMultiRhs];
        WilsonSpinor<Real>* out[kMaxMultiRhs];
        for (int i = 0; i < w; ++i) {
          in[i] = ins[base + static_cast<std::size_t>(i)]->sites().data();
          out[i] = outs[base + static_cast<std::size_t>(i)]->sites().data();
        }
        parallel_for(h, [&](std::int64_t idx) {
          const std::int64_t s = begin + idx;
          // A ghost entry is a cut leg.
          std::int64_t sp[kNDim];
          std::int64_t sm[kNDim];
          detail::wilson_neighbors(nt_, s, nullptr, sp, sm);
          detail::wilson_site_hop_multi(out, in, w, u, s, sp, sm);
        });
        // Nominal: one fetch per link for the whole group, as in
        // wilson_hop_multi.
        meter_gauge_bytes(gauge_recon(u), interior_links_ * h / local.volume(),
                          static_cast<int>(sizeof(Real)));
      }
    });
  }

 private:
  void run(WilsonField<Real>& out, const WilsonField<Real>& in,
           std::optional<Parity> target, bool hop_only,
           const detail::RankEpilogue<WilsonSpinor<Real>>& epilogue =
               nullptr) const {
    detail::run_partitioned<WilsonProjectPacker<Real>>(
        map_, nt_, comms_, target, ghost_wire_, st_, out, in,
        [&](int r) { interior_kernel(r, target, hop_only); },
        [&](int r, int mu) { exterior_kernel(r, mu, target, hop_only); },
        epilogue);
  }

 public:

  const LatticeGeometry& geometry() const override { return part_.global(); }

  const Partitioning& partitioning() const { return part_; }
  /// Global <-> rank-local site maps of partitioning().
  const DomainMap& domain_map() const { return map_; }
  const PartitionedTraffic& traffic() const { return st_.traffic; }
  /// Phase times of the threaded path (empty when running seq).
  const OverlapStats& overlap() const { return st_.overlap; }
  void reset_overlap() const { st_.overlap.reset(); }
  bool comms_enabled() const { return comms_; }

 private:
  /// Builds the per-rank compressed copies of the local link body for \p r
  /// (lazily; the ghost zones are untouched).
  void ensure_compressed(Reconstruct r) {
    const auto build = [&](std::vector<CompressedGaugeField<Real>>& dst,
                           Reconstruct scheme) {
      if (!dst.empty()) return;
      dst.reserve(u_local_.size());
      for (const auto& u : u_local_) dst.emplace_back(u, scheme);
    };
    if (r == Reconstruct::Twelve) build(u12_, Reconstruct::Twelve);
    if (r == Reconstruct::Eight) build(u8_, Reconstruct::Eight);
  }

  /// Invokes \p fn with rank \p r's local gauge body in the active format.
  template <typename Fn>
  void with_local_gauge(int r, Fn&& fn) const {
    const auto i = static_cast<std::size_t>(r);
    switch (recon_) {
      case Reconstruct::Twelve: fn(u12_[i]); break;
      case Reconstruct::Eight: fn(u8_[i]); break;
      case Reconstruct::None:
      default: fn(u_local_[i]); break;
    }
  }

  void interior_kernel(int r, std::optional<Parity> target,
                       bool hop_only) const {
    const auto i = static_cast<std::size_t>(r);
    interior_kernel(r, st_.in[i], st_.out[i], target, hop_only);
  }

  void interior_kernel(int r, const WilsonField<Real>& in,
                       WilsonField<Real>& out, std::optional<Parity> target,
                       bool hop_only) const {
    with_local_gauge(r, [&](const auto& u) {
      interior_impl(u, r, in, out, target, hop_only);
    });
  }

  void exterior_kernel(int r, int mu, std::optional<Parity> target,
                       bool hop_only) const {
    with_local_gauge(r, [&](const auto& u) {
      exterior_impl(u, r, mu, target, hop_only);
    });
  }

  /// Diagonal + all hopping contributions whose neighbour is rank-local.
  /// With \p target set only that parity is computed (the other parity of
  /// \p out is left as it is: the copy-out zeroes it globally, the local
  /// hops zero it themselves); \p hop_only drops the (4 + m + A) diagonal
  /// and the -1/2 factor, producing the raw hopping sum D in.
  template <typename Gauge>
  void interior_impl(const Gauge& u, int r, const WilsonField<Real>& in,
                     WilsonField<Real>& out, std::optional<Parity> target,
                     bool hop_only) const {
    const LatticeGeometry& local = part_.local();
    const CloverField<Real>* clover =
        clover_local_.empty() ? nullptr
                              : &clover_local_[static_cast<std::size_t>(r)];
    const Real diag = static_cast<Real>(4.0 + mass_);
    const std::int64_t begin =
        target.has_value() && *target == Parity::Odd ? local.half_volume()
                                                     : 0;
    const std::int64_t end =
        target.has_value() && *target == Parity::Even ? local.half_volume()
                                                      : local.volume();
    const WilsonSpinor<Real>* psi = in.sites().data();
    // Sites are written independently; the loop granularity is autotuned
    // (shared across ranks: every rank has the same local volume, so rank 0
    // tunes and the rest hit the cache).
    std::string aux = detail::dslash_aux<Real>(target, false, gauge_recon(u));
    if (hop_only) aux += ",hop";
    tuned_site_loop(
        "wilson_part_interior", std::move(aux), out.sites(), end - begin,
        [&](std::int64_t idx) {
      const std::int64_t s = begin + idx;
      // A ghost entry is a dropped leg: the exterior kernels add it, or,
      // with comms off, it stays cut.
      std::int64_t sp[kNDim];
      std::int64_t sm[kNDim];
      detail::wilson_neighbors(nt_, s, nullptr, sp, sm);
      const WilsonSpinor<Real> hop =
          detail::wilson_site_hop<Real>(u, psi, s, sp, sm);
      out.at(s) = hop_only ? hop
                           : detail::wilson_clover_site(
                                 hop, psi[s],
                                 clover != nullptr ? &clover->at(s) : nullptr,
                                 diag);
    });
    // Nominal local-body link loads, parity-scaled when target is set.
    meter_gauge_bytes(gauge_recon(u),
                      interior_links_ * (end - begin) / local.volume(),
                      static_cast<int>(sizeof(Real)));
  }

  /// Adds ghost-zone contributions across the two faces of dimension mu.
  /// The forward term multiplies a *local* link (possibly compressed); the
  /// backward term's link lives in the ghost zone and is always full.
  template <typename Gauge>
  void exterior_impl(const Gauge& u, int r, int mu,
                     std::optional<Parity> target, bool hop_only) const {
    const LatticeGeometry& local = part_.local();
    const auto& gg = gauge_ghosts_[static_cast<std::size_t>(r)];
    const auto& sg = st_.ghosts[static_cast<std::size_t>(r)];
    auto& out = st_.out[static_cast<std::size_t>(r)];
    const FaceIndexer& face = nt_.face(mu);
    const std::int64_t fv = face.face_volume();
    const int slices[2] = {0, local.dim(mu) - 1};
    // Flattened over (slice, face site): the two slices are distinct for
    // any partitioned extent >= 2, so every index writes its own site and
    // the granularity is autotuned like the interior.
    std::string aux = detail::dslash_aux<Real>(target, false, gauge_recon(u));
    if (hop_only) aux += ",hop";
    // Slice L-1 receives forward-ghost terms, slice 0 backward-ghost.
    tuned_site_loop(
        "wilson_part_exterior", std::move(aux), out.sites(), 2 * fv,
        [&](std::int64_t idx) {
      const int which = static_cast<int>(idx / fv);
      const std::int64_t f = idx % fv;
      const Coord x = face.face_coords(f, slices[which]);
      if (target.has_value() &&
          LatticeGeometry::parity(x) !=
              (*target == Parity::Even ? 0 : 1)) {
        return;
      }
      const std::int64_t s = local.eo_index(x);
      const HalfSpinor<Real>* hf = nullptr;
      const HalfSpinor<Real>* hb = nullptr;
      const Matrix3<Real>* ub = nullptr;
      const auto fwd = nt_.neighbor(s, mu, +1, 1);
      if (!fwd.local() && fwd.zone == ghost_zone_id(mu, 0)) {
        hf = &sg.at(fwd.zone, fwd.index);
      }
      const auto bwd = nt_.neighbor(s, mu, -1, 1);
      if (!bwd.local() && bwd.zone == ghost_zone_id(mu, 1)) {
        hb = &sg.at(bwd.zone, bwd.index);
        ub = &gg.at(bwd.zone, bwd.index);
      }
      WilsonSpinor<Real> hop = detail::ghost_site_hop(u, mu, s, hf, ub, hb);
      if (!hop_only) hop *= Real(-0.5);
      out.at(s) += hop;
    });
    // Per face pass: fv forward loads from the (possibly compressed) local
    // body, fv backward loads from the full-matrix ghost zone.
    const std::int64_t n = target.has_value() ? fv / 2 : fv;
    meter_gauge_bytes(gauge_recon(u), n, static_cast<int>(sizeof(Real)));
    meter_gauge_bytes(Reconstruct::None, n, static_cast<int>(sizeof(Real)));
  }

  Partitioning part_;
  DomainMap map_;
  NeighborTable nt_;
  double mass_;
  bool comms_;
  Reconstruct recon_ = Reconstruct::None;
  WireFormat ghost_wire_{NativePrecision<Real>::value};
  std::int64_t interior_links_ = 0;
  std::vector<GaugeField<Real>> u_local_;
  std::vector<CompressedGaugeField<Real>> u12_;
  std::vector<CompressedGaugeField<Real>> u8_;
  std::vector<CloverField<Real>> clover_local_;
  std::vector<GhostZones<Matrix3<Real>>> gauge_ghosts_;
  mutable detail::RankStaging<WilsonSpinor<Real>, HalfSpinor<Real>> st_;
};

/// Partitioned improved staggered operator M = m + D/2 (fat + long links).
template <typename Real>
class PartitionedStaggered : public LinearOperator<StaggeredField<Real>> {
 public:
  PartitionedStaggered(const Partitioning& part, const GaugeField<Real>& fat,
                       const GaugeField<Real>& lng, double mass,
                       bool comms = true)
      : part_(part), map_(part), nt_(part.local(), part.partitioned_dims(), 3),
        mass_(mass), comms_(comms) {
    map_.scatter_gauge(fat, fat_local_);
    map_.scatter_gauge(lng, lng_local_);
    fat_ghosts_.assign(static_cast<std::size_t>(part.num_ranks()),
                       GhostZones<Matrix3<Real>>(nt_));
    lng_ghosts_.assign(static_cast<std::size_t>(part.num_ranks()),
                       GhostZones<Matrix3<Real>>(nt_));
    // Fat links reach one hop, long links three: exchange only the layers
    // the stencil can touch.  Recon wire is pinned to None: fat/long
    // links are smeared *sums* of products, not SU(3) elements, so the
    // 12/8 unitarity-based schemes would reconstruct the wrong matrix.
    exchange_gauge_ghosts(part_, nt_, fat_local_, fat_ghosts_,
                          &st_.traffic.gauge, /*depth=*/1, Reconstruct::None);
    exchange_gauge_ghosts(part_, nt_, lng_local_, lng_ghosts_,
                          &st_.traffic.gauge, /*depth=*/3, Reconstruct::None);
    st_.in.assign(static_cast<std::size_t>(part.num_ranks()),
                  StaggeredField<Real>(part.local()));
    st_.out.assign(static_cast<std::size_t>(part.num_ranks()),
                   StaggeredField<Real>(part.local()));
    st_.ghosts.assign(static_cast<std::size_t>(part.num_ranks()),
                      GhostZones<ColorVector<Real>>(nt_));
    // Env-forced wire axes apply here too; the tuned policy sweep lives
    // on the Wilson hop only (the staggered ghost is already 4x smaller
    // per site), so `tune` leaves staggered spinor ghosts lossless.
    if (comms_) {
      ghost_wire_ = default_wire_format<ColorVector<Real>>();
    }
  }

  /// Resolved spinor-ghost wire precision (native unless LQCD_GHOST_PREC).
  Precision ghost_precision() const { return ghost_wire_.prec; }
  /// Resolved spinor-ghost wire format (full/native unless forced).
  WireFormat ghost_wire() const { return ghost_wire_; }

  void apply(StaggeredField<Real>& out,
             const StaggeredField<Real>& in) const override {
    this->count_application();
    detail::run_partitioned<IdentityPacker<ColorVector<Real>>>(
        map_, nt_, comms_, std::nullopt, ghost_wire_, st_, out, in,
        [&](int r) { interior_kernel(r); },
        [&](int r, int mu) { exterior_kernel(r, mu); });
  }

  const LatticeGeometry& geometry() const override { return part_.global(); }

  const Partitioning& partitioning() const { return part_; }
  const PartitionedTraffic& traffic() const { return st_.traffic; }
  const OverlapStats& overlap() const { return st_.overlap; }
  void reset_overlap() const { st_.overlap.reset(); }

 private:
  /// out = m in + D in / 2 on every local site, from the rank-local
  /// neighbours only (the one staggered site body, on colour-row lanes in
  /// float); the exterior kernels add the ghost terms.
  void interior_kernel(int r) const {
    const LatticeGeometry& local = part_.local();
    const auto& fat = fat_local_[static_cast<std::size_t>(r)];
    const auto& lng = lng_local_[static_cast<std::size_t>(r)];
    const auto& in = st_.in[static_cast<std::size_t>(r)];
    auto& out = st_.out[static_cast<std::size_t>(r)];
    const ColorVector<Real>* psi = in.sites().data();
    const Real m = static_cast<Real>(mass_);
    tuned_site_loop(
        "staggered_part_interior", detail::dslash_aux<Real>(std::nullopt, false),
        out.sites(), local.volume(), [&](std::int64_t s) {
      std::int64_t nb[4 * kNDim];
      detail::staggered_neighbors(nt_, s, nullptr, nb);
      ColorVector<Real> hop =
          detail::staggered_site_hop<Real>(fat, lng, psi, s, nb);
      ColorVector<Real> v = psi[s];
      v *= m;
      hop *= Real(0.5);
      v += hop;
      out.at(s) = v;
    });
  }

  /// Stays serial: the slice list is deduplicated (a 3-hop stencil on a
  /// local extent of 4 revisits slices), so a flattened loop would not have
  /// write-disjoint iterations the way the Wilson exterior does.  Each
  /// ghost leg multiplies through detail::staggered_leg_mul (colour-row
  /// lanes in float).
  void exterior_kernel(int r, int mu) const {
    const LatticeGeometry& local = part_.local();
    const auto& fat = fat_local_[static_cast<std::size_t>(r)];
    const auto& lng = lng_local_[static_cast<std::size_t>(r)];
    const auto& fg = fat_ghosts_[static_cast<std::size_t>(r)];
    const auto& lg = lng_ghosts_[static_cast<std::size_t>(r)];
    const auto& sg = st_.ghosts[static_cast<std::size_t>(r)];
    auto& out = st_.out[static_cast<std::size_t>(r)];
    const FaceIndexer& face = nt_.face(mu);
    const int L = local.dim(mu);
    // Boundary slices touched by 1- or 3-hop terms, deduplicated (a local
    // extent of 4 makes every slice a boundary slice).
    std::vector<int> slices;
    for (int d = 0; d < 3; ++d) {
      for (int c : {d, L - 1 - d}) {
        if (std::find(slices.begin(), slices.end(), c) == slices.end()) {
          slices.push_back(c);
        }
      }
    }
    for (int slice : slices) {
      for (std::int64_t f = 0; f < face.face_volume(); ++f) {
        const Coord x = face.face_coords(f, slice);
        const std::int64_t s = local.eo_index(x);
        ColorVector<Real> hop{};
        const auto f1 = nt_.neighbor(s, mu, +1, 1);
        if (!f1.local()) {
          hop += detail::staggered_leg_mul<false>(fat.link(mu, s),
                                                  sg.at(f1.zone, f1.index));
        }
        const auto b1 = nt_.neighbor(s, mu, -1, 1);
        if (!b1.local()) {
          hop -= detail::staggered_leg_mul<true>(fg.at(b1.zone, b1.index),
                                                 sg.at(b1.zone, b1.index));
        }
        const auto f3 = nt_.neighbor(s, mu, +3, 3);
        if (!f3.local()) {
          hop += detail::staggered_leg_mul<false>(lng.link(mu, s),
                                                  sg.at(f3.zone, f3.index));
        }
        const auto b3 = nt_.neighbor(s, mu, -3, 3);
        if (!b3.local()) {
          hop -= detail::staggered_leg_mul<true>(lg.at(b3.zone, b3.index),
                                                 sg.at(b3.zone, b3.index));
        }
        hop *= Real(0.5);
        out.at(s) += hop;
      }
    }
  }

  Partitioning part_;
  DomainMap map_;
  NeighborTable nt_;
  double mass_;
  bool comms_;
  WireFormat ghost_wire_{NativePrecision<Real>::value};
  std::vector<GaugeField<Real>> fat_local_;
  std::vector<GaugeField<Real>> lng_local_;
  std::vector<GhostZones<Matrix3<Real>>> fat_ghosts_;
  std::vector<GhostZones<Matrix3<Real>>> lng_ghosts_;
  mutable detail::RankStaging<ColorVector<Real>, ColorVector<Real>> st_;
};

}  // namespace lqcd
