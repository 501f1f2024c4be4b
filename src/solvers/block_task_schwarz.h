#pragma once
/// \file block_task_schwarz.h
/// \brief The GCR-DD Schwarz preconditioner run the way the paper runs it
/// (§8.1, Algorithm 1): every Dirichlet block owns its sublattice and runs
/// its whole MR solve — cut-operator applies, block-local reductions and
/// reduced-precision stores — as one task, so blocks never wait on each
/// other inside an apply.  One body serves every batch width: apply() is
/// the width-1 call of apply_multi(), whose block tasks run the MR steps
/// of every RHS in the batch in lockstep.
///
/// The blocks are the ranks of Partitioning(geom, block_grid).  Each apply
/// copies a block's sites in through the DomainMap, sets r = b for each
/// RHS, runs `mr.steps` MR steps on persistent block-local fields and
/// copies x out.  Per step the block applies one batched Schur operator
/// (each link and clover site loaded once for the batch), then, RHS by
/// RHS, takes the dot/norm terms, sums them serially, does the fused x/r
/// update and the stores.  The blocks are spread over the worker pool,
/// each task in a SerialRegionGuard so its site loops run inline and
/// nothing is tuned off the caller thread.  Each block is one serial task,
/// so the parallelism is min(blocks, workers).  With fewer blocks than
/// half the workers (a single block on four workers), tasks would leave
/// most workers idle, so the blocks run one after another on the caller
/// and spread their site loops over the pool instead; the block reductions
/// stay serial sweeps, so both ways give the same bits.
/// The block operator is the partitioned Wilson hop with communications
/// off, reached per block through PartitionedWilsonClover::apply_hop_local
/// (its batched overload for wider batches): dropping the NeighborTable's
/// ghost entries is exactly the Dirichlet cut, so no stencil body lives
/// here.  Its links are stored in the masked Dirichlet operator's format
/// (dirichlet_recon).  The clover term is stored per block only on the
/// parity it acts on: A_ee on even sites, A_oo^{-1} on odd sites.  Each
/// hop is followed by a pass of the Schur site step (detail::schur_site)
/// over the parity it wrote, as in the single-domain operator.
///
/// **Bitwise contract.**  apply() and every RHS of apply_multi() equal
/// SchwarzPreconditioner over the masked WilsonCloverSchurOperator
/// (solvers/schwarz.h) bit for bit (tests/test_gcr_dd.cpp):
///  * Block origins are multiples of even block extents, so every site
///    keeps its parity and block-local even-odd order is the global order
///    restricted to the block.  Each block's dot and norm therefore add the
///    same terms in the same order as mr_solve's serial block_dot and
///    block_norm2 sweeps, and the fused x/r update is its two block_caxpy
///    calls' per-site arithmetic.
///  * The hop visits the same neighbours in the same order with the same
///    links as the masked wilson_hop, and both skip exactly the cut terms;
///    the batched hop runs each RHS through the single-RHS operation
///    sequence (dirac/multi_rhs.h).  Both store the links in the same
///    format, resolved through the masked operator's policy entry, so this
///    holds under every LQCD_RECON.
///  * mr_solve opens with r = -(A 0) + b.  A 0 is +0 at every site in IEEE
///    arithmetic (every accumulator starts at +0, and adding or
///    subtracting zeros to +0 stays +0), so -(A 0) + b is b bit for bit;
///    the block solve sets r = b and keeps that sequence's two low_store
///    calls.  mr_solve's final residual norm is never read and is skipped.
/// Block extents must therefore be even; the constructor checks them.
///
/// **Metering.**  An apply of width w adds w x `mr.steps` to inner_steps()
/// and to `solver.schwarz.mr_steps` (steps per RHS, not per block);
/// apply_multi reports `mr.steps` per RHS to the GCR driver.  It counts
/// w `blas.sweeps` per lattice-wide pass: the copy in, the copy out, and
/// the two fused passes of each MR step.  Block hops meter
/// `dslash.gauge_bytes` through meter_gauge_bytes, once per link load.
/// The `schwarz.apply` (width 1) or `schwarz.apply_multi` span stays on
/// the caller thread; each block operator is an `mr.op` or `mr.op_multi`
/// span on whichever thread runs the block.

#include <array>
#include <complex>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dirac/even_odd.h"
#include "dirac/operator.h"
#include "dirac/partitioned.h"
#include "dirac/partitioned_schur.h"
#include "dirac/recon_policy.h"
#include "fields/clover.h"
#include "lattice/block_mask.h"
#include "lattice/partition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solvers/gcr.h"
#include "solvers/mr.h"
#include "util/parallel_for.h"

namespace lqcd {

template <typename Real>
class BlockTaskSchwarzPreconditioner
    : public LinearOperator<WilsonField<Real>>,
      public BlockPreconditioner<WilsonField<Real>> {
 public:
  using Field = WilsonField<Real>;

  /// Preconditions the Schur system M_hat = A_ee - (1/4) D_eo A_oo^{-1}
  /// D_oe cut along \p block_grid.  \p clover may be null (plain Wilson);
  /// \p low_store, when set, must act site by site (a half round trip).
  /// \throws std::invalid_argument naming the block grid, the dimension
  /// and the block extent if a block extent is odd.
  BlockTaskSchwarzPreconditioner(const GaugeField<Real>& u,
                                 const CloverField<Real>* clover,
                                 double mass,
                                 const std::array<int, kNDim>& block_grid,
                                 MrParams mr,
                                 std::function<void(Field&)> low_store = nullptr)
      : hop_(block_hops(u, clover, mass, block_grid)),
        mr_(mr), low_store_(std::move(low_store)) {
    const int nb = num_blocks();
    blocks_.reserve(static_cast<std::size_t>(nb));
    for (int b = 0; b < nb; ++b) {
      blocks_.emplace_back(schur_diagonal(hop_.domain_map(), b, clover, mass));
    }
  }

  /// out = K in: the width-1 call of the batched block solve.
  void apply(Field& out, const Field& in) const override {
    ScopedSpan span("schwarz.apply");
    run({&out}, {&in}, "mr.op");
  }

  /// outs[i] = K ins[i] for the whole batch, each RHS bitwise equal to
  /// apply(ins[i]).  Reports `mr.steps` inner steps per RHS.
  void apply_multi(const std::vector<Field*>& outs,
                   const std::vector<const Field*>& ins,
                   std::vector<int>* inner_steps = nullptr) const override {
    ScopedSpan span("schwarz.apply_multi");
    run(outs, ins, "mr.op_multi");
    if (inner_steps != nullptr) inner_steps->assign(ins.size(), mr_.steps);
  }

  const LatticeGeometry& geometry() const override { return hop_.geometry(); }

  int num_blocks() const { return hop_.partitioning().num_ranks(); }

  /// Total MR steps since construction: `mr.steps` per RHS of each apply,
  /// cumulative like SchwarzPreconditioner's tally.
  int inner_steps() const { return inner_steps_; }

  /// Link format of the block hops (see dirichlet_recon).
  Reconstruct recon() const { return hop_.recon(); }

  /// Traffic meters of the comms-off block hops, which exchange nothing.
  const PartitionedTraffic& traffic() const { return hop_.traffic(); }

 private:
  /// The block hops, once the block extents are known to be even.
  static PartitionedWilsonClover<Real> block_hops(
      const GaugeField<Real>& u, const CloverField<Real>* clover, double mass,
      const std::array<int, kNDim>& grid) {
    const LatticeGeometry& g = u.geometry();
    for (int mu = 0; mu < kNDim; ++mu) {
      const int n = grid[static_cast<std::size_t>(mu)];
      if (n < 1 || g.dim(mu) % n != 0 || (g.dim(mu) / n) % 2 == 0) continue;
      std::string name = "{";
      for (int nu = 0; nu < kNDim; ++nu) {
        name += (nu > 0 ? "," : "") +
                std::to_string(grid[static_cast<std::size_t>(nu)]);
      }
      name += "}";
      throw std::invalid_argument(
          "block-task Schwarz: block grid " + name + " gives blocks of odd " +
          "extent " + std::to_string(g.dim(mu) / n) + " in dimension " +
          std::to_string(mu) + " (lattice extent " +
          std::to_string(g.dim(mu)) + "); block extents must be even");
    }
    return PartitionedWilsonClover<Real>::block_hops(
        Partitioning(g, grid), u, dirichlet_recon(u, clover, mass, grid));
  }

  /// The link format of the masked Dirichlet operator, resolved through
  /// that operator's own policy entry (`wilson_schur_recon`, aux `cut`).
  /// The bitwise reference (SchwarzPreconditioner over the masked
  /// operator) then runs the same links under every LQCD_RECON setting,
  /// and 12/8 reconstruction of the half-rounded links rounds the same
  /// way in both.  Under `tune` the entry is resolved on a transient
  /// masked operator, exactly as a masked operator on these links
  /// resolves it.
  static Reconstruct dirichlet_recon(const GaugeField<Real>& u,
                                     const CloverField<Real>* clover,
                                     double mass,
                                     const std::array<int, kNDim>& grid) {
    const ReconSetting& s = recon_setting();
    if (s.forced.has_value()) return *s.forced;
    if (!s.tune) return Reconstruct::None;
    const BlockMask mask(u.geometry(), grid);
    return WilsonCloverSchurOperator<Real>(u, clover, mass, &mask).recon();
  }

  /// One site's terms of the MR dot and norm.
  struct Term {
    Cplx<Real> dot;
    Real norm;
  };

  /// One RHS's block-local MR fields.
  struct Rhs {
    explicit Rhs(const LatticeGeometry& g) : x(g), r(g), ar(g), tmp(g) {}
    Field x, r, ar, tmp;
  };

  /// One block's persistent state, all on the block-local geometry.
  struct Block {
    explicit Block(CloverField<Real> diagonal)
        : clover(std::move(diagonal)),
          terms(static_cast<std::size_t>(clover.volume())) {}
    CloverField<Real> clover;  ///< A_ee on even sites, A_oo^{-1} on odd
    std::vector<Rhs> rhs;      ///< grown to the widest batch seen
    /// The current batch's fields of rhs, as the batched hop takes them.
    std::vector<Field*> tmp, ar;
    std::vector<const Field*> r, ctmp;
    std::vector<Term> terms;
  };

  /// The block solves of one apply of width ins.size().
  void run(const std::vector<Field*>& outs,
           const std::vector<const Field*>& ins, const char* op_span) const {
    const std::size_t w = ins.size();
    // Set up here, on the caller thread, so that no block task allocates
    // on a pool worker (that raised the resident size).
    for (Block& k : blocks_) {
      while (k.rhs.size() < w) k.rhs.emplace_back(hop_.partitioning().local());
      k.tmp.resize(w);
      k.ar.resize(w);
      k.r.resize(w);
      k.ctmp.resize(w);
      for (std::size_t i = 0; i < w; ++i) {
        k.tmp[i] = &k.rhs[i].tmp;
        k.ctmp[i] = &k.rhs[i].tmp;
        k.ar[i] = &k.rhs[i].ar;
        k.r[i] = &k.rhs[i].r;
      }
    }
    if (2 * num_blocks() >= worker_count()) {
      parallel_for(num_blocks(), [&](std::int64_t b) {
        SerialRegionGuard serial;
        solve_block(static_cast<int>(b), outs, ins, op_span);
      });
    } else {
      // One task per block would leave most workers idle: run the blocks
      // one after another, each spreading its site loops over the pool.
      for (int b = 0; b < num_blocks(); ++b) {
        solve_block(b, outs, ins, op_span);
      }
    }
    const auto steps = static_cast<std::uint64_t>(mr_.steps) * w;
    inner_steps_ += static_cast<int>(steps);
    metric_counter("solver.schwarz.mr_steps").add(steps);
    metric_counter("blas.sweeps").add(2 * w + 2 * steps);
  }

  /// k.ar = M_hat k.r on block b for the batch: apply_impl of the masked
  /// WilsonCloverSchurOperator, step for step, with each link and clover
  /// site loaded once for the batch: tmp_o = A_oo^{-1} D_oe r_e, then
  /// ar_e = A_ee r_e - 1/4 D_eo tmp_o, each clover term a pass of
  /// detail::schur_site over the parity its hop wrote.
  void block_op(int b, Block& k) const {
    const std::int64_t h = k.clover.geometry().half_volume();
    hop_.apply_hop_local(b, k.tmp, k.r, Parity::Odd);
    parallel_for(h, [&](std::int64_t i) {
      const std::int64_t s = h + i;
      const CloverSite<Real>& cs = k.clover.at(s);
      for (Field* t : k.tmp) {
        t->at(s) = detail::schur_site<Real>(cs, t->at(s), nullptr);
      }
    });
    hop_.apply_hop_local(b, k.ar, k.ctmp, Parity::Even);
    parallel_for(h, [&](std::int64_t s) {
      const CloverSite<Real>& cs = k.clover.at(s);
      for (std::size_t i = 0; i < k.r.size(); ++i) {
        k.ar[i]->at(s) =
            detail::schur_site(cs, k.ar[i]->at(s), &k.r[i]->at(s));
      }
    });
  }

  /// One MR update of one RHS on its block, after the block operator:
  /// mr_solve's masked alpha and x/r update restricted to the block.
  void mr_update(Block& k, Rhs& q) const {
    auto xs = q.x.sites();
    auto rs = q.r.sites();
    const auto as = q.ar.sites();
    const auto n = static_cast<std::int64_t>(rs.size());
    // block_dot and block_norm2: <ar, r> and |ar|^2.  The per-site terms
    // come from one pass; only their sum is a serial sweep, so it adds the
    // same terms in site order however the site loops run.
    parallel_for(n, [&](std::int64_t i) {
      const auto j = static_cast<std::size_t>(i);
      k.terms[j] = {inner(as[j], rs[j]), norm2(as[j])};
    });
    std::complex<double> num{};
    double den = 0;
    for (const Term& t : k.terms) {
      num += std::complex<double>(t.dot.real(), t.dot.imag());
      den += static_cast<double>(t.norm);
    }
    const std::complex<double> alpha =
        den > 0 ? mr_.omega * num / den : std::complex<double>{};
    // The two block_caxpy calls, x += alpha r and r -= alpha ar, in one
    // pass.
    const Cplx<Real> ac(static_cast<Real>(alpha.real()),
                        static_cast<Real>(alpha.imag()));
    parallel_for(n, [&](std::int64_t i) {
      const auto j = static_cast<std::size_t>(i);
      WilsonSpinor<Real> t = rs[j];
      t *= ac;
      xs[j] += t;
      WilsonSpinor<Real> s = as[j];
      s *= ac;
      rs[j] -= s;
    });
    if (low_store_) {
      low_store_(q.x);
      low_store_(q.r);
    }
  }

  /// The whole MR solve of block b for every RHS of the batch: mr_solve's
  /// masked sequence restricted to the block's sites (see the file comment
  /// for why it is bitwise), the RHS stepping in lockstep.
  void solve_block(int b, const std::vector<Field*>& outs,
                   const std::vector<const Field*>& ins,
                   const char* op_span) const {
    Block& k = blocks_[static_cast<std::size_t>(b)];
    const auto map = hop_.domain_map().rank_map(b);
    const std::size_t w = ins.size();
    const auto n = static_cast<std::int64_t>(map.size());
    for (std::size_t i = 0; i < w; ++i) {
      Rhs& q = k.rhs[i];
      auto rs = q.r.sites();
      const auto src = ins[i]->sites();
      parallel_for(n, [&](std::int64_t j) {
        rs[static_cast<std::size_t>(j)] =
            src[static_cast<std::size_t>(map[static_cast<std::size_t>(j)])];
      });
      q.x.set_zero();
      if (low_store_) {
        low_store_(q.r);  // the stored right-hand side
        low_store_(q.r);  // r = b - A 0, stored
      }
    }
    for (int step = 0; step < mr_.steps; ++step) {
      {
        ScopedSpan span(op_span);
        block_op(b, k);
      }
      for (std::size_t i = 0; i < w; ++i) mr_update(k, k.rhs[i]);
    }
    for (std::size_t i = 0; i < w; ++i) {
      const auto xs = k.rhs[i].x.sites();
      auto dst = outs[i]->sites();
      parallel_for(n, [&](std::int64_t j) {
        dst[static_cast<std::size_t>(map[static_cast<std::size_t>(j)])] =
            xs[static_cast<std::size_t>(j)];
      });
    }
  }

  PartitionedWilsonClover<Real> hop_;  ///< comms off, no clover
  MrParams mr_;
  std::function<void(Field&)> low_store_;
  mutable std::vector<Block> blocks_;
  mutable int inner_steps_ = 0;
};

}  // namespace lqcd
