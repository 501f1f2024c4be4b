#pragma once
/// \file domain_map.h
/// \brief Fast copies between a global field and the per-rank local fields
/// of a Partitioning.
///
/// The map precomputes, for every rank, the global even-odd index of each
/// local even-odd site, so every copy is one pass of indexed site copies.
/// The per-rank copies (`scatter(r, ...)`, `gather(r, ...)`) are what a
/// partitioned operator's rank task runs on its own sites — optionally one
/// parity only — so the caller never assembles the whole field; the
/// whole-field scatter/gather are those copies over every rank, the
/// virtual-cluster substitute for the initial data distribution an MPI job
/// performs when loading a configuration.  Local extents are even
/// (Partitioning), so a local site's parity is its global site's.

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "fields/lattice_field.h"
#include "lattice/partition.h"
#include "util/parallel_for.h"

namespace lqcd {

class DomainMap {
 public:
  explicit DomainMap(const Partitioning& part) : part_(part) {
    const auto& local = part.local();
    const auto lv = static_cast<std::size_t>(local.volume());
    maps_.resize(static_cast<std::size_t>(part.num_ranks()));
    for (int r = 0; r < part.num_ranks(); ++r) {
      auto& m = maps_[static_cast<std::size_t>(r)];
      m.resize(lv);
      for (std::int64_t s = 0; s < local.volume(); ++s) {
        const Coord lx = local.eo_coords(s);
        const Coord gx = part.global_coord(r, lx);
        m[static_cast<std::size_t>(s)] = part.global().eo_index(gx);
      }
    }
  }

  const Partitioning& partitioning() const { return part_; }

  std::span<const std::int64_t> rank_map(int rank) const {
    return maps_[static_cast<std::size_t>(rank)];
  }

  /// fn(i, s) for every local site i of rank \p r — only those of parity
  /// \p p when set — with s its global even-odd index.  The one site loop
  /// of every copy: it runs on parallel_for's default grid (inline inside
  /// a rank task), so \p fn must write only site i or site s.
  template <typename Fn>
  void for_sites(int r, std::optional<Parity> p, Fn&& fn) const {
    const auto map = rank_map(r);
    const auto h = static_cast<std::int64_t>(map.size()) / 2;
    const std::int64_t begin = p == Parity::Odd ? h : 0;
    const std::int64_t n = p.has_value() ? h : 2 * h;
    parallel_for(n, [&](std::int64_t idx) {
      const std::int64_t i = begin + idx;
      fn(i, map[static_cast<std::size_t>(i)]);
    });
  }

  /// Copies rank \p r's sites of \p global into its local field \p local:
  /// all of them, or with \p p set only that parity (the other parity of
  /// \p local keeps its contents).
  template <typename Site>
  void scatter(int r, const LatticeField<Site>& global,
               LatticeField<Site>& local,
               std::optional<Parity> p = std::nullopt) const {
    const auto src = global.sites();
    const auto dst = local.sites();
    for_sites(r, p, [&](std::int64_t i, std::int64_t s) {
      dst[static_cast<std::size_t>(i)] = src[static_cast<std::size_t>(s)];
    });
  }

  /// Copies rank \p r's local field into its sites of \p global.  With \p p
  /// set only that parity is copied and the rank's sites of the other
  /// parity are set to +0, so the field reads as \p local with its other
  /// parity zeroed.
  template <typename Site>
  void gather(int r, const LatticeField<Site>& local,
              LatticeField<Site>& global,
              std::optional<Parity> p = std::nullopt) const {
    const auto src = local.sites();
    const auto dst = global.sites();
    for_sites(r, p, [&](std::int64_t i, std::int64_t s) {
      dst[static_cast<std::size_t>(s)] = src[static_cast<std::size_t>(i)];
    });
    if (p.has_value()) {
      for_sites(r, opposite(*p), [&](std::int64_t, std::int64_t s) {
        dst[static_cast<std::size_t>(s)] = Site{};
      });
    }
  }

  /// Splits \p global into per-rank local fields.  \p locals is resized
  /// only when its count or local geometry differs; otherwise every field
  /// keeps its storage and is overwritten in place.
  template <typename Site>
  void scatter(const LatticeField<Site>& global,
               std::vector<LatticeField<Site>>& locals) const {
    const auto nr = static_cast<std::size_t>(part_.num_ranks());
    const bool reuse =
        locals.size() == nr &&
        std::all_of(locals.begin(), locals.end(), [&](const auto& f) {
          return f.geometry() == part_.local();
        });
    if (!reuse) {
      locals.clear();
      locals.reserve(nr);
      for (std::size_t r = 0; r < nr; ++r) locals.emplace_back(part_.local());
    }
    for (int r = 0; r < part_.num_ranks(); ++r) {
      scatter(r, global, locals[static_cast<std::size_t>(r)]);
    }
  }

  /// Reassembles per-rank fields into \p global.
  template <typename Site>
  void gather(const std::vector<LatticeField<Site>>& locals,
              LatticeField<Site>& global) const {
    for (int r = 0; r < part_.num_ranks(); ++r) {
      gather(r, locals[static_cast<std::size_t>(r)], global);
    }
  }

  /// Splits a global gauge field into per-rank gauge fields.
  template <typename Real>
  void scatter_gauge(const GaugeField<Real>& global,
                     std::vector<GaugeField<Real>>& locals) const {
    locals.clear();
    locals.reserve(static_cast<std::size_t>(part_.num_ranks()));
    for (int r = 0; r < part_.num_ranks(); ++r) {
      GaugeField<Real>& local = locals.emplace_back(part_.local());
      for_sites(r, std::nullopt, [&](std::int64_t i, std::int64_t s) {
        for (int mu = 0; mu < kNDim; ++mu) {
          local.link(mu, i) = global.link(mu, s);
        }
      });
    }
  }

 private:
  Partitioning part_;
  std::vector<std::vector<std::int64_t>> maps_;
};

}  // namespace lqcd
