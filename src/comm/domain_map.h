#pragma once
/// \file domain_map.h
/// \brief Fast scatter/gather between a global field and the per-rank local
/// fields of a Partitioning.
///
/// The map precomputes, for every rank, the global even-odd index of each
/// local even-odd site, so scatter and gather are single passes of indexed
/// copies.  This is the virtual-cluster substitute for the initial data
/// distribution an MPI job performs when loading a configuration.

#include <algorithm>
#include <span>
#include <vector>

#include "fields/lattice_field.h"
#include "lattice/partition.h"

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

  /// Splits \p global into per-rank local fields.  \p locals is resized
  /// only when its count or local geometry differs; otherwise every field
  /// keeps its storage and is overwritten in place (operators scatter on
  /// every apply).
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
      auto dst = locals[static_cast<std::size_t>(r)].sites();
      auto map = rank_map(r);
      auto src = global.sites();
      for (std::size_t i = 0; i < dst.size(); ++i) {
        dst[i] = src[static_cast<std::size_t>(map[i])];
      }
    }
  }

  /// Reassembles per-rank fields into \p global.
  template <typename Site>
  void gather(const std::vector<LatticeField<Site>>& locals,
              LatticeField<Site>& global) const {
    auto dst = global.sites();
    for (int r = 0; r < part_.num_ranks(); ++r) {
      auto src = locals[static_cast<std::size_t>(r)].sites();
      auto map = rank_map(r);
      for (std::size_t i = 0; i < src.size(); ++i) {
        dst[static_cast<std::size_t>(map[i])] = src[i];
      }
    }
  }

  /// Splits a global gauge field into per-rank gauge fields.
  template <typename Real>
  void scatter_gauge(const GaugeField<Real>& global,
                     std::vector<GaugeField<Real>>& locals) const {
    locals.clear();
    locals.reserve(static_cast<std::size_t>(part_.num_ranks()));
    for (int r = 0; r < part_.num_ranks(); ++r) {
      locals.emplace_back(part_.local());
      auto map = rank_map(r);
      for (int mu = 0; mu < kNDim; ++mu) {
        for (std::size_t i = 0; i < map.size(); ++i) {
          locals.back().link(mu, static_cast<std::int64_t>(i)) =
              global.link(mu, map[i]);
        }
      }
    }
  }

 private:
  Partitioning part_;
  std::vector<std::vector<std::int64_t>> maps_;
};

}  // namespace lqcd
