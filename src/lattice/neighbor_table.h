#pragma once
/// \file neighbor_table.h
/// \brief Precomputed stencil neighbours for a rank-local sublattice,
/// distinguishing local sites from ghost-zone entries.
///
/// Ghost-zone addressing convention (shared with comm::FaceExchange):
///  * The forward (+mu) ghost zone holds the neighbouring rank's slices
///    x_mu = 0 .. depth-1; layer l corresponds to slice l.
///  * The backward (-mu) ghost zone holds the neighbour's slices
///    x_mu = L-1 .. L-depth; layer l corresponds to slice L-1-l (layer 0 is
///    adjacent to the boundary).
///  * Within a layer, sites are ordered by FaceIndexer::face_index.
///  * Ghost offset = layer * face_volume + face_index.
///
/// In an unpartitioned dimension neighbours wrap around locally and are
/// always classified Local, so no ghost memory or traffic is spent on that
/// dimension (§6.1: "allocation of ghost zones and data exchange in a given
/// dimension only takes place when that dimension is partitioned").

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "lattice/face.h"
#include "lattice/geometry.h"

namespace lqcd {

/// Zone tag for a stencil neighbour: 0 = local, otherwise 1 + 2*mu + dir
/// with dir 0 = forward (+mu) ghost, 1 = backward (-mu) ghost.
inline constexpr std::uint8_t kZoneLocal = 0;

inline constexpr std::uint8_t ghost_zone_id(int mu, int dir_is_backward) {
  return static_cast<std::uint8_t>(1 + 2 * mu + dir_is_backward);
}

/// Precomputed neighbour lookups for hop distances 1 and (optionally) 3.
class NeighborTable {
 public:
  struct Ref {
    std::int32_t index;  ///< eo index if local, ghost offset otherwise
    std::uint8_t zone;   ///< kZoneLocal or ghost_zone_id(mu, dir)
    bool local() const { return zone == kZoneLocal; }
  };

  /// \param local rank-local geometry.
  /// \param partitioned which dimensions have remote neighbours.
  /// \param max_hop 1 for Wilson-type stencils, 3 for improved staggered.
  NeighborTable(const LatticeGeometry& local,
                std::array<bool, kNDim> partitioned, int max_hop);

  const LatticeGeometry& geometry() const { return local_; }
  int max_hop() const { return max_hop_; }
  bool partitioned(int mu) const {
    return partitioned_[static_cast<std::size_t>(mu)];
  }

  /// Ghost-zone depth required in a partitioned dimension.
  int ghost_depth() const { return max_hop_; }

  /// Sites per ghost layer in dimension mu.
  std::int64_t face_volume(int mu) const {
    return faces_[static_cast<std::size_t>(mu)].face_volume();
  }

  /// Total sites in one ghost zone (depth * face volume); zero when the
  /// dimension is not partitioned.
  std::int64_t ghost_volume(int mu) const {
    return partitioned(mu) ? ghost_depth() * face_volume(mu) : 0;
  }

  /// Neighbour at x + hop*mu_hat (dir=+1) or x - hop*mu_hat (dir=-1).
  Ref neighbor(std::int64_t eo_site, int mu, int dir, int hop) const {
    return table_[table_offset(mu, dir, hop) +
                  static_cast<std::size_t>(eo_site)];
  }

  const FaceIndexer& face(int mu) const {
    return faces_[static_cast<std::size_t>(mu)];
  }

 private:
  std::size_t table_offset(int mu, int dir, int hop) const {
    // Directions are enumerated (hop_idx, mu, backward?) with one full
    // lattice-sized stripe per direction.
    const int hop_idx = hop == 1 ? 0 : 1;
    const int d = (hop_idx * kNDim + mu) * 2 + (dir < 0 ? 1 : 0);
    return static_cast<std::size_t>(d) *
           static_cast<std::size_t>(local_.volume());
  }

  LatticeGeometry local_;
  std::array<bool, kNDim> partitioned_;
  int max_hop_;
  std::vector<FaceIndexer> faces_;
  std::vector<Ref> table_;
};

/// The unpartitioned table (every dimension wraps locally, so every entry
/// is Local) of \p geom's extents and stencil reach \p max_hop.  Callers on
/// the same extents and reach share one immutable table: the memo holds it
/// only weakly, so it lives while some caller holds the returned pointer
/// and is rebuilt by the next call after the last holder lets go.
/// Thread-safe.
std::shared_ptr<const NeighborTable> shared_local_neighbors(
    const LatticeGeometry& geom, int max_hop);

}  // namespace lqcd
