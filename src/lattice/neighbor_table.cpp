#include "lattice/neighbor_table.h"

#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace lqcd {

NeighborTable::NeighborTable(const LatticeGeometry& local,
                             std::array<bool, kNDim> partitioned, int max_hop)
    : local_(local), partitioned_(partitioned), max_hop_(max_hop) {
  if (max_hop != 1 && max_hop != 3) {
    throw std::invalid_argument("NeighborTable: max_hop must be 1 or 3");
  }
  for (int mu = 0; mu < kNDim; ++mu) {
    // A partitioned dimension must be at least as deep as the stencil, or a
    // hop would reach past the nearest neighbour rank.
    if (partitioned_[static_cast<std::size_t>(mu)] &&
        local_.dim(mu) < max_hop) {
      throw std::invalid_argument(
          "NeighborTable: partitioned local extent smaller than stencil "
          "reach");
    }
  }
  faces_.reserve(kNDim);
  for (int mu = 0; mu < kNDim; ++mu) faces_.emplace_back(local_, mu);

  const int hop_count = max_hop == 3 ? 2 : 1;
  table_.resize(static_cast<std::size_t>(hop_count) * 2 * kNDim *
                static_cast<std::size_t>(local_.volume()));

  const int hops[2] = {1, 3};
  for (std::int64_t s = 0; s < local_.volume(); ++s) {
    const Coord x = local_.eo_coords(s);
    for (int hi = 0; hi < hop_count; ++hi) {
      const int hop = hops[hi];
      for (int mu = 0; mu < kNDim; ++mu) {
        for (int dir : {+1, -1}) {
          Ref ref{};
          const int target = x[mu] + dir * hop;
          const bool off_edge = target < 0 || target >= local_.dim(mu);
          if (partitioned_[static_cast<std::size_t>(mu)] && off_edge) {
            const FaceIndexer& f = faces_[static_cast<std::size_t>(mu)];
            // Layer within the ghost zone; see the header for the layout.
            const int layer = dir > 0 ? target - local_.dim(mu)
                                      : hop - 1 - x[mu];
            ref.zone = ghost_zone_id(mu, dir > 0 ? 0 : 1);
            ref.index = static_cast<std::int32_t>(
                layer * f.face_volume() + f.face_index(x));
          } else {
            ref.zone = kZoneLocal;
            ref.index = static_cast<std::int32_t>(
                local_.eo_index(local_.shifted(x, mu, dir * hop)));
          }
          table_[table_offset(mu, dir, hop) + static_cast<std::size_t>(s)] =
              ref;
        }
      }
    }
  }
}

std::shared_ptr<const NeighborTable> shared_local_neighbors(
    const LatticeGeometry& geom, int max_hop) {
  using Key = std::pair<std::array<int, kNDim>, int>;
  static std::mutex memo_mutex;
  static std::map<Key, std::weak_ptr<const NeighborTable>> memo;
  std::lock_guard<std::mutex> lock(memo_mutex);
  // Drop the entries whose tables are gone, so the map stays as small as
  // the set of extents in use.
  std::erase_if(memo, [](const auto& e) { return e.second.expired(); });
  std::weak_ptr<const NeighborTable>& slot = memo[{geom.dims(), max_hop}];
  std::shared_ptr<const NeighborTable> table = slot.lock();
  if (!table) {
    // Built under the lock: concurrent first callers wait for this one
    // table instead of each building their own.
    table = std::make_shared<const NeighborTable>(
        geom, std::array<bool, kNDim>{false, false, false, false}, max_hop);
    slot = table;
  }
  return table;
}

}  // namespace lqcd
