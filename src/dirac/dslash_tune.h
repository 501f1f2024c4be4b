#pragma once
/// \file dslash_tune.h
/// \brief Tune-cache key helpers shared by the dslash kernels: the aux
/// string must encode everything that changes the work per site (precision,
/// parity restriction, Dirichlet cut, comms on/off) so distinct kernel
/// variants never share launch parameters.

#include <optional>
#include <string>

#include "fields/lattice_field.h"
#include "linalg/reconstruct.h"

namespace lqcd::detail {

template <typename Real>
std::string dslash_aux(const std::optional<Parity>& target, bool cut,
                       Reconstruct recon = Reconstruct::None) {
  std::string aux = sizeof(Real) == 8 ? "f64" : "f32";
  if (target.has_value()) {
    aux += *target == Parity::Even ? ",par=e" : ",par=o";
  }
  if (cut) aux += ",cut";
  // Reconstruction changes the per-site flop/byte mix, so each format gets
  // its own tunecache entry; the 18-real baseline keeps the seed's keys.
  if (recon != Reconstruct::None) aux += std::string(",r") + to_string(recon);
  return aux;
}

}  // namespace lqcd::detail
