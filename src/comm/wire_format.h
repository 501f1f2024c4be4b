#pragma once
/// \file wire_format.h
/// \brief The two-axis ghost wire format: (reconstruction, precision).
///
/// PR 9's wire policy was one-dimensional — a Precision picked by
/// LQCD_GHOST_PREC.  QUDA's halo compression has a second, orthogonal
/// axis: *reconstruction*, transmitting a minimal parameterization and
/// recomputing the redundant degrees of freedom on the receiver.  For
/// spin-projected spinor faces that is the per-site norm-scaled unit form
/// (linalg/unit_spinor.h): the site travels as one float norm plus its
/// unit direction with the largest-magnitude component dropped (recovered
/// from unitarity on decode), saving one wire scalar per site and — at
/// half — reusing the norm the fixed-point envelope already pays for.
///
/// WireFormat bundles the pair.  It is implicitly constructible from a
/// bare Precision (recon = Full), so every PR 9 call site that passed a
/// Precision keeps compiling and keeps its exact meaning.
///
/// The joint policy is tuned per operator under key `<kernel>_ghost_wire`
/// (dirac/recon_policy.h); ghost_wire_codec_token() versions the codec
/// byte layout inside the tunecache header so cached winners never
/// outlive the wire format they were timed against.

#include <string>

#include "fields/precision.h"

namespace lqcd {

/// Reconstruction scheme of a spinor-ghost wire site.
enum class WireRecon {
  Full,  ///< all kReals components travel (the PR 9 wire)
  Unit,  ///< float norm + unit direction minus its argmax component
};

inline const char* to_string(WireRecon r) {
  return r == WireRecon::Unit ? "unit" : "full";
}

/// One point on the (reconstruction x precision) wire grid.
struct WireFormat {
  Precision prec;
  WireRecon recon;

  // Intentionally implicit: a bare Precision is the Full-recon wire, so
  // PR 9 call sites (and std::optional<WireFormat> = Precision::Half
  // assignments) are unchanged in meaning.
  constexpr WireFormat(Precision p, WireRecon r = WireRecon::Full)
      : prec(p), recon(r) {}

  friend constexpr bool operator==(WireFormat a, WireFormat b) {
    return a.prec == b.prec && a.recon == b.recon;
  }
  friend constexpr bool operator!=(WireFormat a, WireFormat b) {
    return !(a == b);
  }
};

/// "full,double" / "unit,half" — the spelling used by tunecache params
/// (`wire=unit,half`) and bench labels.
inline std::string to_string(WireFormat f) {
  return std::string(to_string(f.recon)) + "," + to_string(f.prec);
}

/// Version token of the wire codec's byte layout, written into the
/// tunecache header after the format version: a cached `*_ghost_wire`
/// (or pre-recon `*_ghost_prec`) winner was timed against a specific
/// codec, so a layout change — or a cache written before the recon axis
/// existed at all — must invalidate the file wholesale.
inline const char* ghost_wire_codec_token() { return "wire=u1"; }

}  // namespace lqcd
