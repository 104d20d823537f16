#pragma once
/// \file pmcast/version.hpp
/// The pmcast API version. Versioning policy (see DESIGN_API.md):
///  * MAJOR — breaking change to any `pmcast/*.hpp` name or semantic;
///  * MINOR — backwards-compatible additions to the v1 surface;
///  * PATCH — behaviour-preserving fixes.
/// The toolkit re-export headers (pmcast/core.hpp, pmcast/runtime.hpp, ...)
/// expose the algorithm layer as-is and are *not* covered by this contract.
///
/// Keep these three numbers in sync with project(pmcast VERSION ...) in the
/// top-level CMakeLists.txt; the install-tree test compares them.

// clang-format off
#define PMCAST_API_VERSION_MAJOR 3
#define PMCAST_API_VERSION_MINOR 0
#define PMCAST_API_VERSION_PATCH 0
#define PMCAST_API_VERSION "3.0.0"
// clang-format on

namespace pmcast {

inline constexpr int kApiVersionMajor = PMCAST_API_VERSION_MAJOR;
inline constexpr int kApiVersionMinor = PMCAST_API_VERSION_MINOR;
inline constexpr int kApiVersionPatch = PMCAST_API_VERSION_PATCH;

/// "MAJOR.MINOR.PATCH", e.g. "3.0.0".
inline const char* api_version() { return PMCAST_API_VERSION; }

}  // namespace pmcast
