#pragma once
/// \file certificate.hpp
/// The NP-membership verifier of Theorem 1 / Lemma 1, as runnable code.
///
/// A certificate for COMPACT-(WEIGHTED-)MULTICAST is a set of (weighted)
/// multicast trees. The verifier performs exactly the checks of the proof:
///  1. every tree is rooted at the source, made of valid platform edges,
///     and spans all the targets;
///  2. the per-period communications of all trees together can be
///     orchestrated within T = max port load (constructively, via the
///     weighted König edge colouring);
///  3. the claimed throughput K/T is reached (and the schedule replays
///     cleanly in the one-port simulator).

#include <string>

#include "core/problem.hpp"
#include "core/tree.hpp"

namespace pmcast::core {

struct CertificateResult {
  bool valid = false;
  std::string reason;        ///< first failed check, empty when valid
  double period = 0.0;       ///< T = max port load of one period
  double throughput = 0.0;   ///< messages per time unit
  int slots = 0;             ///< timed slots of the orchestrated schedule
};

/// Verify a weighted-tree certificate against \p problem. When
/// \p simulate_periods > 0 the orchestrated schedule is additionally
/// replayed in the discrete-event simulator for that many periods.
CertificateResult verify_certificate(const MulticastProblem& problem,
                                     const WeightedTreeSet& certificate,
                                     int simulate_periods = 16);

}  // namespace pmcast::core
