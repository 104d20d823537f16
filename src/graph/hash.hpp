#pragma once
/// \file hash.hpp
/// Canonical hashing of platform graphs and multicast instances, used by the
/// runtime result cache (src/runtime/cache.hpp) to recognise a problem it
/// has already solved.
///
/// The hash is *canonical* in the sense that it does not depend on
/// presentation order: edges are hashed as a sorted multiset of
/// (from, to, cost) triples and targets as a sorted set, so two instances
/// built by adding the same edges in different orders (or listing targets in
/// a different order) hash identically. Node names are ignored — they never
/// influence a solver. Node *ids* are structural and do matter: isomorphic
/// but differently-numbered platforms hash differently (graph
/// canonicalisation would cost far more than a cache miss).

#include <cstdint>
#include <span>

#include "graph/digraph.hpp"

namespace pmcast {

/// 128-bit instance key: two independently seeded canonical hashes. A
/// single 64-bit value is plenty for table placement but thin as an
/// *identity* for a result cache that skips re-solving; the second lane
/// pushes accidental-collision odds below any practical horizon.
struct InstanceKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const InstanceKey&, const InstanceKey&) = default;
};

/// Canonical 64-bit hash of (graph, source, targets) under the given seed.
std::uint64_t hash_instance(const Digraph& graph, NodeId source,
                            std::span<const NodeId> targets,
                            std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

/// Canonical 128-bit key (two seeds) for cache identity.
InstanceKey instance_key(const Digraph& graph, NodeId source,
                         std::span<const NodeId> targets);

/// \p key with \p word folded into both lanes, each under its own seed:
/// how a caller extends an instance's identity with the settings it was
/// solved under (the runtime's result cache keys on both).
InstanceKey extend_key(const InstanceKey& key, std::uint64_t word);

}  // namespace pmcast

template <>
struct std::hash<pmcast::InstanceKey> {
  std::size_t operator()(const pmcast::InstanceKey& k) const noexcept {
    return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ULL));
  }
};
