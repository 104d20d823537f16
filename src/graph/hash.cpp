#include "graph/hash.hpp"

#include <algorithm>
#include <bit>
#include <vector>

namespace pmcast {
namespace {

/// SplitMix64 finaliser — the same mixer rng.hpp uses for seeding; good
/// avalanche per 64-bit word at a few instructions.
std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The seeds of InstanceKey's two lanes.
constexpr std::uint64_t kLoSeed = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kHiSeed = 0xd1b54a32d192ed03ULL;

struct Hasher {
  std::uint64_t state;

  void absorb(std::uint64_t word) {
    state = mix(state + 0x9e3779b97f4a7c15ULL + word);
  }
};

}  // namespace

std::uint64_t hash_instance(const Digraph& graph, NodeId source,
                            std::span<const NodeId> targets,
                            std::uint64_t seed) {
  Hasher h{mix(seed)};
  h.absorb(static_cast<std::uint64_t>(graph.node_count()));

  // Edges as a sorted multiset of (from, to, cost-bits) triples so the
  // insertion order does not matter. Parallel edges are kept (multiset).
  struct Triple {
    NodeId from;
    NodeId to;
    std::uint64_t cost_bits;
    bool operator<(const Triple& o) const {
      if (from != o.from) return from < o.from;
      if (to != o.to) return to < o.to;
      return cost_bits < o.cost_bits;
    }
  };
  std::vector<Triple> triples;
  triples.reserve(static_cast<std::size_t>(graph.edge_count()));
  for (const Edge& e : graph.edges()) {
    triples.push_back({e.from, e.to, std::bit_cast<std::uint64_t>(e.cost)});
  }
  std::sort(triples.begin(), triples.end());
  h.absorb(static_cast<std::uint64_t>(triples.size()));
  for (const Triple& t : triples) {
    h.absorb(static_cast<std::uint64_t>(t.from));
    h.absorb(static_cast<std::uint64_t>(t.to));
    h.absorb(t.cost_bits);
  }

  h.absorb(static_cast<std::uint64_t>(source));

  // Targets as a sorted set (duplicates collapse — they do not change the
  // instance's meaning).
  std::vector<NodeId> sorted(targets.begin(), targets.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  h.absorb(static_cast<std::uint64_t>(sorted.size()));
  for (NodeId t : sorted) h.absorb(static_cast<std::uint64_t>(t));

  return mix(h.state);
}

InstanceKey instance_key(const Digraph& graph, NodeId source,
                         std::span<const NodeId> targets) {
  return InstanceKey{
      hash_instance(graph, source, targets, kLoSeed),
      hash_instance(graph, source, targets, kHiSeed),
  };
}

InstanceKey extend_key(const InstanceKey& key, std::uint64_t word) {
  Hasher lo{key.lo};
  Hasher hi{key.hi};
  lo.absorb(mix(word ^ kLoSeed));
  hi.absorb(mix(word ^ kHiSeed));
  return InstanceKey{lo.state, hi.state};
}

}  // namespace pmcast
