#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace dpart::constraint {

/// External-constraint vocabulary (beyond the paper's Section 3.3 partition
/// predicates): placement requirements a production scheduler imposes on the
/// synthesized partitions. Users state them in *field/region* terms; the
/// parallelizer translates them onto the solver's partition symbols after
/// unification (see SolverVocabulary) where the solver's vocabulary rules
/// enforce them (constraint/propagate).

/// No piece of any partition of `region` may hold more than `maxPerPiece`
/// elements — a per-node memory/capacity budget.
struct CapacityBound {
  std::string region;
  std::size_t maxPerPiece = 0;

  bool operator==(const CapacityBound&) const = default;
};

/// Placement affinity between two fields, each named "region.field".
/// together=true (co-location): both fields' access partitions must be
/// piecewise identical, so piece j of each lands on the same node.
/// together=false (anti-affinity): the partitions must be piecewise
/// disjoint, so no node owns both fields' copies of the same index.
struct FieldAffinity {
  std::string fieldA;
  std::string fieldB;
  bool together = true;

  bool operator==(const FieldAffinity&) const = default;
};

/// The total number of elements a partition of `region` materializes,
/// summed over pieces, must stay within [minFactor, maxFactor] x |region|.
/// maxFactor <= 0 means unbounded above. minFactor > 1 demands replication
/// (ghosting); maxFactor < 1 caps it below full coverage.
struct ReplicationBound {
  std::string region;
  double minFactor = 0.0;
  double maxFactor = 0.0;

  bool operator==(const ReplicationBound&) const = default;
};

/// The user-facing constraint set, in field/region vocabulary. Carried by
/// parallelize::Options, dpart::SessionBuilder and the service PlanRequest.
struct Vocabulary {
  std::vector<CapacityBound> capacities;
  std::vector<FieldAffinity> affinities;
  std::vector<ReplicationBound> replications;

  [[nodiscard]] bool empty() const {
    return capacities.empty() && affinities.empty() && replications.empty();
  }

  bool operator==(const Vocabulary&) const = default;
};

/// The same constraints translated onto post-unification partition symbols
/// (what the vocabulary rules consume). Pairs keep the originating field
/// names for first-conflict provenance.
struct SolverVocabulary {
  struct SymbolPair {
    std::string symA, symB;    ///< partition symbols (post-unification)
    std::string fieldA, fieldB;  ///< originating "region.field" names
  };

  /// symbol -> max elements per piece.
  std::map<std::string, std::size_t> capacity;
  /// symbol -> [minFactor, maxFactor] on total materialized elements
  /// relative to |region| (maxFactor <= 0: unbounded above).
  std::map<std::string, std::pair<double, double>> replication;
  std::vector<SymbolPair> colocated;
  std::vector<SymbolPair> antiAffine;

  [[nodiscard]] bool empty() const {
    return capacity.empty() && replication.empty() && colocated.empty() &&
           antiAffine.empty();
  }
};

/// The constraint set admits no solution — distinct from BadRequest (the
/// request was well-formed; the partitioning problem it poses is provably
/// unsatisfiable). Carries the first conflict's provenance in what().
class InfeasibleError : public Error {
 public:
  explicit InfeasibleError(const std::string& what) : Error(what) {}
  [[nodiscard]] ErrorCode errorCode() const noexcept override {
    return ErrorCode::Infeasible;
  }
};

}  // namespace dpart::constraint
