#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "region/fn.hpp"
#include "region/region.hpp"

namespace dpart::region {

class World;

/// Resolved, lookup-free batch evaluator for one function.
///
/// The name→FnDef and field→column resolutions happen once at construction,
/// so evaluating a whole Run of inputs costs no map lookups and — for
/// identity and field-backed fns — no per-element std::function dispatch.
/// This is the hot path of the parallel operator kernels (dpl_ops.cpp):
/// per-index evalPoint/evalRange calls pay a string-keyed map lookup per
/// element, which dominates partition materialization time.
class BatchFn {
 public:
  BatchFn(const World& world, const FnDef& fn);

  [[nodiscard]] const FnDef& def() const { return *fn_; }
  [[nodiscard]] bool isRangeValued() const { return fn_->isRangeValued(); }

  /// out[i] = fn(in.lo + i). Requires out.size() == in.size() and a
  /// point-valued fn.
  void points(Run in, std::span<Index> out) const;

  /// out[i] = fn(in.lo + i). Requires out.size() == in.size() and a
  /// range-valued fn.
  void ranges(Run in, std::span<Run> out) const;

  /// fn(i) for a point-valued fn. A field-backed fn checks i against its
  /// column and throws Error when it lies outside, as a load does.
  [[nodiscard]] Index point(Index i) const {
    switch (fn_->kind) {
      case FnKind::Identity:
        return i;
      case FnKind::FieldPtr:
        if (i < 0 || i >= static_cast<Index>(idxColumn_.size())) {
          throwOutOfDomain(i);
        }
        return idxColumn_[static_cast<std::size_t>(i)];
      case FnKind::Affine:
        return fn_->point(i);
      case FnKind::FieldRange:
        break;
    }
    throwRangeValued();
  }

 private:
  [[noreturn]] void throwOutOfDomain(Index i) const;
  [[noreturn]] void throwRangeValued() const;

  const FnDef* fn_;
  std::span<const Index> idxColumn_;  // FieldPtr: the backing column
  std::span<const Run> rangeColumn_;  // FieldRange: the backing column
};

/// Owns the regions and function definitions of one program instance.
///
/// Everything downstream — the IR interpreter, the DPL evaluator, the task
/// runtime and the cluster simulator — resolves region and function names
/// against a World.
class World {
 public:
  Region& addRegion(const std::string& name, Index size);
  [[nodiscard]] bool hasRegion(const std::string& name) const {
    return regions_.contains(name);
  }
  [[nodiscard]] Region& region(const std::string& name);
  [[nodiscard]] const Region& region(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> regionNames() const;

  /// Registers a function. Its id must be fresh.
  const FnDef& defineFn(FnDef def);

  /// Convenience: registers the FieldPtr function `region[·].field`.
  const FnDef& defineFieldFn(const std::string& regionName,
                             const std::string& field,
                             const std::string& rangeRegion);

  /// Convenience: registers a named pure point function.
  const FnDef& defineAffineFn(const std::string& id,
                              const std::string& domainRegion,
                              const std::string& rangeRegion,
                              std::function<Index(Index)> fn);

  /// Convenience: registers the FieldRange function `region[·].field`
  /// (range-valued, Section 4).
  const FnDef& defineRangeFn(const std::string& regionName,
                             const std::string& field,
                             const std::string& rangeRegion);

  [[nodiscard]] bool hasFn(const std::string& id) const {
    return id == kIdentityFnId || fns_.contains(id);
  }
  [[nodiscard]] const FnDef& fn(const std::string& id) const;
  /// Ids of all user-defined functions (excludes the implicit identity).
  [[nodiscard]] std::vector<std::string> fnIds() const;

  /// Evaluates a point-valued function at index i. A field-backed function
  /// throws Error when i lies outside its domain region.
  [[nodiscard]] Index evalPoint(const std::string& fnId, Index i) const;

  /// Evaluates a range-valued function at index i, checked like evalPoint.
  [[nodiscard]] Run evalRange(const std::string& fnId, Index i) const;

  /// Canonical id for a FieldPtr/FieldRange fn: "R[.].field".
  static std::string fieldFnId(const std::string& regionName,
                               const std::string& field);

 private:
  std::map<std::string, Region> regions_;
  std::map<std::string, FnDef> fns_;
  FnDef identity_{kIdentityFnId, FnKind::Identity, "", "", "", nullptr};
};

}  // namespace dpart::region
