#include "region/world.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dpart::region {

const char* toString(FnKind k) {
  switch (k) {
    case FnKind::Identity:
      return "identity";
    case FnKind::FieldPtr:
      return "field";
    case FnKind::Affine:
      return "affine";
    case FnKind::FieldRange:
      return "field-range";
  }
  DPART_UNREACHABLE("bad FnKind");
}

Region& World::addRegion(const std::string& name, Index size) {
  DPART_CHECK(!regions_.contains(name), "duplicate region '" + name + "'");
  auto [it, _] = regions_.emplace(name, Region(name, size));
  return it->second;
}

Region& World::region(const std::string& name) {
  auto it = regions_.find(name);
  DPART_CHECK(it != regions_.end(), "unknown region '" + name + "'");
  return it->second;
}

const Region& World::region(const std::string& name) const {
  auto it = regions_.find(name);
  DPART_CHECK(it != regions_.end(), "unknown region '" + name + "'");
  return it->second;
}

std::vector<std::string> World::regionNames() const {
  std::vector<std::string> names;
  names.reserve(regions_.size());
  for (const auto& [name, _] : regions_) names.push_back(name);
  return names;
}

const FnDef& World::defineFn(FnDef def) {
  DPART_CHECK(def.id != kIdentityFnId, "f_ID is predefined");
  DPART_CHECK(!fns_.contains(def.id), "duplicate function '" + def.id + "'");
  auto [it, _] = fns_.emplace(def.id, std::move(def));
  return it->second;
}

std::string World::fieldFnId(const std::string& regionName,
                             const std::string& field) {
  return regionName + "[.]." + field;
}

const FnDef& World::defineFieldFn(const std::string& regionName,
                                  const std::string& field,
                                  const std::string& rangeRegion) {
  DPART_CHECK(region(regionName).fieldType(field) == FieldType::Idx,
              "field fn requires an Idx field");
  return defineFn(FnDef{fieldFnId(regionName, field), FnKind::FieldPtr,
                        regionName, rangeRegion, field, nullptr});
}

const FnDef& World::defineAffineFn(const std::string& id,
                                   const std::string& domainRegion,
                                   const std::string& rangeRegion,
                                   std::function<Index(Index)> fn) {
  return defineFn(FnDef{id, FnKind::Affine, domainRegion, rangeRegion, "",
                        std::move(fn)});
}

const FnDef& World::defineRangeFn(const std::string& regionName,
                                  const std::string& field,
                                  const std::string& rangeRegion) {
  DPART_CHECK(region(regionName).fieldType(field) == FieldType::Range,
              "range fn requires a Range field");
  return defineFn(FnDef{fieldFnId(regionName, field), FnKind::FieldRange,
                        regionName, rangeRegion, field, nullptr});
}

std::vector<std::string> World::fnIds() const {
  std::vector<std::string> ids;
  ids.reserve(fns_.size());
  for (const auto& [id, _] : fns_) ids.push_back(id);
  return ids;
}

const FnDef& World::fn(const std::string& id) const {
  if (id == kIdentityFnId) return identity_;
  auto it = fns_.find(id);
  DPART_CHECK(it != fns_.end(), "unknown function '" + id + "'");
  return it->second;
}

namespace {

/// Throws unless i indexes the domain region of field-backed fn `f`.
void checkFnArg(const FnDef& f, Index i, std::size_t domainSize) {
  if (i < 0 || i >= static_cast<Index>(domainSize)) {
    throw Error("index out of bounds: " + f.id + "(" + std::to_string(i) +
                ") outside domain " + f.domainRegion + " of size " +
                std::to_string(domainSize));
  }
}

}  // namespace

Index World::evalPoint(const std::string& fnId, Index i) const {
  const FnDef& f = fn(fnId);
  switch (f.kind) {
    case FnKind::Identity:
      return i;
    case FnKind::FieldPtr: {
      const auto column = region(f.domainRegion).idx(f.field);
      checkFnArg(f, i, column.size());
      return column[static_cast<std::size_t>(i)];
    }
    case FnKind::Affine:
      return f.point(i);
    case FnKind::FieldRange:
      break;
  }
  throw Error("evalPoint on range-valued function '" + fnId + "'");
}

Run World::evalRange(const std::string& fnId, Index i) const {
  const FnDef& f = fn(fnId);
  DPART_CHECK(f.kind == FnKind::FieldRange,
              "evalRange on point-valued function '" + fnId + "'");
  const auto column = region(f.domainRegion).range(f.field);
  checkFnArg(f, i, column.size());
  return column[static_cast<std::size_t>(i)];
}

BatchFn::BatchFn(const World& world, const FnDef& fn) : fn_(&fn) {
  switch (fn.kind) {
    case FnKind::FieldPtr:
      idxColumn_ = world.region(fn.domainRegion).idx(fn.field);
      break;
    case FnKind::FieldRange:
      rangeColumn_ = world.region(fn.domainRegion).range(fn.field);
      break;
    case FnKind::Identity:
    case FnKind::Affine:
      break;
  }
}

void BatchFn::throwOutOfDomain(Index i) const {
  checkFnArg(*fn_, i, idxColumn_.size());
  DPART_UNREACHABLE("throwOutOfDomain called with an argument in bounds");
}

void BatchFn::throwRangeValued() const {
  throw Error("point() on range-valued function '" + fn_->id + "'");
}

void BatchFn::points(Run in, std::span<Index> out) const {
  DPART_CHECK(static_cast<Index>(out.size()) == in.size(),
              "points() output span size mismatch");
  switch (fn_->kind) {
    case FnKind::Identity:
      for (Index i = in.lo; i < in.hi; ++i) {
        out[static_cast<std::size_t>(i - in.lo)] = i;
      }
      return;
    case FnKind::FieldPtr: {
      const auto lo = static_cast<std::size_t>(in.lo);
      std::copy_n(idxColumn_.begin() + static_cast<std::ptrdiff_t>(lo),
                  out.size(), out.begin());
      return;
    }
    case FnKind::Affine:
      for (Index i = in.lo; i < in.hi; ++i) {
        out[static_cast<std::size_t>(i - in.lo)] = fn_->point(i);
      }
      return;
    case FnKind::FieldRange:
      break;
  }
  throw Error("points() on range-valued function '" + fn_->id + "'");
}

void BatchFn::ranges(Run in, std::span<Run> out) const {
  DPART_CHECK(static_cast<Index>(out.size()) == in.size(),
              "ranges() output span size mismatch");
  DPART_CHECK(fn_->kind == FnKind::FieldRange,
              "ranges() on point-valued function '" + fn_->id + "'");
  const auto lo = static_cast<std::size_t>(in.lo);
  std::copy_n(rangeColumn_.begin() + static_cast<std::ptrdiff_t>(lo),
              out.size(), out.begin());
}

}  // namespace dpart::region
