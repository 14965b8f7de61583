#include "region/region.hpp"

#include <gtest/gtest.h>

#include "region/world.hpp"
#include "support/check.hpp"

namespace dpart::region {
namespace {

TEST(Region, FieldsAreZeroInitialized) {
  Region r("Cells", 10);
  r.addField("vel", FieldType::F64);
  r.addField("next", FieldType::Idx);
  r.addField("span", FieldType::Range);
  for (double v : r.f64("vel")) EXPECT_EQ(v, 0.0);
  for (Index v : r.idx("next")) EXPECT_EQ(v, 0);
  for (const dpart::region::Run& v : r.range("span")) EXPECT_EQ(v.size(), 0);
}

TEST(Region, FieldTypeQueries) {
  Region r("R", 4);
  r.addField("a", FieldType::F64);
  r.addField("b", FieldType::Idx);
  EXPECT_EQ(r.fieldType("a"), FieldType::F64);
  EXPECT_EQ(r.fieldType("b"), FieldType::Idx);
  EXPECT_TRUE(r.hasField("a"));
  EXPECT_FALSE(r.hasField("c"));
  EXPECT_EQ(r.fieldNames(), (std::vector<std::string>{"a", "b"}));
}

TEST(Region, WriteThroughSpan) {
  Region r("R", 3);
  r.addField("x", FieldType::F64);
  r.f64("x")[1] = 4.5;
  EXPECT_EQ(r.f64("x")[1], 4.5);
}

TEST(Region, DuplicateFieldThrows) {
  Region r("R", 3);
  r.addField("x", FieldType::F64);
  EXPECT_THROW(r.addField("x", FieldType::Idx), Error);
}

TEST(Region, WrongTypeAccessThrows) {
  Region r("R", 3);
  r.addField("x", FieldType::F64);
  EXPECT_THROW((void)r.idx("x"), Error);
  EXPECT_THROW((void)r.range("x"), Error);
  EXPECT_THROW((void)r.f64("missing"), Error);
}

TEST(Region, IndexSpace) {
  Region r("R", 7);
  EXPECT_EQ(r.indexSpace(), IndexSet::interval(0, 7));
}

TEST(World, RegionRegistry) {
  World w;
  w.addRegion("A", 5);
  w.addRegion("B", 6);
  EXPECT_TRUE(w.hasRegion("A"));
  EXPECT_FALSE(w.hasRegion("C"));
  EXPECT_EQ(w.region("B").size(), 6);
  EXPECT_EQ(w.regionNames(), (std::vector<std::string>{"A", "B"}));
  EXPECT_THROW(w.addRegion("A", 9), Error);
  EXPECT_THROW((void)w.region("C"), Error);
}

TEST(World, IdentityFnIsPredefined) {
  World w;
  EXPECT_TRUE(w.hasFn(kIdentityFnId));
  EXPECT_EQ(w.evalPoint(kIdentityFnId, 42), 42);
}

TEST(World, FieldFnEvaluation) {
  World w;
  Region& p = w.addRegion("Particles", 4);
  w.addRegion("Cells", 10);
  p.addField("cell", FieldType::Idx);
  p.idx("cell")[0] = 7;
  p.idx("cell")[3] = 2;
  const FnDef& f = w.defineFieldFn("Particles", "cell", "Cells");
  EXPECT_EQ(f.id, "Particles[.].cell");
  EXPECT_EQ(w.evalPoint(f.id, 0), 7);
  EXPECT_EQ(w.evalPoint(f.id, 3), 2);
}

TEST(World, AffineFnEvaluation) {
  World w;
  w.addRegion("R", 10);
  w.defineAffineFn("shift", "R", "R", [](Index i) { return i + 1; });
  EXPECT_EQ(w.evalPoint("shift", 4), 5);
}

TEST(World, RangeFnEvaluation) {
  World w;
  Region& r = w.addRegion("Ranges", 3);
  w.addRegion("Mat", 100);
  r.addField("span", FieldType::Range);
  r.range("span")[1] = dpart::region::Run{10, 20};
  const FnDef& f = w.defineRangeFn("Ranges", "span", "Mat");
  EXPECT_TRUE(f.isRangeValued());
  EXPECT_EQ(w.evalRange(f.id, 1), (dpart::region::Run{10, 20}));
  EXPECT_THROW((void)w.evalPoint(f.id, 1), Error);
}

TEST(World, FieldFnArgumentOutsideItsDomainThrows) {
  World w;
  Region& r = w.addRegion("R", 4);
  w.addRegion("S", 100);
  r.addField("ptr", FieldType::Idx);
  r.addField("span", FieldType::Range);
  const FnDef& point = w.defineFieldFn("R", "ptr", "S");
  const FnDef& range = w.defineRangeFn("R", "span", "S");
  for (const Index bad : {Index{-1}, Index{4}}) {
    EXPECT_THROW((void)w.evalPoint(point.id, bad), Error) << bad;
    EXPECT_THROW((void)w.evalRange(range.id, bad), Error) << bad;
  }
  EXPECT_EQ(w.evalPoint(point.id, 3), 0);
  EXPECT_EQ(w.evalRange(range.id, 0), (dpart::region::Run{0, 0}));
}

TEST(World, PointEvalOnRangeFnAndViceVersaThrow) {
  World w;
  w.addRegion("R", 5);
  w.defineAffineFn("g", "R", "R", [](Index i) { return i; });
  EXPECT_THROW((void)w.evalRange("g", 0), Error);
}

TEST(World, DuplicateFnThrows) {
  World w;
  w.addRegion("R", 5);
  w.defineAffineFn("g", "R", "R", [](Index i) { return i; });
  EXPECT_THROW(
      w.defineAffineFn("g", "R", "R", [](Index i) { return i + 1; }), Error);
}

}  // namespace
}  // namespace dpart::region
