// Tests for the loop-nest front end: grammar, dependence extraction,
// executable kernels, and end-to-end runs of parsed programs through both
// distributed executors.
#include <gtest/gtest.h>

#include "tilo/exec/run.hpp"
#include "tilo/loopnest/parse.hpp"
#include "tilo/loopnest/reference.hpp"
#include "tilo/loopnest/workloads.hpp"
#include "tilo/util/rng.hpp"

using namespace tilo;
using lat::Vec;
using loop::LoopNest;
using loop::parse_nest;

namespace {

const char* kPaperExample1 = R"(
# the paper's Example 1 (scaled down)
FOR i1 = 0 TO 99
  FOR i2 = 0 TO 49
    A(i1, i2) = 0.25 * (A(i1-1, i2-1) + A(i1-1, i2) + A(i1, i2-1))
  ENDFOR
ENDFOR
)";

const char* kPaperStencil3d = R"(
FOR i = 0 TO 7
  FOR j = 0 TO 7
    FOR k = 0 TO 31
      A(i, j, k) = sqrt(A(i-1, j, k)) + sqrt(A(i, j-1, k)) + sqrt(A(i, j, k-1))
    ENDFOR
  ENDFOR
ENDFOR
)";

}  // namespace

TEST(ParseTest, Example1StructureExtracted) {
  const LoopNest nest = parse_nest(kPaperExample1);
  EXPECT_EQ(nest.name(), "A");
  EXPECT_EQ(nest.domain().extents(), (Vec{100, 50}));
  ASSERT_EQ(nest.deps().size(), 3u);
  EXPECT_EQ(nest.deps()[0], (Vec{1, 1}));
  EXPECT_EQ(nest.deps()[1], (Vec{1, 0}));
  EXPECT_EQ(nest.deps()[2], (Vec{0, 1}));
  EXPECT_TRUE(nest.has_kernel());
}

TEST(ParseTest, KernelEvaluatesExpression) {
  const LoopNest nest = parse_nest(kPaperExample1);
  // 0.25 * (a + b + c) with inputs in dependence order (1,1),(1,0),(0,1).
  EXPECT_DOUBLE_EQ(nest.kernel().apply(Vec{5, 5}, {1.0, 2.0, 3.0}), 1.5);
}

TEST(ParseTest, SqrtStencilMatchesBuiltin) {
  const LoopNest nest = parse_nest(kPaperStencil3d);
  ASSERT_EQ(nest.deps().size(), 3u);
  EXPECT_DOUBLE_EQ(nest.kernel().apply(Vec{0, 0, 0}, {4.0, 9.0, 16.0}),
                   2.0 + 3.0 + 4.0);
}

TEST(ParseTest, BoundaryValueOption) {
  loop::ParseOptions opts;
  opts.boundary_value = 7.5;
  const LoopNest nest = parse_nest(kPaperExample1, opts);
  EXPECT_DOUBLE_EQ(nest.kernel().boundary(Vec{-1, 0}), 7.5);
}

TEST(ParseTest, NegativeBoundsAndOffsets) {
  const LoopNest nest = parse_nest(
      "FOR i = -5 TO 5\n  FOR j = 0 TO 3\n    B(i, j) = B(i-2, j+1)\n"
      "  ENDFOR\nENDFOR\n");
  EXPECT_EQ(nest.domain().lo(), (Vec{-5, 0}));
  EXPECT_EQ(nest.deps()[0], (Vec{2, -1}));  // j+1 reads from the left
}

TEST(ParseTest, DuplicateReadsShareOneDependence) {
  const LoopNest nest = parse_nest(
      "FOR i = 0 TO 9\n  A(i) = A(i-1) * A(i-1) + A(i-1)\nENDFOR\n");
  EXPECT_EQ(nest.deps().size(), 1u);
  // x*x + x at x = 3.
  EXPECT_DOUBLE_EQ(nest.kernel().apply(Vec{1}, {3.0}), 12.0);
}

TEST(ParseTest, OperatorPrecedenceAndUnaryMinus) {
  const LoopNest nest = parse_nest(
      "FOR i = 0 TO 9\n  A(i) = 2 + 3 * A(i-1) - -1\nENDFOR\n");
  EXPECT_DOUBLE_EQ(nest.kernel().apply(Vec{1}, {4.0}), 2 + 12 + 1);
}

TEST(ParseTest, SyntaxErrorsCarryLineNumbers) {
  try {
    parse_nest("FOR i = 0 TO 9\n  A(i) = A(i-1) +\nENDFOR\n");
    FAIL() << "expected parse error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(ParseTest, ModelViolationsRejected) {
  // Self-read.
  EXPECT_THROW(parse_nest("FOR i = 0 TO 9\n A(i) = A(i)\nENDFOR\n"),
               util::Error);
  // Anti-dependence (reads a future value).
  EXPECT_THROW(parse_nest("FOR i = 0 TO 9\n A(i) = A(i+1)\nENDFOR\n"),
               util::Error);
  // Wrong index variable order.
  EXPECT_THROW(
      parse_nest("FOR i = 0 TO 9\nFOR j = 0 TO 9\n A(j, i) = A(i-1, j)\n"
                 "ENDFOR\nENDFOR\n"),
      util::Error);
  // Two different arrays.
  EXPECT_THROW(parse_nest("FOR i = 0 TO 9\n A(i) = B(i-1)\nENDFOR\n"),
               util::Error);
  // Empty range.
  EXPECT_THROW(parse_nest("FOR i = 5 TO 2\n A(i) = A(i-1)\nENDFOR\n"),
               util::Error);
  // Statement with no dependencies.
  EXPECT_THROW(parse_nest("FOR i = 0 TO 9\n A(i) = 3\nENDFOR\n"),
               util::Error);
  // Missing ENDFOR.
  EXPECT_THROW(parse_nest("FOR i = 0 TO 9\n A(i) = A(i-1)\n"), util::Error);
  // Trailing garbage.
  EXPECT_THROW(
      parse_nest("FOR i = 0 TO 9\n A(i) = A(i-1)\nENDFOR\nENDFOR\n"),
      util::Error);
  // Multiple statements.
  EXPECT_THROW(
      parse_nest("FOR i = 0 TO 9\n A(i) = A(i-1)\n A(i) = A(i-2)\n"
                 "ENDFOR\n"),
      util::Error);
}

TEST(ParseTest, CaseInsensitiveKeywords) {
  EXPECT_NO_THROW(parse_nest(
      "for i = 0 to 9\n A(i) = Sqrt(A(i-1))\nendfor\n"));
}

TEST(ParseTest, ParsedProgramRunsSequentially) {
  const LoopNest nest = parse_nest(kPaperExample1);
  const loop::DenseField f = loop::run_sequential(nest);
  // Hand-compute the first cells with boundary value 1:
  // A(0,0) = 0.25*(1+1+1) = 0.75
  // A(0,1) = 0.25*(1+1+0.75) = 0.6875
  EXPECT_DOUBLE_EQ(f.at(Vec{0, 0}), 0.75);
  EXPECT_DOUBLE_EQ(f.at(Vec{0, 1}), 0.6875);
}

TEST(RoundTripTest, ParsedNestSerializesAndReparses) {
  const LoopNest a = parse_nest(kPaperExample1);
  const std::string text = loop::to_source(a);
  const LoopNest b = parse_nest(text);
  // Structure survives.
  EXPECT_EQ(b.domain(), a.domain());
  ASSERT_EQ(b.deps().size(), a.deps().size());
  for (std::size_t i = 0; i < a.deps().size(); ++i)
    EXPECT_EQ(b.deps()[i], a.deps()[i]);
  // Values survive (same constant boundary on both sides).
  EXPECT_DOUBLE_EQ(
      loop::max_abs_diff(loop::run_sequential(a), loop::run_sequential(b)),
      0.0);
  // And the serialization is a fixed point.
  EXPECT_EQ(loop::to_source(b), text);
}

TEST(RoundTripTest, ExpressionOperatorsSurvive) {
  const LoopNest a = parse_nest(
      "FOR i = 0 TO 19\n"
      "  A(i) = 2 * A(i-1) - A(i-2) / 4 + abs(A(i-3)) + sqrt(A(i-1))\n"
      "ENDFOR\n");
  const LoopNest b = parse_nest(loop::to_source(a));
  EXPECT_DOUBLE_EQ(
      loop::max_abs_diff(loop::run_sequential(a), loop::run_sequential(b)),
      0.0);
}

TEST(RoundTripTest, BuiltinSqrtSumSerializesStructure) {
  // Built-in kernels serialize; values differ only through their
  // point-dependent boundary (the grammar's boundary is a constant).
  const LoopNest nest = loop::stencil3d_nest(4, 4, 8);
  const std::string text = loop::to_source(nest);
  EXPECT_NE(text.find("sqrt(stencil3d(i1-1, i2, i3))"), std::string::npos)
      << text;
  const LoopNest back = parse_nest(text);
  EXPECT_EQ(back.domain(), nest.domain());
  EXPECT_EQ(back.deps().size(), nest.deps().size());
}

TEST(RoundTripTest, NonSerializableKernelThrows) {
  const LoopNest nest(
      "W", lat::Box::from_extents(Vec{8}),
      loop::DependenceSet({Vec{1}}),
      std::make_shared<loop::WeightedKernel>(std::vector<double>{0.5}));
  EXPECT_THROW(loop::to_source(nest), util::Error);
}

TEST(ParseFuzzTest, RandomTokenSoupNeverCrashes) {
  // The parser must reject arbitrary garbage with util::Error — never
  // crash, hang or accept it silently.
  const char* vocab[] = {"FOR", "TO", "ENDFOR", "A", "i", "(", ")", ",",
                         "=", "+", "-", "*", "/", "0", "7", "sqrt", "\n"};
  util::Rng rng(20260706);
  for (int iter = 0; iter < 300; ++iter) {
    std::string source;
    const int len = static_cast<int>(rng.uniform(1, 40));
    for (int i = 0; i < len; ++i) {
      source += vocab[rng.uniform(0, std::size(vocab) - 1)];
      source += ' ';
    }
    try {
      const LoopNest nest = parse_nest(source);
      // Acceptance is fine too — it must then be a valid nest.
      EXPECT_GE(nest.dims(), 1u);
      EXPECT_GE(nest.deps().size(), 1u);
    } catch (const util::Error&) {
      // expected for almost every draw
    }
  }
}

TEST(ParseFuzzTest, TruncationsOfAValidProgramAllThrow) {
  const std::string program =
      "FOR i = 0 TO 9\n FOR j = 0 TO 9\n"
      "  A(i, j) = 0.5 * A(i-1, j) + sqrt(A(i, j-1))\n ENDFOR\nENDFOR\n";
  for (std::size_t cut = 1; cut + 1 < program.size(); cut += 3) {
    const std::string truncated = program.substr(0, cut);
    EXPECT_THROW(parse_nest(truncated), util::Error) << truncated;
  }
}

TEST(ParseTest, ParsedProgramRunsDistributedOnBothSchedules) {
  const LoopNest nest = parse_nest(kPaperStencil3d);
  const auto model = std::make_shared<mach::IdealOverlapModel>(
      mach::MachineParams::paper_cluster());
  for (auto kind : {sched::ScheduleKind::kNonOverlap,
                    sched::ScheduleKind::kOverlap}) {
    const exec::TilePlan plan =
        exec::make_plan(nest, tile::RectTiling(Vec{4, 4, 8}), kind);
    EXPECT_DOUBLE_EQ(exec::run_and_validate(nest, plan, model), 0.0);
  }
}
