//===- tests/text_test.cpp - Textual codelet format ------------------------===//

#include "fgbs/dsl/Text.h"

#include "fgbs/compiler/Compiler.h"
#include "fgbs/sim/Executor.h"
#include "fgbs/suites/Suites.h"

#include <gtest/gtest.h>

using namespace fgbs;

namespace {

const char *TriadText = R"(
# A classic triad with a scaled second invocation group.
codelet "demo/triad" app "demo" {
  pattern "DP: triad";
  array a dp 1048576;
  array x dp 1048576;
  loops 1048576 outer 2;
  invocations 10;
  invocations 30 scale 0.5;
  store a[1] = x[1] + (1 dp * a[1]);
}
)";

Codelet parseOrDie(std::string_view Text) {
  ParseResult<Codelet> R = parseCodelet(Text);
  if (auto *E = std::get_if<ParseError>(&R))
    ADD_FAILURE() << E->render();
  return std::move(std::get<Codelet>(R));
}

ParseError errorOf(std::string_view Text) {
  ParseResult<Codelet> R = parseCodelet(Text);
  EXPECT_TRUE(std::holds_alternative<ParseError>(R)) << "parse succeeded";
  if (auto *E = std::get_if<ParseError>(&R))
    return *E;
  return {};
}

} // namespace

TEST(TextFormat, ParsesTriad) {
  Codelet C = parseOrDie(TriadText);
  EXPECT_EQ(C.Name, "demo/triad");
  EXPECT_EQ(C.App, "demo");
  EXPECT_EQ(C.Pattern, "DP: triad");
  ASSERT_EQ(C.Arrays.size(), 2u);
  EXPECT_EQ(C.Arrays[0].Name, "a");
  EXPECT_EQ(C.Arrays[0].NumElements, 1048576u);
  EXPECT_EQ(C.Nest.InnerTripCount, 1048576u);
  EXPECT_EQ(C.Nest.OuterIterations, 2u);
  EXPECT_EQ(C.totalInvocations(), 40u);
  EXPECT_DOUBLE_EQ(C.averageDatasetScale(), (10 + 30 * 0.5) / 40.0);
  ASSERT_EQ(C.Body.size(), 1u);
  EXPECT_EQ(C.Body[0].Kind, StmtKind::Store);
  EXPECT_EQ(countLoads(*C.Body[0].Rhs), 2u);
}

TEST(TextFormat, ParsesAllStrides) {
  Codelet C = parseOrDie(R"(
codelet "s" {
  array a dp 4096;
  loops 4096;
  store a[1] = a[0] + a[-1] + a[small(4)] + a[lda(512)] + a[stencil(3)];
})");
  std::vector<StrideClass> Seen;
  visitExpr(*C.Body[0].Rhs, [&Seen](const Expr &E) {
    if (E.Kind == ExprKind::Load)
      Seen.push_back(E.Ref.Stride);
  });
  EXPECT_EQ(Seen.size(), 5u);
  EXPECT_EQ(C.strideSummary(), "0 & 1 & -1 & small & LDA & stencil");
}

TEST(TextFormat, ParsesReduceRecurTraits) {
  Codelet C = parseOrDie(R"(
codelet "r" {
  array x dp 65536;
  array y sp 65536;
  loops 65536;
  trait context-sensitive;
  trait cache-state-sensitive;
  reduce add x[1] * x[1];
  reduce mul y[1];
  recur x[1] = x[1] - (1 dp / x[1]);
})");
  EXPECT_TRUE(C.Traits.CompilationContextSensitive);
  EXPECT_TRUE(C.Traits.CacheStateSensitive);
  ASSERT_EQ(C.Body.size(), 3u);
  EXPECT_EQ(C.Body[0].Kind, StmtKind::Reduction);
  EXPECT_EQ(C.Body[1].ReduceOp, BinOp::Mul);
  EXPECT_EQ(C.Body[2].Kind, StmtKind::Recurrence);
}

TEST(TextFormat, ParsesUnaryFunctions) {
  Codelet C = parseOrDie(R"(
codelet "u" {
  array x dp 65536;
  loops 65536;
  store x[1] = sqrt(x[1]) + exp(x[1]) * abs(x[1]);
})");
  unsigned Sqrt = 0;
  unsigned Exp = 0;
  unsigned Abs = 0;
  visitExpr(*C.Body[0].Rhs, [&](const Expr &E) {
    if (E.Kind != ExprKind::Unary)
      return;
    Sqrt += E.Un == UnOp::Sqrt;
    Exp += E.Un == UnOp::Exp;
    Abs += E.Un == UnOp::Abs;
  });
  EXPECT_EQ(Sqrt, 1u);
  EXPECT_EQ(Exp, 1u);
  EXPECT_EQ(Abs, 1u);
}

TEST(TextFormat, PrecedenceMulBeforeAdd) {
  Codelet C = parseOrDie(R"(
codelet "p" {
  array x dp 65536;
  loops 65536;
  reduce add x[1] + x[1] * x[1];
})");
  // Root of the RHS must be the add, with the mul nested on the right.
  const Expr &Root = *C.Body[0].Rhs;
  ASSERT_EQ(Root.Kind, ExprKind::Binary);
  EXPECT_EQ(Root.Bin, BinOp::Add);
  EXPECT_EQ(Root.Rhs->Bin, BinOp::Mul);
}

struct ErrorCase {
  const char *Name;
  const char *Text;
  const char *ExpectSubstring;
};

// CTest names each case after its printed parameter. Without this printer
// gtest prints the raw bytes of the string pointers, which move with every
// build and every run, and so do the case names.
void PrintTo(const ErrorCase &Case, std::ostream *OS) { *OS << Case.Name; }

class TextFormatErrors : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(TextFormatErrors, Diagnoses) {
  ParseError E = errorOf(GetParam().Text);
  EXPECT_NE(E.Message.find(GetParam().ExpectSubstring), std::string::npos)
      << "got: " << E.render();
  EXPECT_GT(E.Line, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TextFormatErrors,
    ::testing::Values(
        ErrorCase{"NoStatements", "codelet \"x\" { loops 1; }",
                  "no statements"},
        ErrorCase{"NoElements", "codelet \"x\" { array a dp 0; }",
                  "must have elements"},
        ErrorCase{"Redeclared",
                  "codelet \"x\" { array a dp 8; array a dp 8; }",
                  "redeclared"},
        ErrorCase{"UnknownArray",
                  "codelet \"x\" { array a dp 8; store b[1] = 1 dp; }",
                  "unknown array"},
        ErrorCase{"BareStride",
                  "codelet \"x\" { array a dp 8; store a[7] = 1 dp; }",
                  "bare strides"},
        ErrorCase{"NonPositiveLoops",
                  "codelet \"x\" { array a dp 8; loops 0; }", "positive"},
        ErrorCase{"UnknownPrecision", "codelet \"x\" { array a qq 8; }",
                  "unknown precision"},
        ErrorCase{"UnknownTrait", "codelet \"x\" { trait wobbly; }",
                  "unknown trait"},
        ErrorCase{"UnknownItem", "codelet \"x\" { bogus 3; }",
                  "unknown codelet item"},
        ErrorCase{"ReduceOperator",
                  "codelet \"x\" { array a dp 8; reduce max a[1]; }",
                  "'add' or 'mul'"},
        ErrorCase{"UnterminatedString", "codelet \"x", "unterminated string"},
        ErrorCase{"TrailingInput",
                  "codelet \"x\" { array a dp 8; store a[1] = 1 dp; } junk",
                  "trailing input"},
        ErrorCase{"MissingExpression",
                  "codelet \"x\" { array a dp 8; store a[1] = ; }",
                  "expected an expression"},
        ErrorCase{"MissingSemicolon",
                  "codelet \"x\" { array a dp 8; store a[1] = 1 dp }",
                  "expected ';'"}));

TEST(TextFormat, RoundTripCodelet) {
  Codelet Original = parseOrDie(TriadText);
  std::string Printed = printCodelet(Original);
  Codelet Again = parseOrDie(Printed);
  // Canonical print of a reparsed codelet is a fixed point.
  EXPECT_EQ(printCodelet(Again), Printed);
  EXPECT_EQ(Again.Name, Original.Name);
  EXPECT_EQ(Again.totalInvocations(), Original.totalInvocations());
  EXPECT_EQ(Again.Body.size(), Original.Body.size());
}

TEST(TextFormat, RoundTripPreservesSemantics) {
  // The reparsed codelet must compile and execute identically.
  Codelet Original = parseOrDie(TriadText);
  Codelet Again = parseOrDie(printCodelet(Original));
  Machine M = makeNehalem();
  BinaryLoop L1 = compile(Original, M, CompilationContext::InApplication);
  BinaryLoop L2 = compile(Again, M, CompilationContext::InApplication);
  EXPECT_EQ(L1.Body.size(), L2.Body.size());
  EXPECT_EQ(L1.ElementsPerIter, L2.ElementsPerIter);
  Measurement M1 = execute(Original, M, {});
  Measurement M2 = execute(Again, M, {});
  EXPECT_DOUBLE_EQ(M1.TrueSeconds, M2.TrueSeconds);
}

TEST(TextFormat, RoundTripWholeNrSuite) {
  // Every NR codelet survives print -> parse -> print unchanged.
  Suite NR = makeNumericalRecipes();
  std::string Printed = printSuite(NR);
  ParseResult<Suite> Back = parseSuite(Printed);
  if (auto *E = std::get_if<ParseError>(&Back))
    FAIL() << E->render();
  Suite &Again = std::get<Suite>(Back);
  ASSERT_EQ(Again.Applications.size(), NR.Applications.size());
  EXPECT_EQ(Again.Name, NR.Name);
  EXPECT_EQ(printSuite(Again), Printed);
}

TEST(TextFormat, RoundTripWholeNasSuite) {
  Suite Nas = makeNasSer();
  std::string Printed = printSuite(Nas);
  ParseResult<Suite> Back = parseSuite(Printed);
  if (auto *E = std::get_if<ParseError>(&Back))
    FAIL() << E->render();
  Suite &Again = std::get<Suite>(Back);
  EXPECT_EQ(Again.numCodelets(), 67u);
  EXPECT_EQ(printSuite(Again), Printed);
  // Traits survive.
  bool SawCacheSensitive = false;
  for (const Codelet *C : Again.allCodelets())
    SawCacheSensitive |= C->Traits.CacheStateSensitive;
  EXPECT_TRUE(SawCacheSensitive);
}

TEST(TextFormat, SuiteParsesCoverage) {
  ParseResult<Suite> R = parseSuite(R"(
suite "s" {
  application "a" coverage 0.9 {
    codelet "a/k" {
      array x dp 1024;
      loops 1024;
      reduce add x[1];
    }
  }
})");
  ASSERT_TRUE(std::holds_alternative<Suite>(R));
  Suite &S = std::get<Suite>(R);
  EXPECT_DOUBLE_EQ(S.Applications[0].Coverage, 0.9);
  EXPECT_EQ(S.Applications[0].Codelets[0].App, "a");
}

TEST(TextFormat, CommentsIgnored) {
  Codelet C = parseOrDie(R"(
# leading comment
codelet "c" { # trailing comment
  array x dp 1024;   # about the array
  loops 1024;
  reduce add x[1];
})");
  EXPECT_EQ(C.Name, "c");
}

TEST(TextFormat, ErrorPositionsPointAtOffendingLine) {
  ParseError E = errorOf("codelet \"x\" {\n  array a dp 8;\n  bogus;\n}");
  EXPECT_EQ(E.Line, 3u);
}
