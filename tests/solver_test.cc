#include <cmath>

#include <gtest/gtest.h>

#include "graph/multi_bipartite.h"
#include "reference/solvers.h"
#include "solver/regularization.h"

namespace pqsda {
namespace {

// A small strictly diagonally dominant SPD system.
CsrMatrix TestSystem() {
  return CsrMatrix::FromTriplets(
      3, 3, {{0, 0, 4.0}, {0, 1, -1.0}, {1, 0, -1.0}, {1, 1, 4.0},
             {1, 2, -1.0}, {2, 1, -1.0}, {2, 2, 4.0}});
}

std::vector<double> TestRhs() { return {1.0, 2.0, 3.0}; }

void ExpectSolves(const SolverResult& result, const CsrMatrix& a,
                  const std::vector<double>& x, const std::vector<double>& b) {
  EXPECT_TRUE(result.converged);
  EXPECT_LT(RelativeResidual(a, x, b), 1e-7);
}

TEST(SolverTest, JacobiSolves) {
  auto a = TestSystem();
  auto b = TestRhs();
  std::vector<double> x;
  auto result = JacobiSolve(a, b, x, SolverOptions{});
  ExpectSolves(result, a, x, b);
}

TEST(SolverTest, GaussSeidelSolves) {
  auto a = TestSystem();
  auto b = TestRhs();
  std::vector<double> x;
  auto result = GaussSeidelSolve(a, b, x, SolverOptions{});
  ExpectSolves(result, a, x, b);
}

TEST(SolverTest, ConjugateGradientSolves) {
  auto a = TestSystem();
  auto b = TestRhs();
  std::vector<double> x;
  auto result = ConjugateGradientSolve(a, b, x, SolverOptions{});
  ExpectSolves(result, a, x, b);
}

TEST(SolverTest, SolversAgree) {
  auto a = TestSystem();
  auto b = TestRhs();
  std::vector<double> xj, xg, xc;
  JacobiSolve(a, b, xj, SolverOptions{});
  GaussSeidelSolve(a, b, xg, SolverOptions{});
  ConjugateGradientSolve(a, b, xc, SolverOptions{});
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(xj[i], xg[i], 1e-6);
    EXPECT_NEAR(xj[i], xc[i], 1e-6);
  }
}

TEST(SolverTest, GaussSeidelFasterThanJacobi) {
  auto a = TestSystem();
  auto b = TestRhs();
  std::vector<double> xj, xg;
  auto rj = JacobiSolve(a, b, xj, SolverOptions{});
  auto rg = GaussSeidelSolve(a, b, xg, SolverOptions{});
  EXPECT_LE(rg.iterations, rj.iterations);
}

TEST(SolverTest, ReportsNonConvergence) {
  auto a = TestSystem();
  auto b = TestRhs();
  std::vector<double> x;
  SolverOptions opts;
  opts.max_iterations = 1;
  opts.tolerance = 1e-15;
  auto result = JacobiSolve(a, b, x, opts);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 1u);
}

// Regression: an exactly-zero right-hand side used to iterate all the way
// to max_iterations chasing a residual that was already zero. Every solver
// must return the converged zero iterate without a single sweep.
TEST(SolverTest, ZeroRhsReturnsConvergedZeroWithoutIterating) {
  auto a = TestSystem();
  std::vector<double> b = {0.0, 0.0, 0.0};
  SolverOptions opts;
  opts.tolerance = 1e-15;  // would take many sweeps if it iterated at all

  auto check = [&](SolverResult result, const std::vector<double>& x,
                   const char* solver) {
    EXPECT_TRUE(result.converged) << solver;
    EXPECT_EQ(result.iterations, 0u) << solver;
    EXPECT_DOUBLE_EQ(result.relative_residual, 0.0) << solver;
    ASSERT_EQ(x.size(), b.size()) << solver;
    for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0) << solver;
  };

  std::vector<double> x = {9.0, 9.0, 9.0};  // stale warm start must be reset
  check(JacobiSolve(a, b, x, opts), x, "jacobi");
  x = {9.0, 9.0, 9.0};
  check(GaussSeidelSolve(a, b, x, opts), x, "gauss-seidel");
  x = {9.0, 9.0, 9.0};
  check(ConjugateGradientSolve(a, b, x, opts), x, "cg");
  x = {9.0, 9.0, 9.0};
  check(JacobiSolveParallel(a, b, x, opts, 2, nullptr), x, "jacobi-parallel");
}

// A nonzero-but-tiny rhs must NOT take the zero shortcut.
TEST(SolverTest, TinyNonzeroRhsStillSolves) {
  auto a = TestSystem();
  std::vector<double> b = {0.0, 1e-30, 0.0};
  std::vector<double> x;
  auto result = JacobiSolve(a, b, x, SolverOptions{});
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.iterations, 0u);
  EXPECT_NE(x[1], 0.0);
}

TEST(SolverTest, IdentitySolvesInstantly) {
  auto a = CsrMatrix::FromTriplets(2, 2, {{0, 0, 1.0}, {1, 1, 1.0}});
  std::vector<double> b = {5.0, -3.0};
  std::vector<double> x;
  auto result = GaussSeidelSolve(a, b, x, SolverOptions{});
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(x[0], 5.0, 1e-9);
  EXPECT_NEAR(x[1], -3.0, 1e-9);
}

// ---------------------------------------------------- Regularization ----

std::vector<QueryLogRecord> TableOneLog() {
  return {
      {1, "sun", "www.java.com", 100},
      {1, "sun java", "java.sun.com", 120},
      {1, "jvm download", "", 200},
      {2, "sun", "www.suncellular.com", 100},
      {2, "solar cell", "en.wikipedia.org", 160},
      {3, "sun oracle", "www.oracle.com", 100},
      {3, "java", "www.java.com", 172},
  };
}

CompactRepresentation BuildRep(const MultiBipartite& mb, StringId input) {
  CompactBuilder builder(mb);
  auto rep = builder.Build(input, {}, CompactBuilderOptions{10, 4});
  EXPECT_TRUE(rep.ok());
  return std::move(rep).value();
}

TEST(RegularizationTest, F0SeedsInputAtOne) {
  auto records = TableOneLog();
  auto sessions = Sessionize(records);
  auto mb = MultiBipartite::Build(records, sessions, EdgeWeighting::kRaw);
  StringId sun = mb.QueryId("sun");
  auto rep = BuildRep(mb, sun);
  auto f0 = BuildF0(rep, sun, 1000, {}, 0.001);
  EXPECT_DOUBLE_EQ(f0[rep.local_index.at(sun)], 1.0);
  double total = 0.0;
  for (double v : f0) total += v;
  EXPECT_DOUBLE_EQ(total, 1.0);
}

TEST(RegularizationTest, F0ContextDecaysWithAge) {
  auto records = TableOneLog();
  auto sessions = Sessionize(records);
  auto mb = MultiBipartite::Build(records, sessions, EdgeWeighting::kRaw);
  StringId sun = mb.QueryId("sun");
  StringId java = mb.QueryId("java");
  StringId solar = mb.QueryId("solar cell");
  auto rep = BuildRep(mb, sun);
  // java is 100s old, solar 1000s old at input time 2000.
  auto f0 = BuildF0(rep, sun, 2000, {{java, 1900}, {solar, 1000}}, 0.001);
  double f_java = f0[rep.local_index.at(java)];
  double f_solar = f0[rep.local_index.at(solar)];
  EXPECT_GT(f_java, f_solar);
  EXPECT_NEAR(f_java, std::exp(-0.1), 1e-9);
  EXPECT_NEAR(f_solar, std::exp(-1.0), 1e-9);
}

TEST(RegularizationTest, SystemMatrixDiagonallyDominant) {
  auto records = TableOneLog();
  auto sessions = Sessionize(records);
  auto mb = MultiBipartite::Build(records, sessions, EdgeWeighting::kRaw);
  auto rep = BuildRep(mb, mb.QueryId("sun"));
  auto system = AssembleRegularizationSystem(rep, {0.4, 0.4, 0.4});
  for (size_t i = 0; i < system.rows(); ++i) {
    double diag = system.At(i, i);
    double off = 0.0;
    auto idx = system.RowIndices(i);
    auto val = system.RowValues(i);
    for (size_t k = 0; k < idx.size(); ++k) {
      if (idx[k] != i) off += std::abs(val[k]);
    }
    EXPECT_GT(diag, off);
  }
}

TEST(RegularizationTest, SolveSpreadsRelevanceToNeighbors) {
  auto records = TableOneLog();
  auto sessions = Sessionize(records);
  auto mb = MultiBipartite::Build(records, sessions, EdgeWeighting::kRaw);
  StringId sun = mb.QueryId("sun");
  auto rep = BuildRep(mb, sun);
  auto f0 = BuildF0(rep, sun, 1000, {}, 0.001);
  auto f = SolveRegularization(rep, f0, RegularizationOptions{});
  ASSERT_TRUE(f.ok());
  // The input keeps the highest relevance.
  uint32_t sun_local = rep.local_index.at(sun);
  for (size_t i = 0; i < f->size(); ++i) {
    EXPECT_LE((*f)[i], (*f)[sun_local] + 1e-12);
  }
  // Related queries received strictly positive mass.
  StringId sunjava = mb.QueryId("sun java");
  EXPECT_GT((*f)[rep.local_index.at(sunjava)], 0.0);
}

TEST(RegularizationTest, AllSolverKindsAgree) {
  auto records = TableOneLog();
  auto sessions = Sessionize(records);
  auto mb = MultiBipartite::Build(records, sessions, EdgeWeighting::kRaw);
  StringId sun = mb.QueryId("sun");
  auto rep = BuildRep(mb, sun);
  auto f0 = BuildF0(rep, sun, 1000, {}, 0.001);
  std::vector<std::vector<double>> results;
  for (SolverKind kind : {SolverKind::kJacobi, SolverKind::kGaussSeidel,
                          SolverKind::kConjugateGradient}) {
    RegularizationOptions opts;
    opts.solver = kind;
    auto f = SolveRegularization(rep, f0, opts);
    ASSERT_TRUE(f.ok());
    results.push_back(std::move(f).value());
  }
  for (size_t i = 0; i < results[0].size(); ++i) {
    EXPECT_NEAR(results[0][i], results[1][i], 1e-5);
    EXPECT_NEAR(results[0][i], results[2][i], 1e-5);
  }
}

TEST(RegularizationTest, MismatchedF0Rejected) {
  auto records = TableOneLog();
  auto sessions = Sessionize(records);
  auto mb = MultiBipartite::Build(records, sessions, EdgeWeighting::kRaw);
  auto rep = BuildRep(mb, mb.QueryId("sun"));
  auto f = SolveRegularization(rep, {1.0}, RegularizationOptions{});
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument);
}

// ----------------------------------------------- JacobiSolveParallel ----

TEST(ParallelJacobiTest, MatchesSerialSolution) {
  auto a = CsrMatrix::FromTriplets(
      4, 4, {{0, 0, 5.0}, {0, 1, -1.0}, {1, 0, -1.0}, {1, 1, 5.0},
             {1, 2, -2.0}, {2, 1, -2.0}, {2, 2, 6.0}, {2, 3, -1.0},
             {3, 2, -1.0}, {3, 3, 4.0}});
  std::vector<double> b = {1.0, -2.0, 3.0, 0.5};
  std::vector<double> xs, xp;
  auto rs = JacobiSolve(a, b, xs, SolverOptions{});
  auto rp = JacobiSolveParallel(a, b, xp, SolverOptions{}, 3);
  EXPECT_TRUE(rs.converged);
  EXPECT_TRUE(rp.converged);
  for (size_t i = 0; i < 4; ++i) EXPECT_NEAR(xs[i], xp[i], 1e-7);
  // Jacobi is deterministic regardless of thread count.
  EXPECT_EQ(rs.iterations, rp.iterations);
}

TEST(ParallelJacobiTest, MoreThreadsThanRows) {
  auto a = CsrMatrix::FromTriplets(2, 2, {{0, 0, 2.0}, {1, 1, 4.0}});
  std::vector<double> b = {2.0, 8.0};
  std::vector<double> x;
  auto r = JacobiSolveParallel(a, b, x, SolverOptions{}, 16);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 2.0, 1e-9);
}

}  // namespace
}  // namespace pqsda
