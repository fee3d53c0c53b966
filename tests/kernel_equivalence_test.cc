// Equivalence suite for the hot-path kernels: every vectorized
// implementation is held against its scalar reference — bitwise where the
// canonical accumulation order guarantees it (SIMD levels of one kernel),
// tolerance-gated where the algorithm itself changed the floating-point
// grouping (operator assembly vs triplet assembly, merged chain vs
// interleaved reference). The compact-representation induction is held
// bitwise against the reference induction kept here (triplets with a global
// sort, a hash-map W W^T, triplet-built S, a FlatMap walk accumulator), on
// randomized graphs and on requests of a seeded log, through the plain walk
// and the sharded backend. Runs under the plain, TSAN and ASan verify
// stages; run_benches.sh refuses to publish kernel numbers unless this
// suite is green.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat_hash.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/index_manager.h"
#include "core/sharded_engine.h"
#include "eval/harness.h"
#include "graph/csr_matrix.h"
#include "graph/multi_bipartite.h"
#include "log/sessionizer.h"
#include "reference/hitting_time.h"
#include "reference/solvers.h"
#include "solver/eq15_operator.h"
#include "solver/regularization.h"
#include "suggest/hitting_time_suggester.h"
#include "synthetic/generator.h"

namespace pqsda {
namespace {

// Deterministic pseudo-random doubles (no std::random, so the fixture is
// identical on every platform and run).
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 33;
  }
  double NextDouble() {  // in (-1, 1), never exactly 0
    double v = static_cast<double>(Next() % 2000001) / 1000000.0 - 1.0;
    return v == 0.0 ? 0.5 : v;
  }

 private:
  uint64_t state_;
};

// Restores the dispatch level on scope exit so a failing test cannot leak a
// forced level into the rest of the binary.
class ScopedLevel {
 public:
  explicit ScopedLevel(simd::Level level) : saved_(simd::ActiveLevel()) {
    simd::SetLevel(level);
  }
  ~ScopedLevel() { simd::SetLevel(saved_); }

 private:
  simd::Level saved_;
};

// ------------------------------------------------ SparseDot / AxpyScatter --

// Every level the host actually supports (SetLevel clamps, so asking for
// AVX2 on a non-AVX2 host sticks at scalar — skip those).
std::vector<simd::Level> SupportedLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  for (simd::Level l : {simd::Level::kAvx2, simd::Level::kNeon}) {
    simd::SetLevel(l);
    if (simd::ActiveLevel() == l) levels.push_back(l);
  }
  simd::SetLevel(simd::Level::kScalar);
  return levels;
}

TEST(SparseDotTest, AllLevelsBitwiseMatchScalarReference) {
  Lcg rng(7);
  std::vector<double> x(256);
  for (double& v : x) v = rng.NextDouble();
  auto levels = SupportedLevels();
  // Row lengths 0..64 cover every vector-body/tail split (n % 4 in
  // {0,1,2,3}) plus the empty row.
  for (size_t n = 0; n <= 64; ++n) {
    std::vector<double> values(n);
    std::vector<uint32_t> cols(n);
    for (size_t i = 0; i < n; ++i) {
      values[i] = rng.NextDouble();
      cols[i] = static_cast<uint32_t>(rng.Next() % x.size());
    }
    const double reference =
        simd::SparseDotScalar(values.data(), cols.data(), n, x.data());
    for (simd::Level level : levels) {
      ScopedLevel scoped(level);
      const double got =
          simd::SparseDot(values.data(), cols.data(), n, x.data());
      EXPECT_EQ(reference, got)
          << "n=" << n << " level=" << simd::LevelName(level);
    }
  }
}

TEST(SparseDotTest, SequentialOrderAgreesWithinTolerance) {
  Lcg rng(11);
  std::vector<double> x(128);
  for (double& v : x) v = rng.NextDouble();
  for (size_t n : {1u, 3u, 7u, 32u, 63u}) {
    std::vector<double> values(n);
    std::vector<uint32_t> cols(n);
    for (size_t i = 0; i < n; ++i) {
      values[i] = rng.NextDouble();
      cols[i] = static_cast<uint32_t>(rng.Next() % x.size());
    }
    const double canonical =
        simd::SparseDotScalar(values.data(), cols.data(), n, x.data());
    const double sequential =
        simd::SparseDotSequential(values.data(), cols.data(), n, x.data());
    EXPECT_NEAR(canonical, sequential, 1e-12) << "n=" << n;
  }
}

TEST(AxpyScatterTest, AllLevelsBitwiseMatchScalarReference) {
  Lcg rng(13);
  auto levels = SupportedLevels();
  for (size_t n = 0; n <= 64; ++n) {
    // Unique columns per row, as CSR guarantees.
    std::vector<uint32_t> cols(n);
    for (size_t i = 0; i < n; ++i) cols[i] = static_cast<uint32_t>(i * 3);
    std::vector<double> values(n);
    for (double& v : values) v = rng.NextDouble();
    const double xi = rng.NextDouble();
    std::vector<double> reference(200, 0.25);
    simd::AxpyScatterScalar(values.data(), cols.data(), n, xi,
                            reference.data());
    for (simd::Level level : levels) {
      ScopedLevel scoped(level);
      std::vector<double> y(200, 0.25);
      simd::AxpyScatter(values.data(), cols.data(), n, xi, y.data());
      for (size_t i = 0; i < y.size(); ++i) {
        ASSERT_EQ(reference[i], y[i])
            << "n=" << n << " i=" << i << " level=" << simd::LevelName(level);
      }
    }
  }
}

// -------------------------------------------------- MatVec through levels --

CsrMatrix RaggedMatrix(uint32_t rows, uint32_t cols, Lcg& rng) {
  std::vector<Triplet> triplets;
  for (uint32_t i = 0; i < rows; ++i) {
    // Ragged: row i has i % 9 entries, so empty rows, short tails and
    // full vector bodies all appear in one matrix.
    const uint32_t nnz = i % 9;
    for (uint32_t k = 0; k < nnz; ++k) {
      triplets.push_back(Triplet{i, static_cast<uint32_t>(rng.Next() % cols),
                                 rng.NextDouble()});
    }
  }
  return CsrMatrix::FromTriplets(rows, cols, std::move(triplets));
}

TEST(MatVecTest, LevelsBitwiseAgree) {
  Lcg rng(17);
  CsrMatrix a = RaggedMatrix(60, 40, rng);
  std::vector<double> x(40);
  for (double& v : x) v = rng.NextDouble();
  std::vector<double> reference, y;
  {
    ScopedLevel scoped(simd::Level::kScalar);
    a.MatVec(x, reference);
  }
  for (simd::Level level : SupportedLevels()) {
    ScopedLevel scoped(level);
    a.MatVec(x, y);
    for (size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(reference[i], y[i])
          << "row " << i << " level=" << simd::LevelName(level);
    }
  }
}

TEST(MatVecTest, TransposeLevelsBitwiseAgree) {
  Lcg rng(19);
  CsrMatrix a = RaggedMatrix(60, 40, rng);
  std::vector<double> x(60);
  for (double& v : x) v = rng.NextDouble();
  std::vector<double> reference, y;
  {
    ScopedLevel scoped(simd::Level::kScalar);
    a.TransposeMatVec(x, reference);
  }
  for (simd::Level level : SupportedLevels()) {
    ScopedLevel scoped(level);
    a.TransposeMatVec(x, y);
    for (size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(reference[i], y[i])
          << "col " << i << " level=" << simd::LevelName(level);
    }
  }
}

// ------------------------------------------------------- Eq. 15 operator --

std::vector<QueryLogRecord> FixtureLog() {
  return {
      {1, "sun", "www.java.com", 100},
      {1, "sun java", "java.sun.com", 120},
      {1, "jvm download", "", 200},
      {2, "sun", "www.suncellular.com", 100},
      {2, "solar cell", "en.wikipedia.org", 160},
      {3, "sun oracle", "www.oracle.com", 100},
      {3, "java", "www.java.com", 172},
      {4, "solar panel", "en.wikipedia.org", 90},
      {4, "sun", "www.java.com", 210},
  };
}

CompactRepresentation FixtureRep() {
  auto records = FixtureLog();
  auto sessions = Sessionize(records);
  auto mb = MultiBipartite::Build(records, sessions, EdgeWeighting::kRaw);
  CompactBuilder builder(mb);
  auto rep = builder.Build(mb.QueryId("sun"), {}, CompactBuilderOptions{12, 4});
  EXPECT_TRUE(rep.ok());
  return std::move(rep).value();
}

constexpr std::array<double, 3> kAlpha = {0.6, 0.45, 0.25};

TEST(Eq15OperatorTest, MatchesTripletAssembly) {
  auto rep = FixtureRep();
  CsrMatrix reference = AssembleRegularizationSystem(rep, kAlpha);
  Eq15Operator op = BuildEq15Operator(rep, kAlpha);
  ASSERT_EQ(op.n, rep.size());
  // Compare as dense MatVec against unit vectors: exercises diag + off
  // exactly the way the solvers consume them. The assemblies group the
  // duplicate-entry sums differently, hence 1e-12 instead of bitwise.
  const size_t n = rep.size();
  std::vector<double> e(n, 0.0), col_ref, col_op;
  for (size_t j = 0; j < n; ++j) {
    e[j] = 1.0;
    reference.MatVec(e, col_ref);
    Eq15MatVec(op, e, col_op);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(col_ref[i], col_op[i], 1e-12) << "entry (" << i << "," << j
                                                << ")";
    }
    e[j] = 0.0;
  }
}

TEST(Eq15OperatorTest, OffDiagonalHasNoDiagonalEntries) {
  auto rep = FixtureRep();
  Eq15Operator op = BuildEq15Operator(rep, kAlpha);
  for (uint32_t i = 0; i < op.off.rows; ++i) {
    auto cols = op.off.RowIndices(i);
    for (uint32_t c : cols) EXPECT_NE(c, i);
    for (size_t k = 1; k < cols.size(); ++k) {
      EXPECT_LT(cols[k - 1], cols[k]);  // strictly ascending
    }
  }
}

TEST(Eq15OperatorTest, SolversMatchCsrSolvers) {
  auto rep = FixtureRep();
  CsrMatrix a = AssembleRegularizationSystem(rep, kAlpha);
  Eq15Operator op = BuildEq15Operator(rep, kAlpha);
  std::vector<double> b(rep.size());
  Lcg rng(23);
  for (double& v : b) v = std::abs(rng.NextDouble());

  SolverOptions options;
  options.tolerance = 1e-10;

  std::vector<double> x_csr, x_op;
  auto r_csr = JacobiSolve(a, b, x_csr, options);
  auto r_op = JacobiSolve(op, b, x_op, options);
  EXPECT_EQ(r_csr.converged, r_op.converged);
  for (size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(x_csr[i], x_op[i], 1e-9);

  auto g_csr = GaussSeidelSolve(a, b, x_csr, options);
  auto g_op = GaussSeidelSolve(op, b, x_op, options);
  EXPECT_EQ(g_csr.converged, g_op.converged);
  for (size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(x_csr[i], x_op[i], 1e-9);

  auto c_csr = ConjugateGradientSolve(a, b, x_csr, options);
  auto c_op = ConjugateGradientSolve(op, b, x_op, options);
  EXPECT_EQ(c_csr.converged, c_op.converged);
  for (size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(x_csr[i], x_op[i], 1e-9);
}

TEST(Eq15OperatorTest, ParallelJacobiBitwiseStableAcrossThreadCounts) {
  auto rep = FixtureRep();
  Eq15Operator op = BuildEq15Operator(rep, kAlpha);
  std::vector<double> b(rep.size());
  Lcg rng(29);
  for (double& v : b) v = std::abs(rng.NextDouble());
  SolverOptions options;
  options.tolerance = 1e-10;

  std::vector<double> x1;
  JacobiSolveParallel(op, b, x1, options, 1, nullptr);
  for (size_t threads : {2u, 3u, 4u}) {
    ThreadPool pool(threads);
    std::vector<double> xt;
    JacobiSolveParallel(op, b, xt, options, threads, &pool);
    ASSERT_EQ(x1.size(), xt.size());
    for (size_t i = 0; i < x1.size(); ++i) {
      ASSERT_EQ(x1[i], xt[i]) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(Eq15OperatorTest, SolverLevelsBitwiseAgree) {
  auto rep = FixtureRep();
  Eq15Operator op = BuildEq15Operator(rep, kAlpha);
  std::vector<double> b(rep.size());
  Lcg rng(31);
  for (double& v : b) v = std::abs(rng.NextDouble());
  SolverOptions options;
  options.tolerance = 1e-10;

  std::vector<double> reference, x;
  {
    ScopedLevel scoped(simd::Level::kScalar);
    JacobiSolve(op, b, reference, options);
  }
  for (simd::Level level : SupportedLevels()) {
    ScopedLevel scoped(level);
    x.clear();  // cold start — a warm start would hide level differences
    JacobiSolve(op, b, x, options);
    for (size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(reference[i], x[i])
          << "i=" << i << " level=" << simd::LevelName(level);
    }
  }
}

// --------------------------------------------------------- Merged chain --

TEST(MergedChainTest, HittingTimesMatchReference) {
  auto rep = FixtureRep();
  std::vector<const CsrMatrix*> chains = {&rep.row_norm[0], &rep.row_norm[1],
                                          &rep.row_norm[2]};
  std::vector<double> weights = {1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0};
  std::vector<uint32_t> seeds = {0};

  HittingTimeWorkspace ref_ws, merged_ws;
  ChainHittingTimeInto(chains, weights, seeds, 24, nullptr, ref_ws);
  MergedChain merged = BuildMergedChain(chains, weights);
  MergedChainHittingTimeInto(merged, seeds, 24, nullptr, merged_ws);

  ASSERT_EQ(ref_ws.h.size(), merged_ws.h.size());
  for (size_t i = 0; i < ref_ws.h.size(); ++i) {
    // The merge regroups the weighted per-chain terms, so agreement is
    // tolerance-gated (relative 1e-9), not bitwise.
    const double scale = std::max(1.0, std::abs(ref_ws.h[i]));
    EXPECT_NEAR(ref_ws.h[i], merged_ws.h[i], 1e-9 * scale) << "i=" << i;
  }
}

TEST(MergedChainTest, MassIsRowSumOfMixture) {
  auto rep = FixtureRep();
  std::vector<const CsrMatrix*> chains = {&rep.row_norm[0], &rep.row_norm[1],
                                          &rep.row_norm[2]};
  std::vector<double> weights = {0.5, 0.3, 0.2};
  MergedChain merged = BuildMergedChain(chains, weights);
  ASSERT_EQ(merged.mass.size(), merged.m.rows);
  for (uint32_t i = 0; i < merged.m.rows; ++i) {
    auto vals = merged.m.RowValues(i);
    double sum = 0.0;
    for (double v : vals) sum += v;
    EXPECT_NEAR(sum, merged.mass[i], 1e-15) << "row " << i;
  }
}

// -------------------------------------------- Reference induction oracle --
//
// The compact-representation induction as it stood before the row-wise W,
// the one-triangle Gustavson product and S over A's pattern: triplets with a
// global (row, col) sort, a hash-map W W^T, a triplet-built S, and a §IV-A
// walk summing into an insertion-ordered FlatMap. The serving path must
// reproduce it bit for bit: member queries in admission order, then every
// matrix's row pointers, columns and value bits.

// Query->object rows and their object->query transposes, per bipartite.
struct ReferenceGraph {
  std::array<const CsrMatrix*, 3> q2o{};
  std::array<const CsrMatrix*, 3> o2q{};
  // Rows a degraded shard refuses (null: every row is served). A refused
  // row neither walks nor induces.
  std::function<bool(StringId)> served;

  bool Serves(StringId q) const { return !served || served(q); }
};

ReferenceGraph GraphOf(const MultiBipartite& mb) {
  ReferenceGraph g;
  for (BipartiteKind kind : kAllBipartites) {
    const auto k = static_cast<size_t>(kind);
    g.q2o[k] = &mb.graph(kind).query_to_object();
    g.o2q[k] = &mb.graph(kind).object_to_query();
  }
  return g;
}

void ReferenceStep(const ReferenceGraph& g, size_t kind,
                   const FlatMap<StringId, double>& mass, double scale,
                   FlatMap<StringId, double>& out) {
  const CsrMatrix& q2o = *g.q2o[kind];
  const CsrMatrix& o2q = *g.o2q[kind];
  for (const auto& [q, p] : mass) {
    if (!g.Serves(q)) continue;
    double row_sum = q2o.RowSum(q);
    if (row_sum <= 0.0) continue;
    auto obj_idx = q2o.RowIndices(q);
    auto obj_val = q2o.RowValues(q);
    for (size_t k = 0; k < obj_idx.size(); ++k) {
      double p_obj = obj_val[k] / row_sum;
      uint32_t obj = obj_idx[k];
      double obj_sum = o2q.RowSum(obj);
      if (obj_sum <= 0.0) continue;
      auto q_idx = o2q.RowIndices(obj);
      auto q_val = o2q.RowValues(obj);
      for (size_t k2 = 0; k2 < q_idx.size(); ++k2) {
        out[q_idx[k2]] += scale * p * p_obj * q_val[k2] / obj_sum;
      }
    }
  }
}

// W W^T with a hash-map accumulator per row. `w` holds no zero entries (the
// transpose goes through FromTriplets, which would drop them).
CsrMatrix ReferenceSelfProduct(const CsrMatrix& w, double drop_tol = 0.0) {
  std::vector<Triplet> transposed;
  for (uint32_t i = 0; i < w.rows(); ++i) {
    auto idx = w.RowIndices(i);
    auto val = w.RowValues(i);
    for (size_t k = 0; k < idx.size(); ++k) {
      transposed.push_back(Triplet{idx[k], i, val[k]});
    }
  }
  CsrMatrix at =
      CsrMatrix::FromTriplets(w.cols(), w.rows(), std::move(transposed));
  CsrMatrix out;
  out.StartRows();
  std::unordered_map<uint32_t, double> acc;
  for (size_t i = 0; i < w.rows(); ++i) {
    acc.clear();
    auto idx = w.RowIndices(i);
    auto val = w.RowValues(i);
    for (size_t k = 0; k < idx.size(); ++k) {
      auto a_idx = at.RowIndices(idx[k]);
      auto a_val = at.RowValues(idx[k]);
      for (size_t k2 = 0; k2 < a_idx.size(); ++k2) {
        acc[a_idx[k2]] += val[k] * a_val[k2];
      }
    }
    std::vector<std::pair<uint32_t, double>> row(acc.begin(), acc.end());
    std::sort(row.begin(), row.end());
    for (const auto& [j, v] : row) {
      if (std::abs(v) <= drop_tol) continue;
      out.AppendEntry(j, v);
    }
    out.FinishRow();
  }
  out.FinishRows(w.rows());
  return out;
}

// A copy with each row divided by its sum; rows summing to <= 0 copied.
CsrMatrix ReferenceRowNormalized(const CsrMatrix& a) {
  CsrMatrix out;
  out.StartRows();
  for (size_t i = 0; i < a.rows(); ++i) {
    const double s = a.RowSum(i);
    auto idx = a.RowIndices(i);
    auto val = a.RowValues(i);
    for (size_t k = 0; k < idx.size(); ++k) {
      out.AppendEntry(idx[k], s <= 0.0 ? val[k] : val[k] / s);
    }
    out.FinishRow();
  }
  out.FinishRows(a.cols());
  return out;
}

CompactRepresentation ReferenceBuild(const ReferenceGraph& g,
                                     const std::vector<StringId>& seeds,
                                     const CompactBuilderOptions& options) {
  CompactRepresentation rep;
  auto add_query = [&rep](StringId q) {
    if (rep.local_index.count(q) > 0) return;
    rep.local_index.emplace(q, static_cast<uint32_t>(rep.queries.size()));
    rep.queries.push_back(q);
  };
  for (StringId s : seeds) add_query(s);

  FlatMap<StringId, double> mass;
  for (StringId q : rep.queries) {
    mass[q] = 1.0 / static_cast<double>(rep.queries.size());
  }
  for (size_t round = 0;
       round < options.max_rounds && rep.queries.size() < options.target_size;
       ++round) {
    FlatMap<StringId, double> reached;
    for (BipartiteKind kind : kAllBipartites) {
      ReferenceStep(g, static_cast<size_t>(kind), mass, 1.0 / 3.0, reached);
    }
    std::vector<std::pair<double, StringId>> outsiders;
    for (const auto& [q, p] : reached) {
      if (rep.local_index.count(q) == 0) outsiders.emplace_back(p, q);
    }
    if (outsiders.empty()) break;
    size_t admit = options.target_size - rep.queries.size();
    if (outsiders.size() > admit) {
      std::partial_sort(outsiders.begin(), outsiders.begin() + admit,
                        outsiders.end(), std::greater<>());
      outsiders.resize(admit);
    } else {
      std::sort(outsiders.begin(), outsiders.end(), std::greater<>());
    }
    for (const auto& [p, q] : outsiders) add_query(q);
    mass = std::move(reached);
  }

  const size_t n = rep.queries.size();
  for (BipartiteKind kind : kAllBipartites) {
    const auto ki = static_cast<size_t>(kind);
    const CsrMatrix& q2o = *g.q2o[ki];
    FlatMap<uint32_t, uint32_t> object_index;
    std::vector<Triplet> triplets;
    for (uint32_t local = 0; local < n; ++local) {
      const StringId global = rep.queries[local];
      if (!g.Serves(global)) continue;  // a refused row induces as empty
      auto idx = q2o.RowIndices(global);
      auto val = q2o.RowValues(global);
      for (size_t k = 0; k < idx.size(); ++k) {
        auto [it, inserted] = object_index.emplace(
            idx[k], static_cast<uint32_t>(object_index.size()));
        triplets.push_back(Triplet{local, it->second, val[k]});
      }
    }
    rep.w[ki] =
        CsrMatrix::FromTriplets(n, object_index.size(), std::move(triplets));
    rep.affinity[ki] = ReferenceSelfProduct(rep.w[ki]);
    const CsrMatrix& a = rep.affinity[ki];
    std::vector<double> inv_sqrt(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      double d = a.RowSum(i);
      inv_sqrt[i] = d > 0.0 ? 1.0 / std::sqrt(d) : 0.0;
    }
    std::vector<Triplet> sym;
    for (uint32_t i = 0; i < n; ++i) {
      auto idx = a.RowIndices(i);
      auto val = a.RowValues(i);
      for (size_t k = 0; k < idx.size(); ++k) {
        sym.push_back(
            Triplet{i, idx[k], val[k] * inv_sqrt[i] * inv_sqrt[idx[k]]});
      }
    }
    rep.sym_norm[ki] = CsrMatrix::FromTriplets(n, n, std::move(sym));
    rep.row_norm[ki] = ReferenceRowNormalized(a);
  }
  return rep;
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// Shape, row pointers, columns and value bits.
::testing::AssertionResult SameBits(const CsrMatrix& ref,
                                    const CsrMatrix& got) {
  if (ref.rows() != got.rows() || ref.cols() != got.cols() ||
      ref.nnz() != got.nnz()) {
    return ::testing::AssertionFailure()
           << "shape " << ref.rows() << "x" << ref.cols() << "/" << ref.nnz()
           << " vs " << got.rows() << "x" << got.cols() << "/" << got.nnz();
  }
  for (size_t r = 0; r < ref.rows(); ++r) {
    if (ref.RowNnz(r) != got.RowNnz(r)) {
      return ::testing::AssertionFailure() << "row_ptr differs at row " << r;
    }
    auto ri = ref.RowIndices(r);
    auto gi = got.RowIndices(r);
    auto rv = ref.RowValues(r);
    auto gv = got.RowValues(r);
    for (size_t k = 0; k < ri.size(); ++k) {
      if (ri[k] != gi[k] || Bits(rv[k]) != Bits(gv[k])) {
        return ::testing::AssertionFailure()
               << "row " << r << " entry " << k << ": (" << ri[k] << ", "
               << rv[k] << ") vs (" << gi[k] << ", " << gv[k] << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

void ExpectSameRepresentation(const CompactRepresentation& ref,
                              const CompactRepresentation& got,
                              const std::string& label) {
  ASSERT_EQ(ref.queries, got.queries) << label << ": admission order";
  ASSERT_EQ(ref.local_index.size(), got.local_index.size()) << label;
  for (size_t k = 0; k < 3; ++k) {
    const std::string kind = label + " kind " + std::to_string(k);
    EXPECT_TRUE(SameBits(ref.w[k], got.w[k])) << kind << " W";
    EXPECT_TRUE(SameBits(ref.affinity[k], got.affinity[k])) << kind << " A";
    EXPECT_TRUE(SameBits(ref.sym_norm[k], got.sym_norm[k])) << kind << " S";
    EXPECT_TRUE(SameBits(ref.row_norm[k], got.row_norm[k])) << kind << " P";
  }
}

template <typename Vec>
bool SameValueBits(const Vec& a, const Vec& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (Bits(a[i]) != Bits(b[i])) return false;
  }
  return true;
}

bool SamePacked(const PackedCsr& a, const PackedCsr& b) {
  return a.rows == b.rows && a.cols == b.cols && a.row_ptr == b.row_ptr &&
         a.col == b.col && SameValueBits(a.val, b.val);
}

// A random W: ragged rows (empty ones included), duplicate triplets summed.
CsrMatrix RandomW(Lcg& rng, uint32_t rows, uint32_t cols) {
  std::vector<Triplet> triplets;
  for (uint32_t i = 0; i < rows; ++i) {
    const uint32_t nnz = static_cast<uint32_t>(rng.Next() % 7);
    for (uint32_t k = 0; k < nnz; ++k) {
      triplets.push_back(Triplet{i, static_cast<uint32_t>(rng.Next() % cols),
                                 std::abs(rng.NextDouble())});
    }
  }
  return CsrMatrix::FromTriplets(rows, cols, std::move(triplets));
}

TEST(SelfProductTest, GustavsonTriangleMatchesHashMapReference) {
  Lcg rng(37);
  CsrMatrix reused;
  SelfProductScratch scratch;
  for (int trial = 0; trial < 60; ++trial) {
    const uint32_t rows = 1 + static_cast<uint32_t>(rng.Next() % 60);
    const uint32_t cols = 1 + static_cast<uint32_t>(rng.Next() % 40);
    CsrMatrix w = RandomW(rng, rows, cols);
    for (double drop_tol : {0.0, 0.05}) {
      const CsrMatrix ref = ReferenceSelfProduct(w, drop_tol);
      EXPECT_TRUE(SameBits(ref, w.MultiplySelfTranspose(drop_tol)))
          << "trial " << trial << " drop_tol " << drop_tol;
      // Storage reused across products of every shape.
      w.MultiplySelfTransposeInto(reused, scratch, drop_tol);
      EXPECT_TRUE(SameBits(ref, reused))
          << "trial " << trial << " drop_tol " << drop_tol << " (reused)";
      for (size_t i = 0; i < reused.rows(); ++i) {
        auto idx = reused.RowIndices(i);
        for (size_t k = 0; k < idx.size(); ++k) {
          ASSERT_EQ(Bits(reused.RowValues(i)[k]), Bits(reused.At(idx[k], i)))
              << "asymmetric at (" << i << ", " << idx[k] << ")";
        }
      }
    }
  }
}

// A random three-bipartite graph served through the CompactWalkBackend
// seam: rows may be empty or hold explicit zero weights, and most objects
// are reached by one query only.
class RandomGraphBackend final : public CompactWalkBackend {
 public:
  RandomGraphBackend(uint64_t seed, uint32_t queries) {
    Lcg rng(seed);
    for (size_t x = 0; x < 3; ++x) {
      const uint32_t objects =
          1 + static_cast<uint32_t>(rng.Next() % (2 * queries));
      q2o_[x].StartRows();
      std::vector<uint32_t> row;
      for (uint32_t q = 0; q < queries; ++q) {
        row.clear();
        if (rng.Next() % 5 != 0) {  // one row in five stays empty
          const uint32_t nnz = 1 + static_cast<uint32_t>(rng.Next() % 6);
          for (uint32_t k = 0; k < nnz; ++k) {
            row.push_back(static_cast<uint32_t>(rng.Next() % objects));
          }
          std::sort(row.begin(), row.end());
          row.erase(std::unique(row.begin(), row.end()), row.end());
        }
        for (uint32_t o : row) {
          const bool zero = rng.Next() % 8 == 0;
          q2o_[x].AppendEntry(o, zero ? 0.0 : 4.0 * std::abs(rng.NextDouble()));
        }
        q2o_[x].FinishRow();
      }
      q2o_[x].FinishRows(objects);
      o2q_[x] = q2o_[x].Transpose();
    }
  }

  ReferenceGraph Graph() const {
    ReferenceGraph g;
    for (size_t x = 0; x < 3; ++x) {
      g.q2o[x] = &q2o_[x];
      g.o2q[x] = &o2q_[x];
    }
    return g;
  }

  Status Step(BipartiteKind kind, const WalkMass& mass, double scale,
              WalkMass& out) const override {
    const CsrMatrix& q2o = q2o_[static_cast<size_t>(kind)];
    const CsrMatrix& o2q = o2q_[static_cast<size_t>(kind)];
    for (StringId q : mass.order()) {
      const double p = mass.value(q);
      double row_sum = q2o.RowSum(q);
      if (row_sum <= 0.0) continue;
      auto obj_idx = q2o.RowIndices(q);
      auto obj_val = q2o.RowValues(q);
      for (size_t k = 0; k < obj_idx.size(); ++k) {
        double p_obj = obj_val[k] / row_sum;
        uint32_t obj = obj_idx[k];
        double obj_sum = o2q.RowSum(obj);
        if (obj_sum <= 0.0) continue;
        auto q_idx = o2q.RowIndices(obj);
        auto q_val = o2q.RowValues(obj);
        for (size_t k2 = 0; k2 < q_idx.size(); ++k2) {
          out.Add(q_idx[k2], scale * p * p_obj * q_val[k2] / obj_sum);
        }
      }
    }
    return Status::OK();
  }

  Status QueryRow(BipartiteKind kind, StringId query,
                  std::span<const uint32_t>& indices,
                  std::span<const double>& values) const override {
    indices = q2o_[static_cast<size_t>(kind)].RowIndices(query);
    values = q2o_[static_cast<size_t>(kind)].RowValues(query);
    return Status::OK();
  }

 private:
  std::array<CsrMatrix, 3> q2o_;
  std::array<CsrMatrix, 3> o2q_;
};

// A representation with exactly `queries` query ids, for the seed checks of
// a builder whose rows all come from a backend.
MultiBipartite QueryIdSpace(uint32_t queries) {
  std::vector<QueryLogRecord> records;
  for (uint32_t q = 0; q < queries; ++q) {
    records.push_back({1, "q" + std::to_string(q), "", 100 + q});
  }
  return MultiBipartite::Build(records, Sessionize(records),
                               EdgeWeighting::kRaw);
}

TEST(InductionOracleTest, RandomGraphsMatchReferenceBitwise) {
  Lcg rng(41);
  for (uint64_t trial = 0; trial < 60; ++trial) {
    const uint32_t queries = 8 + static_cast<uint32_t>(rng.Next() % 90);
    RandomGraphBackend backend(1000 + trial, queries);
    const MultiBipartite ids = QueryIdSpace(queries);
    ASSERT_EQ(ids.num_queries(), queries);
    std::vector<StringId> seeds;
    const size_t distinct = 1 + rng.Next() % 4;
    for (size_t s = 0; s < distinct; ++s) {
      seeds.push_back(static_cast<StringId>(rng.Next() % queries));
    }
    seeds.push_back(seeds.front());  // a duplicate seed
    CompactBuilderOptions options;
    options.target_size = 1 + rng.Next() % queries;
    options.max_rounds = 1 + rng.Next() % 6;

    const CompactRepresentation ref =
        ReferenceBuild(backend.Graph(), seeds, options);
    const CompactBuilder builder(ids, &backend);
    auto got = builder.BuildFromSeeds(seeds, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameRepresentation(ref, *got, "trial " + std::to_string(trial));
  }
}

// The seeded 800-user log of the serving benchmark's cold workload, its
// representation, and 200 record-sampled requests.
struct SeededLog {
  std::vector<QueryLogRecord> records;
  std::unique_ptr<MultiBipartite> mb;
  std::vector<SuggestionRequest> requests;
};

const SeededLog& Log800() {
  static const SeededLog* log = [] {
    GeneratorConfig config;
    config.seed = 801;
    config.num_users = 800;
    config.sessions_per_user_min = 14;
    config.sessions_per_user_max = 26;
    config.facet_config.num_facets = 48;
    config.facet_config.num_concepts = 16;
    config.facet_config.facets_per_concept = 3;
    SyntheticDataset data = GenerateLog(config);
    auto* out = new SeededLog;
    for (TestQuery& t : SampleTestQueries(data, 200, 801)) {
      out->requests.push_back(std::move(t.request));
    }
    out->records = std::move(data.records);
    out->mb = std::make_unique<MultiBipartite>(MultiBipartite::Build(
        out->records, Sessionize(out->records), PqsdaEngineConfig{}.weighting));
    return out;
  }();
  return *log;
}

// Input plus the context queries the representation knows, as
// CompactBuilder::Build seeds the walk.
std::vector<StringId> SeedsOf(const MultiBipartite& mb,
                              const SuggestionRequest& request) {
  std::vector<StringId> seeds;
  const StringId input = mb.QueryId(request.query);
  if (input == kInvalidStringId) return seeds;
  seeds.push_back(input);
  for (const auto& [q, ts] : request.context) {
    const StringId id = mb.QueryId(q);
    if (id != kInvalidStringId) seeds.push_back(id);
  }
  return seeds;
}

TEST(InductionOracleTest, SeededLogRequestsMatchReferenceBitwise) {
  const SeededLog& log = Log800();
  const MultiBipartite& mb = *log.mb;
  ASSERT_EQ(log.requests.size(), 200u);
  const CompactBuilderOptions options;  // Q = 400, the serving default
  const CompactBuilder builder(mb);
  const ReferenceGraph graph = GraphOf(mb);
  const std::vector<double> weights = {1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0};
  size_t built = 0;
  for (size_t r = 0; r < log.requests.size(); ++r) {
    const std::vector<StringId> seeds = SeedsOf(mb, log.requests[r]);
    if (seeds.empty()) continue;
    const std::vector<StringId> context(seeds.begin() + 1, seeds.end());
    auto rep = builder.Build(seeds[0], context, options);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    const CompactRepresentation ref = ReferenceBuild(graph, seeds, options);
    const std::string label = "request " + std::to_string(r);
    ExpectSameRepresentation(ref, *rep, label);

    // The solver inputs built from them agree too.
    const Eq15Operator op = BuildEq15Operator(*rep, kAlpha);
    const Eq15Operator ref_op = BuildEq15Operator(ref, kAlpha);
    EXPECT_TRUE(SameValueBits(ref_op.diag, op.diag) &&
                SameValueBits(ref_op.inv_diag, op.inv_diag) &&
                SamePacked(ref_op.off, op.off))
        << label << ": Eq. 15 operator";
    const MergedChain merged = BuildMergedChain(
        {&rep->row_norm[0], &rep->row_norm[1], &rep->row_norm[2]}, weights);
    const MergedChain ref_chain = BuildMergedChain(
        {&ref.row_norm[0], &ref.row_norm[1], &ref.row_norm[2]}, weights);
    EXPECT_TRUE(SamePacked(ref_chain.m, merged.m) &&
                SameValueBits(ref_chain.mass, merged.mass))
        << label << ": merged chain";
    ++built;
  }
  EXPECT_GE(built, 190u);
}

TEST(InductionOracleTest, ShardedWalkMatchesReferenceWithDegradedShard) {
  const SeededLog& log = Log800();
  const CompactBuilderOptions options;
  for (size_t shards : {1u, 4u}) {
    PqsdaEngineConfig config;
    config.personalize = false;
    config.sharding.shards = shards;
    auto snap_or = BuildIndexSnapshot(log.records, config, 0);
    ASSERT_TRUE(snap_or.ok()) << snap_or.status().ToString();
    const IndexSnapshot& snap = **snap_or;
    const MultiBipartite& mb = *snap.mb;
    const ShardPartition& part = snap.partition;
    // Real lanes at N = 4, so cross-shard fetches run on other threads.
    std::vector<std::unique_ptr<ThreadPool>> lane_pools;
    std::vector<ThreadPool*> lanes;
    if (shards > 1) {
      for (size_t s = 0; s < shards; ++s) {
        lane_pools.push_back(std::make_unique<ThreadPool>(1));
        lanes.push_back(lane_pools.back().get());
      }
    }
    size_t partial = 0;
    for (size_t r = 0; r < log.requests.size(); ++r) {
      const std::vector<StringId> seeds = SeedsOf(mb, log.requests[r]);
      if (seeds.empty()) continue;
      const size_t primary = part.query_owner[seeds[0]];
      // At N = 1 the only shard is the primary, which always serves.
      const size_t degraded = shards > 1 ? (primary + 1) % shards : SIZE_MAX;

      ShardServingContext ctx;
      ctx.mb = &mb;
      ctx.partition = &part;
      ctx.primary = primary;
      ctx.classify = [degraded](size_t s) -> uint8_t {
        return s == degraded ? SuggestStats::kShardDegraded
                             : SuggestStats::kShardFull;
      };
      ctx.rung.assign(part.shards, SuggestStats::kShardUntouched);
      ctx.rung[primary] = SuggestStats::kShardFull;
      ctx.shard_fetches.assign(part.shards, 0);
      ShardedWalkBackend backend(&ctx, lanes);
      const CompactBuilder builder(mb, &backend);
      const std::vector<StringId> context(seeds.begin() + 1, seeds.end());
      auto rep = builder.Build(seeds[0], context, options);
      ASSERT_TRUE(rep.ok()) << rep.status().ToString();
      if (ctx.partial) ++partial;

      ReferenceGraph graph = GraphOf(mb);
      graph.served = [&part, primary, degraded](StringId q) {
        return part.HasRow(primary, q) || part.query_owner[q] != degraded;
      };
      const CompactRepresentation ref = ReferenceBuild(graph, seeds, options);
      const std::string label =
          "shards=" + std::to_string(shards) + " request " + std::to_string(r);
      ExpectSameRepresentation(ref, *rep, label);

      // The walk masses themselves, two rounds from the seeds: the gathered
      // sums must match the FlatMap reference in first-touch order and bits
      // (admission alone would hide a reordered sum that rounds the same
      // way at the cut).
      WalkMass mass, reached;
      mass.Reset(mb.num_queries());
      FlatMap<StringId, double> ref_mass;
      std::vector<StringId> distinct;
      for (StringId q : seeds) {
        if (std::find(distinct.begin(), distinct.end(), q) == distinct.end()) {
          distinct.push_back(q);
        }
      }
      for (StringId q : distinct) {
        mass.Add(q, 1.0 / static_cast<double>(distinct.size()));
        ref_mass[q] = 1.0 / static_cast<double>(distinct.size());
      }
      for (int round = 0; round < 2; ++round) {
        reached.Reset(mb.num_queries());
        FlatMap<StringId, double> ref_reached;
        for (BipartiteKind kind : kAllBipartites) {
          ASSERT_TRUE(backend.Step(kind, mass, 1.0 / 3.0, reached).ok());
          ReferenceStep(graph, static_cast<size_t>(kind), ref_mass, 1.0 / 3.0,
                        ref_reached);
        }
        ASSERT_EQ(reached.order().size(), ref_reached.size()) << label;
        size_t e = 0;
        for (const auto& [q, p] : ref_reached) {
          ASSERT_EQ(reached.order()[e], q) << label << " round " << round;
          ASSERT_EQ(Bits(reached.value(q)), Bits(p))
              << label << " round " << round << " query " << q;
          ++e;
        }
        mass.swap(reached);
        ref_mass = std::move(ref_reached);
      }
    }
    if (shards > 1) {
      EXPECT_GT(partial, 0u) << "the degraded shard was never touched";
    }
  }
}

}  // namespace
}  // namespace pqsda
