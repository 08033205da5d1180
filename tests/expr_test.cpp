// Tests for the expression engine: construction rules, truth tables,
// Quine-McCluskey minimization, negation, equivalence, and the
// simplification entry point.  Includes randomized property sweeps checking
// that every algebraic transformation preserves semantics, and coverage of
// the Manager's internal structures: the per-truth-table cover memo, the
// open-addressing unique table across growth, and the epoch-stamped query
// scratch reused across calls.

#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <set>

#include "expr/expr.hpp"
#include "expr/qm.hpp"
#include "expr/truth_table.hpp"
#include "util/rng.hpp"

namespace hts::expr {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  Manager mgr;
  ExprId a = mgr.var(0);
  ExprId b = mgr.var(1);
  ExprId c = mgr.var(2);
};

// --- truth tables ------------------------------------------------------------

TEST(TruthTable, ProjectionPatterns) {
  const TruthTable x0 = TruthTable::projection(2, 0);
  const TruthTable x1 = TruthTable::projection(2, 1);
  // rows: 00 01 10 11 (bit j of the row index = var j)
  EXPECT_FALSE(x0.get(0));
  EXPECT_TRUE(x0.get(1));
  EXPECT_FALSE(x0.get(2));
  EXPECT_TRUE(x0.get(3));
  EXPECT_FALSE(x1.get(0));
  EXPECT_FALSE(x1.get(1));
  EXPECT_TRUE(x1.get(2));
  EXPECT_TRUE(x1.get(3));
}

TEST(TruthTable, ProjectionAboveWordBoundary) {
  const TruthTable x7 = TruthTable::projection(8, 7);
  EXPECT_FALSE(x7.get(0));
  EXPECT_TRUE(x7.get(128));
  EXPECT_TRUE(x7.get(255));
  EXPECT_FALSE(x7.get(127));
}

TEST(TruthTable, OperatorsMatchSemantics) {
  const TruthTable x = TruthTable::projection(3, 0);
  const TruthTable y = TruthTable::projection(3, 2);
  const TruthTable conj = x & y;
  const TruthTable disj = x | y;
  const TruthTable exor = x ^ y;
  for (std::uint64_t row = 0; row < 8; ++row) {
    const bool xv = (row & 1) != 0;
    const bool yv = (row & 4) != 0;
    EXPECT_EQ(conj.get(row), xv && yv);
    EXPECT_EQ(disj.get(row), xv || yv);
    EXPECT_EQ(exor.get(row), xv != yv);
  }
}

TEST(TruthTable, ConstantsAndNegation) {
  const TruthTable t = TruthTable::constant(4, true);
  const TruthTable f = TruthTable::constant(4, false);
  EXPECT_TRUE(t.is_constant_true());
  EXPECT_TRUE(f.is_constant_false());
  EXPECT_TRUE((~t).is_constant_false());
  EXPECT_EQ(t.popcount(), 16u);
}

TEST(TruthTable, ZeroVarTables) {
  const TruthTable t = TruthTable::constant(0, true);
  EXPECT_EQ(t.n_rows(), 1u);
  EXPECT_TRUE(t.get(0));
  EXPECT_TRUE((~t).is_constant_false());
}

TEST(TruthTable, MintermsListsOnes) {
  TruthTable tt(2);
  tt.set(1, true);
  tt.set(3, true);
  EXPECT_EQ(tt.minterms(), (std::vector<std::uint64_t>{1, 3}));
}

// --- construction rules -------------------------------------------------------

TEST_F(ExprTest, ConstantsAndVars) {
  EXPECT_EQ(mgr.kind(mgr.const0()), Kind::kConst0);
  EXPECT_EQ(mgr.kind(mgr.const1()), Kind::kConst1);
  EXPECT_EQ(mgr.var(0), a);  // hash-consed
  EXPECT_NE(a, b);
}

TEST_F(ExprTest, DoubleNegationCancels) {
  EXPECT_EQ(mgr.mk_not(mgr.mk_not(a)), a);
  EXPECT_EQ(mgr.mk_not(mgr.const0()), mgr.const1());
}

TEST_F(ExprTest, AndIdentityAndAnnihilator) {
  EXPECT_EQ(mgr.mk_and({a, mgr.const1()}), a);
  EXPECT_EQ(mgr.mk_and({a, mgr.const0()}), mgr.const0());
  EXPECT_EQ(mgr.mk_and({}), mgr.const1());
  EXPECT_EQ(mgr.mk_and({a, a}), a);
  EXPECT_EQ(mgr.mk_and({a, mgr.mk_not(a)}), mgr.const0());
}

TEST_F(ExprTest, OrIdentityAndAnnihilator) {
  EXPECT_EQ(mgr.mk_or({a, mgr.const0()}), a);
  EXPECT_EQ(mgr.mk_or({a, mgr.const1()}), mgr.const1());
  EXPECT_EQ(mgr.mk_or({}), mgr.const0());
  EXPECT_EQ(mgr.mk_or({a, mgr.mk_not(a)}), mgr.const1());
}

TEST_F(ExprTest, FlatteningAndCommutativity) {
  const ExprId left = mgr.mk_and2(a, mgr.mk_and2(b, c));
  const ExprId right = mgr.mk_and2(mgr.mk_and2(c, a), b);
  EXPECT_EQ(left, right);  // same canonical node
}

TEST_F(ExprTest, Absorption) {
  // a | (a & b) == a ; a & (a | b) == a
  EXPECT_EQ(mgr.mk_or2(a, mgr.mk_and2(a, b)), a);
  EXPECT_EQ(mgr.mk_and2(a, mgr.mk_or2(a, b)), a);
}

TEST_F(ExprTest, XorParityNormalization) {
  EXPECT_EQ(mgr.mk_xor({a, a}), mgr.const0());
  EXPECT_EQ(mgr.mk_xor({a, mgr.const0()}), a);
  EXPECT_EQ(mgr.mk_xor({a, mgr.const1()}), mgr.mk_not(a));
  // ~a ^ b == ~(a ^ b)
  EXPECT_EQ(mgr.mk_xor2(mgr.mk_not(a), b), mgr.mk_not(mgr.mk_xor2(a, b)));
  // ~a ^ ~b == a ^ b
  EXPECT_EQ(mgr.mk_xor2(mgr.mk_not(a), mgr.mk_not(b)), mgr.mk_xor2(a, b));
}

TEST_F(ExprTest, MuxConstruction) {
  const ExprId mux = mgr.mk_mux(a, b, c);
  // Semantics: a ? b : c.
  for (int bits = 0; bits < 8; ++bits) {
    const std::vector<std::uint8_t> assignment{
        static_cast<std::uint8_t>(bits & 1), static_cast<std::uint8_t>((bits >> 1) & 1),
        static_cast<std::uint8_t>((bits >> 2) & 1)};
    const bool expected = assignment[0] != 0 ? assignment[1] != 0 : assignment[2] != 0;
    EXPECT_EQ(mgr.eval(mux, assignment), expected) << bits;
  }
}

TEST_F(ExprTest, SupportComputation) {
  const ExprId e = mgr.mk_or2(mgr.mk_and2(a, c), mgr.mk_not(a));
  EXPECT_EQ(mgr.support(e), (std::vector<std::uint32_t>{0, 2}));
  EXPECT_TRUE(mgr.support(mgr.const1()).empty());
}

// --- negate / equivalence ------------------------------------------------------

TEST_F(ExprTest, NegatePushesThroughDeMorgan) {
  const ExprId e = mgr.mk_and2(a, mgr.mk_or2(b, c));
  const ExprId n = mgr.negate(e);
  // ~(a & (b|c)) == ~a | (~b & ~c); check semantically and structurally
  // (negate must not produce a top-level NOT over AND/OR).
  EXPECT_NE(mgr.kind(n), Kind::kNot);
  EXPECT_TRUE(mgr.equivalent(n, mgr.mk_not(e)));
  EXPECT_EQ(mgr.negate(n), e);
}

TEST_F(ExprTest, EquivalentBasics) {
  const ExprId lhs = mgr.mk_or2(a, b);
  const ExprId rhs = mgr.mk_not(mgr.mk_and2(mgr.mk_not(a), mgr.mk_not(b)));
  EXPECT_TRUE(mgr.equivalent(lhs, rhs));
  EXPECT_FALSE(mgr.equivalent(lhs, mgr.mk_and2(a, b)));
}

TEST_F(ExprTest, ComplementaryDetectsMuxPair) {
  // The paper's Eq. 5 check: f = (x107&x4)|(x108&~x4) vs
  // g = (~x107&x4)|(~x108&~x4) must be complements.
  const ExprId x4 = mgr.var(3);
  const ExprId x107 = mgr.var(106);
  const ExprId x108 = mgr.var(107);
  const ExprId f = mgr.mk_or2(mgr.mk_and2(x107, x4),
                              mgr.mk_and2(x108, mgr.mk_not(x4)));
  const ExprId g = mgr.mk_or2(mgr.mk_and2(mgr.mk_not(x107), x4),
                              mgr.mk_and2(mgr.mk_not(x108), mgr.mk_not(x4)));
  EXPECT_TRUE(mgr.complementary(f, g));
  EXPECT_FALSE(mgr.complementary(f, f));
}

TEST_F(ExprTest, EquivalentOnDisjointSupports) {
  EXPECT_FALSE(mgr.equivalent(a, b));
  EXPECT_TRUE(mgr.equivalent(mgr.mk_xor2(a, a), mgr.const0()));
}

// --- QM minimization ------------------------------------------------------------

TEST(Qm, MinimizesMuxCover) {
  // f(s, d1, d0) = s ? d1 : d0 — classic 3-var function with a consensus
  // term; QM must produce exactly two cubes.
  TruthTable tt(3);
  for (std::uint64_t row = 0; row < 8; ++row) {
    const bool s = (row & 1) != 0;
    const bool d1 = (row & 2) != 0;
    const bool d0 = (row & 4) != 0;
    tt.set(row, s ? d1 : d0);
  }
  const auto cover = minimize_sop(tt);
  EXPECT_EQ(cover.size(), 2u);
  for (const std::uint64_t m : tt.minterms()) {
    bool covered = false;
    for (const Cube& cube : cover) covered |= cube.covers(m);
    EXPECT_TRUE(covered) << m;
  }
}

TEST(Qm, ConstantCovers) {
  EXPECT_TRUE(minimize_sop(TruthTable::constant(3, false)).empty());
  const auto cover = minimize_sop(TruthTable::constant(3, true));
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].mask, 0u);
}

TEST(Qm, SingleMinterm) {
  TruthTable tt(4);
  tt.set(5, true);  // x0=1 x1=0 x2=1 x3=0
  const auto cover = minimize_sop(tt);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].mask, 0xFu);
  EXPECT_EQ(cover[0].value, 5u);
  EXPECT_EQ(cover[0].n_literals(), 4);
}

TEST(Qm, CoverIsExactOnRandomFunctions) {
  util::Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint32_t n = 1 + rng.next_below(6);
    TruthTable tt(static_cast<std::uint32_t>(n));
    for (std::uint64_t row = 0; row < tt.n_rows(); ++row) {
      tt.set(row, rng.next_bool());
    }
    const auto cover = minimize_sop(tt);
    // Rebuild and compare against the original table.
    TruthTable rebuilt(static_cast<std::uint32_t>(n));
    for (std::uint64_t row = 0; row < tt.n_rows(); ++row) {
      bool value = false;
      for (const Cube& cube : cover) value |= cube.covers(row);
      rebuilt.set(row, value);
    }
    EXPECT_EQ(rebuilt, tt) << "trial " << trial << " n=" << n;
  }
}

TEST(Qm, SopCostCountsOps) {
  // (x0 & ~x1) | x2 — cube1: 1 AND + 1 NOT, cube2: 0; OR: 1 -> total 3.
  const std::vector<Cube> cover{Cube{0b011, 0b001}, Cube{0b100, 0b100}};
  EXPECT_EQ(sop_cost(cover, true), 3u);
  EXPECT_EQ(sop_cost(cover, false), 2u);
}

// --- simplify -------------------------------------------------------------------

TEST_F(ExprTest, SimplifyProductOfSumsToMux) {
  // (~a | b) & (a | c) == (a & b) | (~a & c): POS (4 ops incl NOT) vs SOP
  // (5 ops); simplify should pick a form no worse than the input.
  const ExprId pos = mgr.mk_and2(mgr.mk_or2(mgr.mk_not(a), b), mgr.mk_or2(a, c));
  const ExprId simplified = mgr.simplify(pos);
  EXPECT_TRUE(mgr.equivalent(pos, simplified));
  EXPECT_LE(mgr.op_count_2input(simplified), mgr.op_count_2input(pos));
}

TEST_F(ExprTest, SimplifyDetectsConstants) {
  const ExprId tautology = mgr.mk_or2(mgr.mk_and2(a, b), mgr.mk_not(mgr.mk_and2(a, b)));
  EXPECT_EQ(mgr.simplify(tautology), mgr.const1());
  const ExprId contradiction = mgr.mk_and2(mgr.mk_xor2(a, b), mgr.mk_xor2(a, b));
  // xor & xor == xor (dedupe), not constant; make a real contradiction:
  const ExprId contra2 =
      mgr.mk_and2(mgr.mk_xor2(a, b), mgr.mk_not(mgr.mk_xor2(a, b)));
  EXPECT_EQ(mgr.simplify(contra2), mgr.const0());
  (void)contradiction;
}

TEST_F(ExprTest, SimplifyPreservesSemanticsRandomized) {
  util::Rng rng(777);
  for (int trial = 0; trial < 60; ++trial) {
    // Random expression over 4 vars, depth ~4.
    std::vector<ExprId> pool{mgr.var(0), mgr.var(1), mgr.var(2), mgr.var(3)};
    for (int step = 0; step < 10; ++step) {
      const ExprId x = pool[rng.next_below(pool.size())];
      const ExprId y = pool[rng.next_below(pool.size())];
      switch (rng.next_below(4)) {
        case 0:
          pool.push_back(mgr.mk_and2(x, y));
          break;
        case 1:
          pool.push_back(mgr.mk_or2(x, y));
          break;
        case 2:
          pool.push_back(mgr.mk_xor2(x, y));
          break;
        default:
          pool.push_back(mgr.mk_not(x));
          break;
      }
    }
    const ExprId original = pool.back();
    const ExprId simplified = mgr.simplify(original);
    EXPECT_TRUE(mgr.equivalent(original, simplified)) << "trial " << trial;
    EXPECT_LE(mgr.op_count_2input(simplified), mgr.op_count_2input(original));
  }
}

TEST_F(ExprTest, OpCountSharesCommonSubDags) {
  const ExprId shared = mgr.mk_and2(a, b);
  const ExprId e = mgr.mk_or2(shared, mgr.mk_xor2(shared, c));
  // Nodes: AND(1) + XOR(1) + OR(1) = 3; 'shared' counted once.
  EXPECT_EQ(mgr.op_count_2input(e), 3u);
}

TEST_F(ExprTest, ToStringReadable) {
  const ExprId e = mgr.mk_or2(mgr.mk_and2(a, mgr.mk_not(b)), c);
  const std::string text = mgr.to_string(e);
  EXPECT_NE(text.find("x0"), std::string::npos);
  EXPECT_NE(text.find("~x1"), std::string::npos);
  EXPECT_NE(text.find("|"), std::string::npos);
}

TEST_F(ExprTest, EvalAgainstTruthTableRandomized) {
  util::Rng rng(555);
  const ExprId e = mgr.mk_or2(mgr.mk_xor2(a, mgr.mk_and2(b, c)), mgr.mk_not(b));
  const auto support = mgr.support(e);
  const TruthTable tt = mgr.truth_table(e, support);
  for (std::uint64_t row = 0; row < tt.n_rows(); ++row) {
    std::vector<std::uint8_t> assignment(3, 0);
    for (std::size_t j = 0; j < support.size(); ++j) {
      assignment[support[j]] = static_cast<std::uint8_t>((row >> j) & 1);
    }
    EXPECT_EQ(mgr.eval(e, assignment), tt.get(row)) << row;
  }
}

TEST_F(ExprTest, FromSopRebuildsCover) {
  // cover: (x0 & ~x2) | x1 over support {0,1,2}
  const std::vector<Cube> cover{Cube{0b101, 0b001}, Cube{0b010, 0b010}};
  const std::vector<std::uint32_t> support{0, 1, 2};
  const ExprId e = mgr.from_sop(cover, support);
  const ExprId expected =
      mgr.mk_or2(mgr.mk_and2(a, mgr.mk_not(c)), b);
  EXPECT_TRUE(mgr.equivalent(e, expected));
}

// --- truth tables across the inline/heap boundary ------------------------------

TEST(TruthTable, InlineAndHeapTablesMatchRowSemantics) {
  util::Rng rng(4242);
  for (std::uint32_t n = 0; n <= 8; ++n) {
    TruthTable x(n);
    TruthTable y(n);
    for (std::uint64_t row = 0; row < x.n_rows(); ++row) {
      x.set(row, rng.next_bool());
      y.set(row, rng.next_bool());
    }
    const TruthTable conj = x & y;
    const TruthTable disj = x | y;
    const TruthTable parity = x ^ y;
    const TruthTable inverse = ~x;
    std::uint64_t ones = 0;
    for (std::uint64_t row = 0; row < x.n_rows(); ++row) {
      EXPECT_EQ(conj.get(row), x.get(row) && y.get(row)) << n;
      EXPECT_EQ(disj.get(row), x.get(row) || y.get(row)) << n;
      EXPECT_EQ(parity.get(row), x.get(row) != y.get(row)) << n;
      EXPECT_EQ(inverse.get(row), !x.get(row)) << n;
      ones += x.get(row) ? 1 : 0;
    }
    EXPECT_EQ(x.popcount(), ones);
    EXPECT_EQ(inverse.popcount(), x.n_rows() - ones);  // tail bits trimmed
    TruthTable in_place = x;
    in_place &= y;
    EXPECT_EQ(in_place, conj);
    const TruthTable copy = x;
    EXPECT_EQ(copy, x);
    EXPECT_EQ(copy.hash(), x.hash());
    EXPECT_TRUE((x ^ x).is_constant_false());
    EXPECT_TRUE((x | inverse).is_constant_true());
  }
  // Same bits, different arity: distinct tables.
  EXPECT_FALSE(TruthTable::constant(3, false) == TruthTable::constant(4, false));
}

// --- simplify cover memo ---------------------------------------------------------

/// (x&y&z) | (x&y&~z) | (~x&w) over the given four variables: resynthesis
/// shrinks it to (x&y) | (~x&w), dropping z.
ExprId redundant_mux(Manager& m, std::uint32_t x, std::uint32_t y, std::uint32_t z,
                     std::uint32_t w) {
  const ExprId vx = m.var(x);
  const ExprId vy = m.var(y);
  const ExprId vz = m.var(z);
  const ExprId vw = m.var(w);
  return m.mk_or({m.mk_and({vx, vy, vz}), m.mk_and({vx, vy, m.mk_not(vz)}),
                  m.mk_and2(m.mk_not(vx), vw)});
}

/// to_string output with every variable index shifted by `offset`.
std::string shift_vars(const std::string& text, std::uint32_t offset) {
  std::string out;
  for (std::size_t i = 0; i < text.size();) {
    out += text[i];
    if (text[i++] != 'x') continue;
    std::size_t end = i;
    while (end < text.size() && std::isdigit(static_cast<unsigned char>(text[end]))) ++end;
    out += std::to_string(std::stoul(text.substr(i, end - i)) + offset);
    i = end;
  }
  return out;
}

TEST(SimplifyMemo, SameFunctionOverDisjointSupportsIsRelabeled) {
  Manager shared;
  const std::vector<std::uint32_t> low{0, 1, 2, 3};
  const std::vector<std::uint32_t> high{10, 11, 12, 13};
  const ExprId f_low = redundant_mux(shared, 0, 1, 2, 3);
  const ExprId f_high = redundant_mux(shared, 10, 11, 12, 13);
  const ExprId s_low = shared.simplify(f_low);
  EXPECT_EQ(shared.n_qm_minimized(), 1u);
  const ExprId s_high = shared.simplify(f_high);
  EXPECT_EQ(shared.n_simplified(), 2u);
  EXPECT_EQ(shared.n_qm_minimized(), 1u);  // the second call hit the memo

  EXPECT_NE(s_low, f_low);  // resynthesis won, so the cover was used
  EXPECT_TRUE(shared.equivalent(s_low, f_low));
  EXPECT_TRUE(shared.equivalent(s_high, f_high));
  // Relabeled onto the call's own support, never the cached call's.
  EXPECT_EQ(shared.support(s_low), (std::vector<std::uint32_t>{0, 1, 3}));
  EXPECT_EQ(shared.support(s_high), (std::vector<std::uint32_t>{10, 11, 13}));
  EXPECT_EQ(shared.truth_table(s_low, low), shared.truth_table(s_high, high));
  EXPECT_EQ(shared.op_count_2input(s_low), shared.op_count_2input(s_high));
  EXPECT_EQ(shared.to_string(s_high), shift_vars(shared.to_string(s_low), 10));

  // A fresh Manager (cold memo) returns the same expression.
  const std::pair<std::vector<std::uint32_t>, ExprId> cases[] = {{low, s_low},
                                                                 {high, s_high}};
  for (const auto& [vars, expected] : cases) {
    Manager fresh;
    const ExprId f = redundant_mux(fresh, vars[0], vars[1], vars[2], vars[3]);
    const ExprId s = fresh.simplify(f);
    EXPECT_EQ(fresh.n_qm_minimized(), 1u);
    EXPECT_EQ(fresh.to_string(s), shared.to_string(expected));
    EXPECT_EQ(fresh.truth_table(s, vars), shared.truth_table(expected, vars));
    EXPECT_EQ(fresh.op_count_2input(s), shared.op_count_2input(expected));
  }
}

TEST(SimplifyMemo, PermutedSupportIsADifferentTable) {
  // x0 & (x1 | x2) and x2 & (x0 | x1) are one function up to renaming but
  // different tables over the sorted support, so each runs QM once.
  Manager m;
  const ExprId a = m.var(0);
  const ExprId b = m.var(1);
  const ExprId c = m.var(2);
  const ExprId f = m.mk_and2(a, m.mk_or2(b, c));
  const ExprId g = m.mk_and2(c, m.mk_or2(a, b));
  EXPECT_TRUE(m.equivalent(m.simplify(f), f));
  EXPECT_TRUE(m.equivalent(m.simplify(g), g));
  EXPECT_EQ(m.n_qm_minimized(), 2u);
  EXPECT_TRUE(m.equivalent(m.simplify(g), g));
  EXPECT_EQ(m.n_qm_minimized(), 2u);
  EXPECT_EQ(m.n_simplified(), 3u);
}

// --- unique table ----------------------------------------------------------------

TEST(UniqueTable, HashConsingSurvivesGrowth) {
  Manager m;
  struct Made {
    int op;
    ExprId x;
    ExprId y;
    ExprId id;
  };
  std::vector<Made> early;
  util::Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const ExprId x = m.var(static_cast<std::uint32_t>(rng.next_below(40)));
    const ExprId y = m.var(static_cast<std::uint32_t>(rng.next_below(40)));
    const int op = static_cast<int>(rng.next_below(3));
    const ExprId id = op == 0 ? m.mk_and2(x, m.mk_not(y))
                      : op == 1 ? m.mk_or2(m.mk_not(x), y)
                                : m.mk_not(m.mk_and2(x, y));
    early.push_back({op, x, y, id});
  }
  const std::size_t before = m.n_nodes();
  for (std::uint32_t i = 0; i < 200000; ++i) {
    (void)m.mk_and2(m.var(1000 + i), m.var(1000 + i + 1));
  }
  ASSERT_GT(m.n_nodes(), before + 200000);
  const std::size_t after = m.n_nodes();
  for (const Made& made : early) {
    const ExprId again = made.op == 0 ? m.mk_and2(made.x, m.mk_not(made.y))
                         : made.op == 1 ? m.mk_or2(m.mk_not(made.x), made.y)
                                        : m.mk_not(m.mk_and2(made.x, made.y));
    EXPECT_EQ(again, made.id);
  }
  EXPECT_EQ(m.n_nodes(), after);  // nothing new was interned
  EXPECT_EQ(m.mk_and2(m.var(1000), m.var(1001)), m.mk_and2(m.var(1001), m.var(1000)));
  EXPECT_EQ(m.n_nodes(), after);
}

// --- epoch-stamped queries vs brute force --------------------------------------

TEST(ExprQueries, AgreeWithBruteForceOnRandomDags) {
  util::Rng rng(31337);
  Manager m;  // one Manager across trials: scratch is reused throughout
  // Sparse variable indices so var-indexed scratch has gaps.
  const std::vector<std::uint32_t> vars{0, 3, 4, 9, 17, 18, 25, 40};
  std::vector<ExprId> built;
  for (int trial = 0; trial < 80; ++trial) {
    std::vector<ExprId> pool;
    const std::size_t n_leaves = 2 + rng.next_below(5);
    for (std::size_t i = 0; i < n_leaves; ++i) {
      pool.push_back(m.var(vars[rng.next_below(vars.size())]));
    }
    for (int step = 0; step < 12; ++step) {
      const ExprId x = pool[rng.next_below(pool.size())];
      const ExprId y = pool[rng.next_below(pool.size())];
      const ExprId z = pool[rng.next_below(pool.size())];
      switch (rng.next_below(5)) {
        case 0:
          pool.push_back(m.mk_and({x, y, z}));
          break;
        case 1:
          pool.push_back(m.mk_or2(x, y));
          break;
        case 2:
          pool.push_back(m.mk_xor2(x, y));
          break;
        case 3:
          pool.push_back(m.negate(x));
          break;
        default:
          pool.push_back(m.mk_not(x));
          break;
      }
    }
    const ExprId e = pool.back();
    built.push_back(e);

    // Brute-force structural support by recursion over children().
    std::set<std::uint32_t> expected;
    const std::function<void(ExprId)> walk = [&](ExprId id) {
      if (m.kind(id) == Kind::kVar) expected.insert(m.var_index(id));
      for (const ExprId c : m.children(id)) walk(c);
    };
    walk(e);
    const std::vector<std::uint32_t> support = m.support(e);
    EXPECT_EQ(support, std::vector<std::uint32_t>(expected.begin(), expected.end()));
    EXPECT_EQ(m.support(e), support);  // repeat: same scratch, same answer

    // Truth table over the full variable list (a superset of the support)
    // and over the exact support, both against eval().
    const TruthTable full = m.truth_table(e, vars);
    const TruthTable exact = m.truth_table(e, support);
    std::vector<std::uint8_t> assignment(vars.back() + 1, 0);
    for (std::uint64_t row = 0; row < full.n_rows(); ++row) {
      for (std::size_t j = 0; j < vars.size(); ++j) {
        assignment[vars[j]] = static_cast<std::uint8_t>((row >> j) & 1);
      }
      const bool value = m.eval(e, assignment);
      ASSERT_EQ(full.get(row), value) << "trial " << trial << " row " << row;
      std::uint64_t exact_row = 0;
      for (std::size_t j = 0; j < support.size(); ++j) {
        exact_row |= std::uint64_t{assignment[support[j]]} << j;
      }
      ASSERT_EQ(exact.get(exact_row), value) << "trial " << trial;
    }
    EXPECT_EQ(m.truth_table(e, vars), full);

    // equivalent() against pairwise brute-force comparison with every
    // earlier expression (and with e's complement).
    for (const ExprId other : built) {
      bool same = true;
      for (std::uint64_t row = 0; row < full.n_rows() && same; ++row) {
        for (std::size_t j = 0; j < vars.size(); ++j) {
          assignment[vars[j]] = static_cast<std::uint8_t>((row >> j) & 1);
        }
        same = m.eval(e, assignment) == m.eval(other, assignment);
      }
      EXPECT_EQ(m.equivalent(e, other), same) << "trial " << trial;
    }
    EXPECT_TRUE(m.complementary(e, m.mk_not(e)));
    EXPECT_FALSE(m.equivalent(e, m.mk_not(e)));
  }
}

}  // namespace
}  // namespace hts::expr
