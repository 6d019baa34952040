//===- tests/ga_test.cpp - Genetic algorithm --------------- --------------===//

#include "fgbs/ga/GeneticAlgorithm.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>

using namespace fgbs;

namespace {

/// OneMax (minimized): number of zero bits.  Optimum is the all-ones
/// chromosome with fitness 0.
double oneMax(const Chromosome &C) {
  double Zeros = 0.0;
  for (bool Bit : C)
    Zeros += !Bit;
  return Zeros;
}

GaConfig smallConfig() {
  GaConfig Cfg;
  Cfg.ChromosomeLength = 32;
  Cfg.PopulationSize = 60;
  Cfg.Generations = 60;
  Cfg.MutationProbability = 0.01;
  Cfg.Seed = 7;
  return Cfg;
}

} // namespace

TEST(Ga, SolvesOneMax) {
  GaResult R = runGa(smallConfig(), oneMax);
  EXPECT_LE(R.BestFitness, 1.0); // At most one bit short of optimal.
  EXPECT_EQ(R.Best.size(), 32u);
}

TEST(Ga, DeterministicBySeed) {
  GaResult A = runGa(smallConfig(), oneMax);
  GaResult B = runGa(smallConfig(), oneMax);
  EXPECT_EQ(A.Best, B.Best);
  EXPECT_DOUBLE_EQ(A.BestFitness, B.BestFitness);
  EXPECT_EQ(A.BestHistory, B.BestHistory);
}

TEST(Ga, DifferentSeedsExploreDifferently) {
  GaConfig Cfg = smallConfig();
  GaResult A = runGa(Cfg, oneMax);
  Cfg.Seed = 999;
  GaResult B = runGa(Cfg, oneMax);
  // Both near-optimal, but the paths differ.
  EXPECT_NE(A.BestHistory, B.BestHistory);
}

TEST(Ga, BestNeverWorsens) {
  GaResult R = runGa(smallConfig(), oneMax);
  for (std::size_t I = 1; I < R.BestHistory.size(); ++I)
    EXPECT_LE(R.BestHistory[I], R.BestHistory[I - 1]);
}

TEST(Ga, HistoryLengthMatchesGenerations) {
  GaConfig Cfg = smallConfig();
  Cfg.Generations = 25;
  GaResult R = runGa(Cfg, oneMax);
  EXPECT_EQ(R.BestHistory.size(), 25u);
  EXPECT_LT(R.ConvergedAtGeneration, 25u);
}

TEST(Ga, CachingReducesEvaluations) {
  GaConfig Cached = smallConfig();
  GaConfig Uncached = smallConfig();
  Uncached.CacheFitness = false;
  GaResult A = runGa(Cached, oneMax);
  GaResult B = runGa(Uncached, oneMax);
  EXPECT_LT(A.Evaluations, B.Evaluations);
  // Uncached evaluates every individual every generation.
  EXPECT_EQ(B.Evaluations, 60ull * 60ull);
  // Caching must not change the outcome.
  EXPECT_EQ(A.Best, B.Best);
}

TEST(Ga, RespectsChromosomeLength) {
  GaConfig Cfg = smallConfig();
  Cfg.ChromosomeLength = 5;
  GaResult R = runGa(Cfg, oneMax);
  EXPECT_EQ(R.Best.size(), 5u);
  EXPECT_DOUBLE_EQ(R.BestFitness, 0.0); // Trivial to solve.
}

TEST(Ga, MinimizesNotMaximizes) {
  // Fitness = number of ONE bits; the GA should drive toward all-zero.
  GaResult R = runGa(smallConfig(), [](const Chromosome &C) {
    double Ones = 0.0;
    for (bool Bit : C)
      Ones += Bit;
    return Ones;
  });
  EXPECT_LE(R.BestFitness, 1.0);
}

TEST(Ga, ThreadCountDoesNotChangeResults) {
  // The generation-parallel fitness fan-out must be invisible in the
  // output: Threads=4 equals the strictly serial Threads=1 run exactly.
  GaConfig Serial = smallConfig();
  Serial.Threads = 1;
  GaConfig Parallel = smallConfig();
  Parallel.Threads = 4;
  GaResult A = runGa(Serial, oneMax);
  GaResult B = runGa(Parallel, oneMax);
  EXPECT_EQ(A.Best, B.Best);
  EXPECT_DOUBLE_EQ(A.BestFitness, B.BestFitness);
  EXPECT_EQ(A.BestHistory, B.BestHistory);
  EXPECT_EQ(A.Evaluations, B.Evaluations);
  EXPECT_EQ(A.ConvergedAtGeneration, B.ConvergedAtGeneration);
}

TEST(Ga, ThreadCountDoesNotChangeResultsUncached) {
  GaConfig Serial = smallConfig();
  Serial.Threads = 1;
  Serial.CacheFitness = false;
  GaConfig Parallel = Serial;
  Parallel.Threads = 4;
  GaResult A = runGa(Serial, oneMax);
  GaResult B = runGa(Parallel, oneMax);
  EXPECT_EQ(A.Best, B.Best);
  EXPECT_EQ(A.BestHistory, B.BestHistory);
  EXPECT_EQ(A.Evaluations, B.Evaluations);
}

TEST(ChromosomeHash, AdjacentBitSwapsDiffer) {
  // The old additive mixing (bit + (index << 1)) collided whenever two
  // adjacent bits swapped values.  The packed-word hash must not.
  for (std::size_t Length : {8u, 64u, 65u, 76u, 128u}) {
    Chromosome Base(Length, false);
    for (std::size_t I = 0; I + 1 < Length; ++I) {
      Chromosome A = Base;
      Chromosome B = Base;
      A[I] = true;     // ...10...
      B[I + 1] = true; // ...01...
      EXPECT_NE(hashChromosome(A), hashChromosome(B))
          << "length " << Length << " position " << I;
    }
  }
}

TEST(ChromosomeHash, SmokeNoCollisionsOverSmallSpace) {
  // All 2^14 chromosomes of length 14 must hash distinctly (a 64-bit
  // hash colliding in a 16k set means the mixing is broken).
  std::set<std::uint64_t> Seen;
  for (unsigned Bits = 0; Bits < (1u << 14); ++Bits) {
    Chromosome C(14);
    for (std::size_t I = 0; I < 14; ++I)
      C[I] = (Bits >> I) & 1u;
    Seen.insert(hashChromosome(C));
  }
  EXPECT_EQ(Seen.size(), 1u << 14);
}

TEST(ChromosomeHash, LengthIsPartOfTheHash) {
  Chromosome Short(64, false);
  Chromosome Long(65, false);
  EXPECT_NE(hashChromosome(Short), hashChromosome(Long));
}

TEST(Ga, PenalizedEmptySelectionAvoided) {
  // Feature-selection-style fitness: empty chromosomes are infeasible.
  GaResult R = runGa(smallConfig(), [](const Chromosome &C) {
    double Count = 0.0;
    for (bool Bit : C)
      Count += Bit;
    if (Count == 0.0)
      return 1e9;
    return Count; // Prefer FEW features, but not zero.
  });
  double Count = 0.0;
  for (bool Bit : R.Best)
    Count += Bit;
  EXPECT_EQ(Count, 1.0);
}

TEST(ChromosomeHash, PackedWordsKeepTheHash) {
  // The memo hashes chromosomes packed into 64-bit words; the values are
  // those of the bit-at-a-time hash they replaced.
  const std::pair<std::size_t, std::uint64_t> Pinned[] = {
      {0, 0xe220a8397b1dcdafULL},  {1, 0x73200bd2fbf13fa7ULL},
      {64, 0xe2f6343b081f6e35ULL}, {76, 0x0225cc78db0f3ea2ULL},
      {130, 0xc6bef8046c0524ccULL}};
  for (const auto &[Length, Hash] : Pinned) {
    Chromosome C(Length);
    for (std::size_t I = 0; I < Length; ++I)
      C[I] = (I * 7 + 3) % 5 < 2;
    EXPECT_EQ(hashChromosome(C), Hash) << Length << " bits";
  }
}

TEST(Ga, MemoMatchesUncachedRunAcrossWords) {
  // A three-word chromosome: the packed memo must return exactly the
  // fitness an uncached run recomputes.
  GaConfig Cfg = smallConfig();
  Cfg.ChromosomeLength = 130;
  Cfg.Generations = 20;
  GaResult Cached = runGa(Cfg, oneMax);
  Cfg.CacheFitness = false;
  GaResult Uncached = runGa(Cfg, oneMax);
  EXPECT_EQ(Cached.Best, Uncached.Best);
  EXPECT_EQ(Cached.BestHistory, Uncached.BestHistory);
  EXPECT_LT(Cached.Evaluations, Uncached.Evaluations);
}

TEST(Ga, EliteFractionIsClamped) {
  // Above 1 the whole population survives unbred (no read past its end);
  // below 0 a single elite does.  Both must run cleanly under ASan/UBSan.
  GaConfig Cfg = smallConfig();
  Cfg.EliteFraction = 1.5;
  GaResult All = runGa(Cfg, oneMax);
  ASSERT_EQ(All.BestHistory.size(), Cfg.Generations);
  EXPECT_EQ(All.BestHistory.front(), All.BestHistory.back());
  EXPECT_LE(All.Evaluations, Cfg.PopulationSize); // One generation's worth.

  Cfg.EliteFraction = -0.5;
  GaResult One = runGa(Cfg, oneMax);
  ASSERT_EQ(One.BestHistory.size(), Cfg.Generations);
  EXPECT_LE(One.BestHistory.back(), One.BestHistory.front());
}
