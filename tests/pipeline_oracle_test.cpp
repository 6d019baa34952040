//===- tests/pipeline_oracle_test.cpp - Pipeline vs its reference ---------===//
//
// Differential tests of steps C-E: Pipeline::run(), runWithClustering()
// and buildPoints() must equal referencePipelineRun() field for field,
// and hierarchicalCluster() must equal the reference clusterer merge for
// merge, with every double compared bit for bit, over the NR, NAS and
// default synthetic databases, hundreds of feature masks and every
// ablation toggle and linkage.  Also the Table 2 GA golden: a reduced GA over the
// NR database must reproduce the pinned best mask, fitness history and
// evaluation count at one and at four fitness threads.
//
//===----------------------------------------------------------------------===//

#include "fgbs/core/ReferencePipeline.h"

#include "fgbs/ga/GeneticAlgorithm.h"
#include "fgbs/suites/Suites.h"
#include "fgbs/suites/Synthetic.h"
#include "fgbs/support/Rng.h"
#include "fgbs/support/Sha256.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>

using namespace fgbs;

namespace {

struct Study {
  Suite TheSuite;
  std::unique_ptr<MeasurementDatabase> Db;

  Study(Suite S, std::vector<Machine> Targets) : TheSuite(std::move(S)) {
    Db = std::make_unique<MeasurementDatabase>(TheSuite, makeNehalem(),
                                               std::move(Targets));
  }
};

const MeasurementDatabase &nrDatabase() {
  static Study S(makeNumericalRecipes(), paperTargets());
  return *S.Db;
}

std::uint64_t bitsOf(double V) {
  std::uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return Bits;
}

void expectSameBits(double Want, double Got, const std::string &What) {
  EXPECT_EQ(bitsOf(Want), bitsOf(Got))
      << What << ": " << Want << " vs " << Got;
}

void expectSameBits(const std::vector<double> &Want,
                    const std::vector<double> &Got, const std::string &What) {
  ASSERT_EQ(Want.size(), Got.size()) << What;
  for (std::size_t I = 0; I < Want.size(); ++I)
    expectSameBits(Want[I], Got[I], What + "[" + std::to_string(I) + "]");
}

/// Every field of \p Got equals \p Want; doubles compare bitwise.
void expectSameResult(const PipelineResult &Want, const PipelineResult &Got,
                      const std::string &Where) {
  SCOPED_TRACE(Where);
  EXPECT_EQ(Want.Kept, Got.Kept);
  ASSERT_EQ(Want.Points.size(), Got.Points.size());
  for (std::size_t I = 0; I < Want.Points.size(); ++I)
    expectSameBits(Want.Points[I], Got.Points[I],
                   "Points[" + std::to_string(I) + "]");
  EXPECT_EQ(Want.Mask, Got.Mask);
  expectSameBits(Want.Norm.Mean, Got.Norm.Mean, "Norm.Mean");
  expectSameBits(Want.Norm.Std, Got.Norm.Std, "Norm.Std");
  EXPECT_EQ(Want.ElbowK, Got.ElbowK);
  EXPECT_EQ(Want.InitialK, Got.InitialK);
  EXPECT_EQ(Want.Initial.K, Got.Initial.K);
  EXPECT_EQ(Want.Initial.Assignment, Got.Initial.Assignment);
  EXPECT_EQ(Want.Selection.Assignment, Got.Selection.Assignment);
  EXPECT_EQ(Want.Selection.Representatives, Got.Selection.Representatives);
  EXPECT_EQ(Want.Selection.IllBehaved, Got.Selection.IllBehaved);
  EXPECT_EQ(Want.Selection.FinalK, Got.Selection.FinalK);

  const Matrix &MW = Want.Model.matrix();
  const Matrix &MG = Got.Model.matrix();
  ASSERT_EQ(MW.rows(), MG.rows());
  ASSERT_EQ(MW.cols(), MG.cols());
  for (std::size_t R = 0; R < MW.rows(); ++R)
    for (std::size_t C = 0; C < MW.cols(); ++C)
      expectSameBits(MW.at(R, C), MG.at(R, C), "Model");
  EXPECT_EQ(Want.Model.representatives(), Got.Model.representatives());
  EXPECT_EQ(Want.Model.assignment(), Got.Model.assignment());

  ASSERT_EQ(Want.Targets.size(), Got.Targets.size());
  for (std::size_t T = 0; T < Want.Targets.size(); ++T) {
    const TargetEvaluation &A = Want.Targets[T];
    const TargetEvaluation &B = Got.Targets[T];
    SCOPED_TRACE(A.MachineName);
    EXPECT_EQ(A.MachineName, B.MachineName);
    expectSameBits(A.Predicted, B.Predicted, "Predicted");
    expectSameBits(A.Real, B.Real, "Real");
    expectSameBits(A.ErrorsPercent, B.ErrorsPercent, "ErrorsPercent");
    expectSameBits(A.MedianErrorPercent, B.MedianErrorPercent, "Median");
    expectSameBits(A.AverageErrorPercent, B.AverageErrorPercent, "Average");
    expectSameBits(A.Reduction.FullSuiteSeconds, B.Reduction.FullSuiteSeconds,
                   "FullSuiteSeconds");
    expectSameBits(A.Reduction.ReducedInvocationSeconds,
                   B.Reduction.ReducedInvocationSeconds,
                   "ReducedInvocationSeconds");
    expectSameBits(A.Reduction.RepresentativeSeconds,
                   B.Reduction.RepresentativeSeconds, "RepresentativeSeconds");
    EXPECT_EQ(A.AppNames, B.AppNames);
    expectSameBits(A.AppReference, B.AppReference, "AppReference");
    expectSameBits(A.AppReal, B.AppReal, "AppReal");
    expectSameBits(A.AppPredicted, B.AppPredicted, "AppPredicted");
    expectSameBits(A.RealGeomeanSpeedup, B.RealGeomeanSpeedup,
                   "RealGeomeanSpeedup");
    expectSameBits(A.PredictedGeomeanSpeedup, B.PredictedGeomeanSpeedup,
                   "PredictedGeomeanSpeedup");
  }
}

std::string maskText(const FeatureMask &Mask) {
  std::string Text;
  for (bool Bit : Mask)
    Text += Bit ? '1' : '0';
  return Text;
}

/// run(), runWithClustering(), buildPoints() and the dendrogram against
/// the reference.
void checkConfig(const MeasurementDatabase &Db, const PipelineConfig &Cfg,
                 const std::string &Label) {
  std::string Where = Label + " mask " + maskText(Cfg.Features) +
                      " K=" + std::to_string(Cfg.K) + " linkage " +
                      std::to_string(static_cast<int>(Cfg.LinkageMethod)) +
                      " normalize " + std::to_string(Cfg.Normalize) +
                      " reselect " + std::to_string(Cfg.ReSelectIllBehaved) +
                      " medoid " + std::to_string(Cfg.MedoidRepresentative);
  PipelineResult Want = referencePipelineRun(Db, Cfg);
  Pipeline P(Db, Cfg);
  expectSameResult(Want, P.run(), Where + " run()");

  PipelineResult Clustered = P.runWithClustering(Want.Initial);
  Want.ElbowK = 0; // runWithClustering reports no elbow choice.
  expectSameResult(Want, Clustered, Where + " runWithClustering()");

  FeatureTable Points = P.buildPoints();
  ASSERT_EQ(Points.size(), Want.Points.size()) << Where;
  for (std::size_t I = 0; I < Points.size(); ++I)
    expectSameBits(Want.Points[I], Points[I], Where + " buildPoints()");

  // The dendrogram itself: a result only shows the cut, but the merge
  // heights expose every rounding difference in the distances.  It
  // depends only on the points and the linkage, so one configuration per
  // (mask, Normalize, linkage) checks it.
  if (Cfg.K != 0 || !Cfg.ReSelectIllBehaved || !Cfg.MedoidRepresentative)
    return;
  const std::vector<MergeStep> WantMerges =
      referenceHierarchicalCluster(Want.Points, Cfg.LinkageMethod).merges();
  const std::vector<MergeStep> GotMerges =
      hierarchicalCluster(Want.Points, Cfg.LinkageMethod).merges();
  ASSERT_EQ(WantMerges.size(), GotMerges.size()) << Where;
  for (std::size_t M = 0; M < WantMerges.size(); ++M) {
    std::string Merge = Where + " merge " + std::to_string(M);
    EXPECT_EQ(WantMerges[M].Left, GotMerges[M].Left) << Merge;
    EXPECT_EQ(WantMerges[M].Right, GotMerges[M].Right) << Merge;
    EXPECT_EQ(WantMerges[M].Size, GotMerges[M].Size) << Merge;
    expectSameBits(WantMerges[M].Height, GotMerges[M].Height, Merge);
  }
}

/// 200 seeded random masks, the Table 2 mask, all features, and every
/// single-feature mask.
std::vector<FeatureMask> oracleMasks() {
  std::vector<FeatureMask> Masks;
  Rng R(0x0AC1E);
  while (Masks.size() < 200) {
    FeatureMask M(NumFeatures);
    for (std::size_t F = 0; F < NumFeatures; ++F)
      M[F] = R.bernoulli(0.5);
    if (maskCount(M) > 0)
      Masks.push_back(std::move(M));
  }
  Masks.push_back(maskForNames(kTable2FeatureNames));
  Masks.push_back(allFeaturesMask());
  for (std::size_t F = 0; F < NumFeatures; ++F) {
    FeatureMask M(NumFeatures, false);
    M[F] = true;
    Masks.push_back(std::move(M));
  }
  return Masks;
}

/// The 64 combinations of the ablation toggles, fixed K vs elbow, and
/// the four linkages.
std::vector<PipelineConfig> configGrid() {
  std::vector<PipelineConfig> Grid;
  for (Linkage L : {Linkage::Ward, Linkage::Single, Linkage::Complete,
                    Linkage::Average})
    for (unsigned K : {0u, 5u})
      for (bool Normalize : {true, false})
        for (bool ReSelect : {true, false})
          for (bool Medoid : {true, false}) {
            PipelineConfig Cfg;
            Cfg.LinkageMethod = L;
            Cfg.K = K;
            Cfg.Normalize = Normalize;
            Cfg.ReSelectIllBehaved = ReSelect;
            Cfg.MedoidRepresentative = Medoid;
            Grid.push_back(Cfg);
          }
  return Grid;
}

/// Every mask under the default configuration and under one grid
/// configuration (rotating through the grid, so each configuration
/// meets four or five masks), plus the full grid on the Table 2 mask,
/// all features, the first single feature and the first random mask.
void checkDatabase(const MeasurementDatabase &Db, const std::string &Label) {
  std::vector<FeatureMask> Masks = oracleMasks();
  std::vector<PipelineConfig> Grid = configGrid();
  for (std::size_t I = 0; I < Masks.size(); ++I) {
    PipelineConfig Default;
    Default.Features = Masks[I];
    checkConfig(Db, Default, Label);
    PipelineConfig Rotated = Grid[I % Grid.size()];
    Rotated.Features = Masks[I];
    checkConfig(Db, Rotated, Label);
    if (testing::Test::HasFailure())
      return;
  }
  const std::size_t Full[] = {200, 201, 202, 0};
  for (std::size_t I : Full)
    for (PipelineConfig Cfg : Grid) {
      Cfg.Features = Masks[I];
      checkConfig(Db, Cfg, Label);
      if (testing::Test::HasFailure())
        return;
    }
}

} // namespace

TEST(PipelineOracle, NumericalRecipes) {
  const MeasurementDatabase &Db = nrDatabase();
  // The derived inputs are the database's own values, in kept order.
  const PipelineInputs &In = Db.pipelineInputs();
  EXPECT_EQ(In.Kept, Db.keptCodelets());
  ASSERT_EQ(In.RawFeatures.size(), In.Kept.size() * NumFeatures);
  for (std::size_t I = 0; I < In.Kept.size(); ++I) {
    std::vector<double> Row(In.RawFeatures.begin() + I * NumFeatures,
                            In.RawFeatures.begin() + (I + 1) * NumFeatures);
    expectSameBits(Db.profile(In.Kept[I]).Features, Row, "RawFeatures");
    EXPECT_EQ(In.WellBehaved[I] != 0, Db.isWellBehavedOnRef(In.Kept[I]));
    for (std::size_t T = 0; T < Db.targets().size(); ++T)
      expectSameBits(Db.realTargetSeconds(In.Kept[I], T),
                     In.Targets[T].RealSeconds[I], "RealSeconds");
  }
  checkDatabase(Db, "NR");
}

TEST(PipelineOracle, NasSer) {
  // One target: NAS's 67 codelets make it the costliest database to
  // simulate under the sanitizer build, and NR and the synthetic suite
  // cover the per-target evaluation with three.
  Study Nas(makeNasSer(), {makeSandyBridge()});
  checkDatabase(*Nas.Db, "NAS");
}

TEST(PipelineOracle, DefaultSyntheticSuite) {
  Study Synthetic(makeSyntheticSuite(), paperTargets());
  checkDatabase(*Synthetic.Db, "synthetic");
}

namespace {

/// SHA-256 over the best mask, the best-fitness history (exact hex
/// floats) and the evaluation count, as perfbench's select workload
/// digests a GA.
std::string gaDigest(const GaResult &R) {
  std::string Text = "mask:";
  for (bool Bit : R.Best)
    Text += Bit ? '1' : '0';
  Text += "\nhistory:";
  char Buf[40];
  for (double V : R.BestHistory) {
    std::snprintf(Buf, sizeof(Buf), "%a,", V);
    Text += Buf;
  }
  Text += "\nevaluations:" + std::to_string(R.Evaluations) + "\n";
  return sha256Hex(Text);
}

} // namespace

TEST(PipelineGolden, Table2GaOnNumericalRecipes) {
  // The paper's Table 2 fitness, max(err Atom, err Sandy Bridge) x K, at
  // a reduced size: population 200, 15 generations, seed 1.  The pinned
  // values are what the pipeline produced before it read the database's
  // derived inputs; any change to a fitness value moves the digest.
  const MeasurementDatabase &Db = nrDatabase();
  auto Fitness = [&Db](const Chromosome &C) {
    FeatureMask Mask(C.begin(), C.end());
    if (maskCount(Mask) == 0)
      return 1e12;
    PipelineConfig Cfg;
    Cfg.Features = Mask;
    PipelineResult R = Pipeline(Db, Cfg).run();
    double ErrAtom = 0.0;
    double ErrSb = 0.0;
    for (const TargetEvaluation &E : R.Targets) {
      if (E.MachineName == "Atom")
        ErrAtom = E.AverageErrorPercent;
      if (E.MachineName == "Sandy Bridge")
        ErrSb = E.AverageErrorPercent;
    }
    return std::max(ErrAtom, ErrSb) * static_cast<double>(R.Selection.FinalK);
  };
  const char *const GoldenDigest =
      "7bd84b8b92a54152ec7e77e8e4bfe6d08ea8e1b4cc7deab1a00c4505f95069b9";
  for (unsigned Threads : {1u, 4u}) {
    GaConfig Cfg;
    Cfg.ChromosomeLength = NumFeatures;
    Cfg.PopulationSize = 200;
    Cfg.Generations = 15;
    Cfg.MutationProbability = 0.01;
    Cfg.Seed = 1;
    Cfg.Threads = Threads;
    GaResult R = runGa(Cfg, Fitness);
    SCOPED_TRACE("threads " + std::to_string(Threads));
    EXPECT_EQ(R.Evaluations, 2430u);
    EXPECT_EQ(gaDigest(R), GoldenDigest);
  }
}
