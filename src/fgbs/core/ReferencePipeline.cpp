//===- fgbs/core/ReferencePipeline.cpp - Reference steps C-E --------------===//

#include "fgbs/core/ReferencePipeline.h"

#include "fgbs/support/Matrix.h"
#include "fgbs/support/Statistics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <utility>

using namespace fgbs;

namespace {

//===----------------------------------------------------------------------===//
// Step C: nearest-neighbor-chain clustering over a condensed matrix
//===----------------------------------------------------------------------===//

/// Index of the (I, J) entry (I != J) in a condensed upper-triangular
/// distance matrix over N points.
std::size_t condensedIndex(std::size_t N, std::size_t I, std::size_t J) {
  if (I > J)
    std::swap(I, J);
  return I * (2 * N - I - 1) / 2 + (J - I - 1);
}

double lanceWilliams(Linkage Method, double DIK, double DJK, double DIJ,
                     double NI, double NJ, double NK) {
  switch (Method) {
  case Linkage::Ward:
    return ((NI + NK) * DIK + (NJ + NK) * DJK - NK * DIJ) / (NI + NJ + NK);
  case Linkage::Single:
    return std::min(DIK, DJK);
  case Linkage::Complete:
    return std::max(DIK, DJK);
  case Linkage::Average:
    return (NI * DIK + NJ * DJK) / (NI + NJ);
  }
  return 0.0; // Unreachable; silences -Wreturn-type.
}

struct RawMerge {
  std::size_t A;
  std::size_t B;
  double Dist;
};

std::vector<MergeStep> canonicalize(std::size_t N, std::vector<RawMerge> Raw,
                                    bool Squared) {
  std::vector<std::size_t> Order(Raw.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(),
                   [&Raw](std::size_t X, std::size_t Y) {
                     return Raw[X].Dist < Raw[Y].Dist;
                   });

  std::vector<std::size_t> Parent(N);
  std::iota(Parent.begin(), Parent.end(), 0);
  auto Find = [&Parent](std::size_t X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  };
  std::vector<int> Node(N);
  std::iota(Node.begin(), Node.end(), 0);
  std::vector<unsigned> Size(N, 1);

  std::vector<MergeStep> Merges;
  Merges.reserve(Raw.size());
  for (std::size_t Index : Order) {
    std::size_t RootA = Find(Raw[Index].A);
    std::size_t RootB = Find(Raw[Index].B);
    std::size_t Lo = std::min(RootA, RootB);
    std::size_t Hi = std::max(RootA, RootB);
    double Height =
        Squared ? std::sqrt(std::max(0.0, Raw[Index].Dist)) : Raw[Index].Dist;
    Merges.push_back({Node[Lo], Node[Hi], Height, Size[Lo] + Size[Hi]});
    Parent[Hi] = Lo;
    Node[Lo] = static_cast<int>(N + Merges.size() - 1);
    Size[Lo] += Size[Hi];
  }
  return Merges;
}

} // namespace

Dendrogram fgbs::referenceHierarchicalCluster(const FeatureTable &Points,
                                              Linkage Method) {
  std::size_t N = Points.size();
  assert(N > 0 && "clustering an empty table");
  if (N == 1)
    return Dendrogram(1, {});

  bool Squared = Method == Linkage::Ward;
  std::vector<double> Dist(N * (N - 1) / 2);
  std::size_t Next = 0;
  for (std::size_t I = 0; I < N; ++I)
    for (std::size_t J = I + 1; J < N; ++J) {
      double D2 = squaredDistance(Points[I], Points[J]);
      Dist[Next++] = Squared ? D2 : std::sqrt(D2);
    }

  std::vector<bool> Active(N, true);
  std::vector<double> Size(N, 1.0);
  std::vector<std::size_t> Chain;
  Chain.reserve(N);
  std::vector<RawMerge> Raw;
  Raw.reserve(N - 1);
  std::size_t Seed = 0;

  while (Raw.size() + 1 < N) {
    if (Chain.empty()) {
      while (!Active[Seed])
        ++Seed;
      Chain.push_back(Seed);
    }
    std::size_t Top = Chain.back();

    // Nearest active neighbor of Top; prefer the chain predecessor on
    // ties, then the lowest slot.
    std::size_t Nearest = SIZE_MAX;
    double Best = std::numeric_limits<double>::infinity();
    if (Chain.size() >= 2) {
      Nearest = Chain[Chain.size() - 2];
      Best = Dist[condensedIndex(N, Top, Nearest)];
    }
    for (std::size_t K = 0; K < N; ++K) {
      if (!Active[K] || K == Top)
        continue;
      double D = Dist[condensedIndex(N, Top, K)];
      if (D < Best) {
        Best = D;
        Nearest = K;
      }
    }

    if (Chain.size() >= 2 && Nearest == Chain[Chain.size() - 2]) {
      Chain.pop_back();
      Chain.pop_back();
      std::size_t Lo = std::min(Top, Nearest);
      std::size_t Hi = std::max(Top, Nearest);
      double NI = Size[Lo];
      double NJ = Size[Hi];
      for (std::size_t K = 0; K < N; ++K) {
        if (!Active[K] || K == Lo || K == Hi)
          continue;
        Dist[condensedIndex(N, Lo, K)] =
            lanceWilliams(Method, Dist[condensedIndex(N, Lo, K)],
                          Dist[condensedIndex(N, Hi, K)], Best, NI, NJ,
                          Size[K]);
      }
      Raw.push_back({Lo, Hi, Best});
      Size[Lo] += Size[Hi];
      Active[Hi] = false;
    } else {
      Chain.push_back(Nearest);
    }
  }
  return Dendrogram(N, canonicalize(N, std::move(Raw), Squared));
}

namespace {

unsigned referenceElbowK(const FeatureTable &Points, const Dendrogram &Tree,
                         unsigned MaxK, double Threshold) {
  std::size_t N = Points.size();
  MaxK = std::min<unsigned>(MaxK, static_cast<unsigned>(N));
  if (MaxK <= 1)
    return 1;

  double Tss = totalVariance(Points);
  if (Tss <= 0.0)
    return 1;

  const std::vector<MergeStep> &Merges = Tree.merges();
  std::size_t Dim = Points.front().size();
  std::vector<std::vector<double>> SumOf(N + Merges.size());
  std::vector<double> CountOf(N + Merges.size(), 0.0);
  for (std::size_t I = 0; I < N; ++I) {
    SumOf[I] = Points[I];
    CountOf[I] = 1.0;
  }

  std::vector<double> WssAt(MaxK + 1, 0.0);
  double Wss = 0.0;
  for (std::size_t Step = 0; Step < Merges.size(); ++Step) {
    const MergeStep &M = Merges[Step];
    std::vector<double> &Left = SumOf[static_cast<std::size_t>(M.Left)];
    std::vector<double> &Right = SumOf[static_cast<std::size_t>(M.Right)];
    double NL = CountOf[static_cast<std::size_t>(M.Left)];
    double NR = CountOf[static_cast<std::size_t>(M.Right)];
    double Gap = 0.0;
    for (std::size_t D = 0; D < Dim; ++D) {
      double Diff = Left[D] / NL - Right[D] / NR;
      Gap += Diff * Diff;
    }
    Wss += NL * NR / (NL + NR) * Gap;

    std::size_t Node = N + Step;
    SumOf[Node] = std::move(Left);
    for (std::size_t D = 0; D < Dim; ++D)
      SumOf[Node][D] += Right[D];
    Right.clear();
    Right.shrink_to_fit();
    CountOf[Node] = NL + NR;

    std::size_t K = N - Step - 1;
    if (K <= MaxK)
      WssAt[K] = Wss;
  }

  double Previous = Tss;
  for (unsigned K = 2; K <= MaxK; ++K) {
    double Gain = Previous - WssAt[K];
    if (Gain < Threshold * Tss)
      return K - 1;
    Previous = WssAt[K];
  }
  return MaxK;
}

//===----------------------------------------------------------------------===//
// Step D: representative selection
//===----------------------------------------------------------------------===//

SelectionResult
referenceSelect(const FeatureTable &Points, const Clustering &Initial,
                const std::function<bool(std::size_t)> &WellBehaved,
                bool PreferMedoid) {
  SelectionResult Result;
  Result.Assignment = Initial.Assignment;

  std::vector<std::vector<std::size_t>> Members = Initial.members();
  std::vector<bool> IllBehavedFlag(Points.size(), false);

  std::vector<long> ClusterRep(Members.size(), -1); // -1 = destroyed.
  for (std::size_t Cl = 0; Cl < Members.size(); ++Cl) {
    const std::vector<std::size_t> &M = Members[Cl];
    if (M.empty())
      continue;
    std::vector<double> Centroid = centroidOf(Points, M);
    std::vector<std::size_t> Order(M.size());
    for (std::size_t I = 0; I < M.size(); ++I)
      Order[I] = I;
    if (PreferMedoid)
      std::stable_sort(Order.begin(), Order.end(),
                       [&](std::size_t A, std::size_t B) {
                         return squaredDistance(Points[M[A]], Centroid) <
                                squaredDistance(Points[M[B]], Centroid);
                       });
    for (std::size_t I : Order) {
      std::size_t Candidate = M[I];
      if (WellBehaved(Candidate)) {
        ClusterRep[Cl] = static_cast<long>(Candidate);
        break;
      }
      IllBehavedFlag[Candidate] = true;
    }
  }

  bool AnySurvivor = false;
  for (long Rep : ClusterRep)
    AnySurvivor |= Rep >= 0;
  if (!AnySurvivor) {
    Result.Assignment.clear();
    Result.FinalK = 0;
    for (std::size_t P = 0; P < Points.size(); ++P)
      if (IllBehavedFlag[P])
        Result.IllBehaved.push_back(P);
    return Result;
  }

  for (std::size_t Cl = 0; Cl < Members.size(); ++Cl) {
    if (ClusterRep[Cl] >= 0 || Members[Cl].empty())
      continue;
    for (std::size_t Orphan : Members[Cl]) {
      double BestDist = std::numeric_limits<double>::infinity();
      long BestCluster = -1;
      for (std::size_t Other = 0; Other < Points.size(); ++Other) {
        auto OtherCl = static_cast<std::size_t>(Initial.Assignment[Other]);
        if (OtherCl == Cl || ClusterRep[OtherCl] < 0)
          continue;
        double Dist = squaredDistance(Points[Orphan], Points[Other]);
        if (Dist < BestDist) {
          BestDist = Dist;
          BestCluster = static_cast<long>(OtherCl);
        }
      }
      Result.Assignment[Orphan] = static_cast<int>(BestCluster);
    }
  }

  std::vector<int> Relabel(Members.size(), -1);
  for (std::size_t P = 0; P < Result.Assignment.size(); ++P) {
    auto Old = static_cast<std::size_t>(Result.Assignment[P]);
    if (Relabel[Old] < 0) {
      Relabel[Old] = static_cast<int>(Result.FinalK++);
      Result.Representatives.push_back(
          static_cast<std::size_t>(ClusterRep[Old]));
    }
    Result.Assignment[P] = Relabel[Old];
  }

  for (std::size_t P = 0; P < Points.size(); ++P)
    if (IllBehavedFlag[P])
      Result.IllBehaved.push_back(P);
  return Result;
}

//===----------------------------------------------------------------------===//
// Steps D-E over the database
//===----------------------------------------------------------------------===//

PipelineResult referenceEvaluate(const MeasurementDatabase &Db,
                                 const PipelineConfig &Config,
                                 std::vector<std::size_t> Kept,
                                 FeatureTable Points, NormalizationStats Norm,
                                 Clustering Initial, unsigned ElbowChoice) {
  PipelineResult R;
  R.Kept = std::move(Kept);
  R.Points = std::move(Points);
  R.Mask = Config.Features;
  R.Norm = std::move(Norm);
  R.ElbowK = ElbowChoice;
  R.InitialK = Initial.K;
  R.Initial = Initial;

  auto WellBehaved = [&Db, &R](std::size_t Local) {
    return Db.isWellBehavedOnRef(R.Kept[Local]);
  };
  if (Config.ReSelectIllBehaved) {
    R.Selection = referenceSelect(R.Points, Initial, WellBehaved,
                                  Config.MedoidRepresentative);
  } else {
    R.Selection.Assignment = Initial.Assignment;
    R.Selection.FinalK = Initial.K;
    for (const std::vector<std::size_t> &Members : Initial.members()) {
      std::size_t Pick =
          Config.MedoidRepresentative ? medoidOf(R.Points, Members) : 0;
      R.Selection.Representatives.push_back(Members[Pick]);
    }
  }

  if (R.Selection.FinalK == 0)
    return R;

  std::vector<double> RefTimes(R.Kept.size());
  for (std::size_t I = 0; I < R.Kept.size(); ++I)
    RefTimes[I] = Db.profile(R.Kept[I]).InApp.MeasuredSeconds;
  R.Model = PredictionModel::build(RefTimes, R.Selection.Assignment,
                                   R.Selection.Representatives);

  const Suite &S = Db.suite();
  for (std::size_t T = 0; T < Db.targets().size(); ++T) {
    TargetEvaluation Eval;
    Eval.MachineName = Db.targets()[T].Name;

    std::vector<double> RepTimes;
    RepTimes.reserve(R.Selection.Representatives.size());
    for (std::size_t Local : R.Selection.Representatives)
      RepTimes.push_back(Db.standaloneTarget(R.Kept[Local], T).MedianSeconds);

    Eval.Predicted = R.Model.predict(RepTimes);
    Eval.Real.resize(R.Kept.size());
    for (std::size_t I = 0; I < R.Kept.size(); ++I)
      Eval.Real[I] = Db.realTargetSeconds(R.Kept[I], T);
    Eval.ErrorsPercent = predictionErrorsPercent(Eval.Predicted, Eval.Real);
    Eval.MedianErrorPercent = median(Eval.ErrorsPercent);
    Eval.AverageErrorPercent = mean(Eval.ErrorsPercent);

    for (std::size_t I = 0; I < R.Kept.size(); ++I) {
      double Invocations =
          static_cast<double>(Db.codelet(R.Kept[I]).totalInvocations());
      Eval.Reduction.FullSuiteSeconds += Eval.Real[I] * Invocations;
      Eval.Reduction.ReducedInvocationSeconds +=
          Db.standaloneTarget(R.Kept[I], T).TotalBenchmarkSeconds;
    }
    for (std::size_t Local : R.Selection.Representatives)
      Eval.Reduction.RepresentativeSeconds +=
          Db.standaloneTarget(R.Kept[Local], T).TotalBenchmarkSeconds;

    std::map<std::string, std::vector<std::size_t>> ByApp;
    for (std::size_t I = 0; I < R.Kept.size(); ++I)
      ByApp[Db.codelet(R.Kept[I]).App].push_back(I);
    for (const Application &App : S.Applications) {
      auto It = ByApp.find(App.Name);
      if (It == ByApp.end())
        continue;
      std::vector<double> RefT;
      std::vector<double> RealT;
      std::vector<double> PredT;
      std::vector<double> Inv;
      for (std::size_t Local : It->second) {
        RefT.push_back(Db.profile(R.Kept[Local]).InApp.MeasuredSeconds);
        RealT.push_back(Eval.Real[Local]);
        PredT.push_back(Eval.Predicted[Local]);
        Inv.push_back(
            static_cast<double>(Db.codelet(R.Kept[Local]).totalInvocations()));
      }
      Eval.AppNames.push_back(App.Name);
      Eval.AppReference.push_back(applicationTime(RefT, Inv, App.Coverage));
      Eval.AppReal.push_back(applicationTime(RealT, Inv, App.Coverage));
      Eval.AppPredicted.push_back(applicationTime(PredT, Inv, App.Coverage));
    }
    Eval.RealGeomeanSpeedup =
        geometricMeanSpeedup(Eval.AppReference, Eval.AppReal);
    Eval.PredictedGeomeanSpeedup =
        geometricMeanSpeedup(Eval.AppReference, Eval.AppPredicted);

    R.Targets.push_back(std::move(Eval));
  }
  return R;
}

} // namespace

PipelineResult fgbs::referencePipelineRun(const MeasurementDatabase &Db,
                                          const PipelineConfig &Config) {
  assert(Config.Features.size() == NumFeatures &&
         "feature mask must cover the catalog");
  std::vector<std::size_t> Kept = Db.keptCodelets();
  FeatureTable Raw;
  Raw.reserve(Kept.size());
  for (std::size_t Index : Kept)
    Raw.push_back(applyMask(Db.profile(Index).Features, Config.Features));

  NormalizationStats Norm;
  if (Config.Normalize) {
    Norm = computeNormalization(Raw);
  } else {
    std::size_t Dim = Raw.empty() ? maskCount(Config.Features) : Raw[0].size();
    Norm.Mean.assign(Dim, 0.0);
    Norm.Std.assign(Dim, 1.0);
  }
  FeatureTable Points = Config.Normalize ? normalizeFeatures(Raw) : Raw;

  Dendrogram Tree = referenceHierarchicalCluster(Points, Config.LinkageMethod);
  unsigned Elbow =
      referenceElbowK(Points, Tree, Config.MaxK, Config.ElbowThreshold);
  unsigned K = Config.K > 0 ? Config.K : Elbow;
  K = std::min<unsigned>(K, static_cast<unsigned>(Points.size()));

  return referenceEvaluate(Db, Config, std::move(Kept), std::move(Points),
                           std::move(Norm), Tree.cut(K), Elbow);
}
