//===- fgbs/extract/Extraction.cpp - Step D: extraction -------------------===//

#include "fgbs/extract/Extraction.h"

#include "fgbs/obs/Trace.h"
#include "fgbs/support/Matrix.h"
#include "fgbs/support/Rng.h"
#include "fgbs/support/Statistics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace fgbs;

StandaloneMeasurement fgbs::measureStandalone(const Codelet &C,
                                              const Machine &M,
                                              const TimingPolicy &Policy,
                                              CompileCache *Compile) {
  // The wrapper replays the FIRST invocation's captured memory dump, and
  // the loop is compiled without its surrounding application code.
  ExecutionRequest R;
  R.DatasetScale = C.capturedDatasetScale();
  R.Context = CompilationContext::Standalone;
  R.WarmCacheReplay = true;
  R.Compile = Compile;
  Measurement Base = execute(C, M, R);

  StandaloneMeasurement Out;
  Out.TrueSeconds = Base.TrueSeconds;

  // Invocation count: run at least MinRunSeconds in total, with at least
  // MinInvocations invocations.
  double PerInvocation = std::max(Base.TrueSeconds, 1e-12);
  auto Needed = static_cast<std::uint64_t>(
      std::ceil(Policy.MinRunSeconds / PerInvocation));
  Out.Invocations = std::max(Policy.MinInvocations, Needed);
  Out.TotalBenchmarkSeconds =
      static_cast<double>(Out.Invocations) * Base.TrueSeconds;

  // Median-of-invocations timing: re-sample the measurement noise per
  // invocation (deterministically) and take the median; this tightens
  // short-codelet measurements exactly like the paper's protocol.
  std::uint64_t Seed = hashString(C.Name.c_str());
  Seed = hashCombine(Seed, hashString(M.Name.c_str()));
  Seed = hashCombine(Seed, 0x57A4DA10ULL);
  Rng NoiseRng(Seed);
  double Millis = Base.TrueSeconds * 1e3;
  double Sigma = 0.012 + 0.035 * std::exp(-Millis / 8.0);
  // Sampling is capped: the median of a few hundred lognormal draws is
  // already indistinguishable from the distribution median.
  std::uint64_t Draws = std::min<std::uint64_t>(Out.Invocations, 199);
  std::vector<double> Samples;
  Samples.reserve(Draws);
  constexpr double StandaloneProbeOverhead = 0.5e-6;
  for (std::uint64_t I = 0; I < Draws; ++I)
    Samples.push_back(Base.TrueSeconds *
                          std::exp(NoiseRng.normal(0.0, Sigma)) +
                      StandaloneProbeOverhead);
  Out.MedianSeconds = median(Samples);
  return Out;
}

bool fgbs::isWellBehaved(const StandaloneMeasurement &Standalone,
                         double InAppSeconds, double Threshold) {
  assert(InAppSeconds > 0.0 && "in-app time must be positive");
  double Deviation =
      std::fabs(Standalone.MedianSeconds - InAppSeconds) / InAppSeconds;
  return Deviation <= Threshold;
}

SelectionResult fgbs::selectRepresentatives(
    const FeatureTable &Points, const Clustering &Initial,
    const std::function<bool(std::size_t)> &WellBehaved, bool PreferMedoid) {
  FGBS_TRACE_SPAN("extract.select");
  FGBS_COUNTER_ADD("extract.selections", 1);
  SelectionResult Result;
  Result.Assignment = Initial.Assignment;

  // Members of each cluster, in point order: cluster Cl owns
  // Member[Start[Cl] .. Start[Cl + 1]).
  const std::size_t K = Initial.K;
  std::vector<std::size_t> Start(K + 1, 0);
  for (int Cl : Initial.Assignment) {
    assert(Cl >= 0 && static_cast<unsigned>(Cl) < K &&
           "assignment out of range");
    ++Start[static_cast<std::size_t>(Cl) + 1];
  }
  for (std::size_t Cl = 0; Cl < K; ++Cl)
    Start[Cl + 1] += Start[Cl];
  std::vector<std::size_t> Member(Initial.Assignment.size());
  {
    std::vector<std::size_t> Next(Start.begin(), Start.end() - 1);
    for (std::size_t P = 0; P < Initial.Assignment.size(); ++P)
      Member[Next[static_cast<std::size_t>(Initial.Assignment[P])]++] = P;
  }
  std::vector<char> IllBehavedFlag(Points.size(), 0);

  // Phase 1: per cluster, walk candidates by distance to centroid and
  // keep the first well-behaved one.
  std::vector<long> ClusterRep(K, -1); // -1 = destroyed.
  const std::size_t Dim = Points.empty() ? 0 : Points.front().size();
  std::vector<double> Centroid(Dim);
  std::vector<double> ToCentroid;
  std::vector<std::size_t> Order;
  for (std::size_t Cl = 0; Cl < K; ++Cl) {
    const std::size_t *M = Member.data() + Start[Cl];
    const std::size_t Size = Start[Cl + 1] - Start[Cl];
    if (Size == 0)
      continue;
    Order.resize(Size);
    for (std::size_t I = 0; I < Size; ++I)
      Order[I] = I;
    if (PreferMedoid && Size > 1) {
      // The centroid as centroidOf() computes it, one distance per member,
      // then a stable insertion sort on the stored distances.
      std::fill(Centroid.begin(), Centroid.end(), 0.0);
      for (std::size_t I = 0; I < Size; ++I)
        for (std::size_t D = 0; D < Dim; ++D)
          Centroid[D] += Points[M[I]][D];
      for (double &V : Centroid)
        V /= static_cast<double>(Size);
      ToCentroid.resize(Size);
      for (std::size_t I = 0; I < Size; ++I)
        ToCentroid[I] = squaredDistance(Points[M[I]], Centroid);
      for (std::size_t I = 1; I < Size; ++I) {
        std::size_t Moving = Order[I];
        std::size_t J = I;
        for (; J > 0 && ToCentroid[Moving] < ToCentroid[Order[J - 1]]; --J)
          Order[J] = Order[J - 1];
        Order[J] = Moving;
      }
    }
    for (std::size_t I : Order) {
      std::size_t Candidate = M[I];
      if (WellBehaved(Candidate)) {
        ClusterRep[Cl] = static_cast<long>(Candidate);
        break;
      }
      IllBehavedFlag[Candidate] = 1;
    }
  }

  // Degenerate case: every cluster destroyed (a suite whose codelets are
  // all ill-behaved, like MG under per-application subsetting).  There is
  // nothing to extract; callers must treat the suite as unpredictable.
  bool AnySurvivor = false;
  for (long Rep : ClusterRep)
    AnySurvivor |= Rep >= 0;
  if (!AnySurvivor) {
    Result.Assignment.clear();
    Result.FinalK = 0;
    for (std::size_t P = 0; P < Points.size(); ++P)
      if (IllBehavedFlag[P])
        Result.IllBehaved.push_back(P);
    FGBS_COUNTER_ADD("extract.dissolved_clusters", K);
    FGBS_COUNTER_ADD("extract.ill_behaved_replacements",
                     Result.IllBehaved.size());
    return Result;
  }

  // Phase 2: members of destroyed clusters move to the cluster of their
  // closest neighbor in any surviving cluster.
  for (std::size_t Cl = 0; Cl < K; ++Cl) {
    if (ClusterRep[Cl] >= 0 || Start[Cl] == Start[Cl + 1])
      continue;
    FGBS_COUNTER_ADD("extract.dissolved_clusters", 1);
    FGBS_COUNTER_ADD("extract.orphans_moved", Start[Cl + 1] - Start[Cl]);
    for (std::size_t I = Start[Cl]; I < Start[Cl + 1]; ++I) {
      std::size_t Orphan = Member[I];
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
      assert(BestCluster >= 0 && "no surviving cluster found");
      Result.Assignment[Orphan] = static_cast<int>(BestCluster);
    }
  }

  // Relabel surviving clusters to [0, FinalK) in first-appearance order.
  std::vector<int> Relabel(K, -1);
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
  // Each ill-behaved candidate forced the walk to the next-nearest
  // medoid (or dissolved its cluster): the paper's replacement events.
  FGBS_COUNTER_ADD("extract.ill_behaved_replacements",
                   Result.IllBehaved.size());
  return Result;
}
