//===- fgbs/core/Database.cpp - Measurement database ----------------------===//

#include "fgbs/core/Database.h"

#include "fgbs/compiler/CompileCache.h"
#include "fgbs/model/Prediction.h"
#include "fgbs/obs/Trace.h"
#include "fgbs/support/ThreadPool.h"

#include <cassert>
#include <map>
#include <string>
#include <utility>

using namespace fgbs;

std::size_t fgbs::measurementItemCount(std::size_t NumCodelets,
                                       std::size_t NumTargets) {
  return NumCodelets * (2 + 2 * NumTargets);
}

MeasurementItem fgbs::decodeMeasurementItem(std::size_t Item,
                                            std::size_t NumCodelets,
                                            std::size_t NumTargets) {
  assert(Item < measurementItemCount(NumCodelets, NumTargets) &&
         "item index out of range");
  (void)NumTargets;
  const std::size_t N = NumCodelets;
  MeasurementItem Out;
  Out.Codelet = Item % N;
  if (Item < N) {
    Out.Kind = MeasurementItemKind::ProfileRef;
  } else if (Item < 2 * N) {
    Out.Kind = MeasurementItemKind::StandaloneRef;
  } else {
    Out.Target = (Item - 2 * N) / (2 * N);
    Out.Kind = ((Item - 2 * N) / N) % 2 == 0
                   ? MeasurementItemKind::InAppTarget
                   : MeasurementItemKind::StandaloneTarget;
  }
  return Out;
}

MeasurementItemResult fgbs::executeMeasurementItem(
    const Codelet &C, const Machine &Reference,
    const std::vector<Machine> &Targets, const TimingPolicy &Policy,
    const MeasurementItem &Item, CompileCache *Compile) {
  MeasurementItemResult Out;
  Out.Kind = Item.Kind;
  switch (Item.Kind) {
  case MeasurementItemKind::ProfileRef:
    Out.Profile = profileCodelet(C, Reference, Compile);
    break;
  case MeasurementItemKind::StandaloneRef:
    Out.Standalone = measureStandalone(C, Reference, Policy, Compile);
    break;
  case MeasurementItemKind::InAppTarget:
    Out.InApp = measureInApp(C, Targets[Item.Target], Compile);
    break;
  case MeasurementItemKind::StandaloneTarget:
    Out.Standalone = measureStandalone(C, Targets[Item.Target], Policy,
                                       Compile);
    break;
  }
  return Out;
}

MeasurementDatabase::MeasurementDatabase(const Suite &S, Machine Ref,
                                         std::vector<Machine> Tgts,
                                         const TimingPolicy &Policy,
                                         const DatabaseOptions &Options)
    : TheSuite(&S), Reference(std::move(Ref)), Targets(std::move(Tgts)) {
  // Steps A-B: capture + profile on the reference machine, then the
  // ground-truth and standalone measurements on every target.  The work
  // is enumerated as independent (codelet, machine, kind) items, each
  // writing its own pre-sized slot, and fanned out over the pool: the
  // result is bit-identical for any thread count, and a pool of one
  // reproduces the historical serial sweep exactly.
  FGBS_TRACE_SPAN("pipeline.measure");

  std::vector<const Codelet *> Codelets = S.allCodelets();
  const std::size_t N = Codelets.size();
  const std::size_t T = Targets.size();

  Profiles.resize(N);
  StandaloneOnRef.resize(N);
  RealTarget.assign(T, std::vector<Measurement>(N));
  StandaloneOnTarget.assign(T, std::vector<StandaloneMeasurement>(N));

  // One compile memo for the whole sweep: each codelet is lowered once
  // per (machine, context) instead of once per execute() call — the
  // in-application profile, every invocation group, the ground-truth
  // target runs, and the static feature analysis all share it.
  CompileCache Compile;

  unsigned Threads =
      Options.Threads > 0 ? Options.Threads : ThreadPool::defaultThreadCount();
  FGBS_GAUGE_SET("db.threads", Threads);
  ThreadPool Pool(Threads);

  // Work-item index space, kind-major (decodeMeasurementItem owns it):
  //   [0, N)        profile codelet I on the reference (step B),
  //   [N, 2N)       standalone codelet I on the reference,
  //   [2N + 2*t*N + 0..N)   in-app ground truth of codelet I on target t,
  //   [2N + (2t+1)*N ..)    standalone codelet I on target t.
  Pool.parallelFor(0, measurementItemCount(N, T), [&](std::size_t Item) {
    const MeasurementItem M = decodeMeasurementItem(Item, N, T);
    MeasurementItemResult R = executeMeasurementItem(
        *Codelets[M.Codelet], Reference, Targets, Policy, M, &Compile);
    switch (M.Kind) {
    case MeasurementItemKind::ProfileRef:
      Profiles[M.Codelet] = std::move(R.Profile);
      break;
    case MeasurementItemKind::StandaloneRef:
      StandaloneOnRef[M.Codelet] = R.Standalone;
      break;
    case MeasurementItemKind::InAppTarget:
      RealTarget[M.Target][M.Codelet] = R.InApp;
      break;
    case MeasurementItemKind::StandaloneTarget:
      StandaloneOnTarget[M.Target][M.Codelet] = R.Standalone;
      break;
    }
  });

  FGBS_COUNTER_ADD("db.codelets_profiled", N);
  assert(Codelets.size() == Profiles.size() && "profile count mismatch");
  derivePipelineInputs();
}

MeasurementDatabase::MeasurementDatabase(
    const Suite &S, Machine Ref, std::vector<Machine> Tgts,
    std::vector<CodeletProfile> Profs,
    std::vector<std::vector<Measurement>> Real,
    std::vector<StandaloneMeasurement> StandaloneRef,
    std::vector<std::vector<StandaloneMeasurement>> StandaloneTgt)
    : TheSuite(&S), Reference(std::move(Ref)), Targets(std::move(Tgts)),
      Profiles(std::move(Profs)), RealTarget(std::move(Real)),
      StandaloneOnRef(std::move(StandaloneRef)),
      StandaloneOnTarget(std::move(StandaloneTgt)) {
  assert(Profiles.size() == S.numCodelets() && "profile count mismatch");
  assert(StandaloneOnRef.size() == Profiles.size() &&
         "standalone count mismatch");
  assert(RealTarget.size() == Targets.size() && "target grid mismatch");
  assert(StandaloneOnTarget.size() == Targets.size() &&
         "target grid mismatch");
  derivePipelineInputs();
}

void MeasurementDatabase::derivePipelineInputs() {
  PipelineInputs &In = Inputs;
  In.Kept = keptCodelets();
  const std::size_t N = In.Kept.size();

  FeatureTable Full;
  Full.reserve(N);
  for (std::size_t Index : In.Kept) {
    assert(Profiles[Index].Features.size() == NumFeatures &&
           "profile features must cover the catalog");
    Full.push_back(Profiles[Index].Features);
    In.RefSeconds.push_back(Profiles[Index].InApp.MeasuredSeconds);
    // isWellBehaved() divides by the in-app time; a zero time fails the
    // test, as the division by zero would.
    In.WellBehaved.push_back(In.RefSeconds.back() > 0.0 &&
                             isWellBehavedOnRef(Index));
    In.Invocations.push_back(
        static_cast<double>(codelet(Index).totalInvocations()));
  }
  if (N > 0) {
    In.Norm = computeNormalization(Full);
    FeatureTable Normalized = normalizeFeatures(Full);
    In.RawFeatures.reserve(N * NumFeatures);
    In.NormalizedFeatures.reserve(N * NumFeatures);
    for (std::size_t I = 0; I < N; ++I) {
      In.RawFeatures.insert(In.RawFeatures.end(), Full[I].begin(),
                            Full[I].end());
      In.NormalizedFeatures.insert(In.NormalizedFeatures.end(),
                                   Normalized[I].begin(),
                                   Normalized[I].end());
    }
  }

  // Applications group their kept codelets by the codelet's App name, in
  // suite application order.
  std::map<std::string, std::vector<std::size_t>> ByApp;
  for (std::size_t I = 0; I < N; ++I)
    ByApp[codelet(In.Kept[I]).App].push_back(I);
  const std::vector<Application> &Apps = TheSuite->Applications;
  for (std::size_t A = 0; A < Apps.size(); ++A) {
    auto It = ByApp.find(Apps[A].Name);
    if (It == ByApp.end())
      continue;
    PipelineInputs::App Group;
    Group.Index = A;
    Group.Members = It->second;
    Group.Coverage = Apps[A].Coverage;
    std::vector<double> RefT;
    for (std::size_t Local : Group.Members) {
      RefT.push_back(In.RefSeconds[Local]);
      Group.Invocations.push_back(In.Invocations[Local]);
    }
    Group.ReferenceSeconds =
        applicationTime(RefT, Group.Invocations, Group.Coverage);
    In.Apps.push_back(std::move(Group));
  }

  for (std::size_t T = 0; T < Targets.size(); ++T) {
    PipelineInputs::Target Tgt;
    for (std::size_t I = 0; I < N; ++I) {
      const StandaloneMeasurement &SA = standaloneTarget(In.Kept[I], T);
      Tgt.RealSeconds.push_back(realTargetSeconds(In.Kept[I], T));
      Tgt.StandaloneMedianSeconds.push_back(SA.MedianSeconds);
      Tgt.StandaloneTotalSeconds.push_back(SA.TotalBenchmarkSeconds);
      Tgt.FullSuiteSeconds += Tgt.RealSeconds[I] * In.Invocations[I];
      Tgt.ReducedInvocationSeconds += SA.TotalBenchmarkSeconds;
    }
    std::vector<double> AppReference;
    for (const PipelineInputs::App &Group : In.Apps) {
      std::vector<double> RealT;
      for (std::size_t Local : Group.Members)
        RealT.push_back(Tgt.RealSeconds[Local]);
      Tgt.AppRealSeconds.push_back(
          applicationTime(RealT, Group.Invocations, Group.Coverage));
      AppReference.push_back(Group.ReferenceSeconds);
    }
    if (!In.Apps.empty())
      Tgt.RealGeomeanSpeedup =
          geometricMeanSpeedup(AppReference, Tgt.AppRealSeconds);
    In.Targets.push_back(std::move(Tgt));
  }
}

std::vector<std::size_t> MeasurementDatabase::keptCodelets() const {
  std::vector<std::size_t> Kept;
  for (std::size_t I = 0; I < Profiles.size(); ++I)
    if (!Profiles[I].Discarded)
      Kept.push_back(I);
  return Kept;
}

bool MeasurementDatabase::isWellBehavedOnRef(std::size_t Codelet) const {
  return isWellBehaved(StandaloneOnRef[Codelet],
                       Profiles[Codelet].InApp.MeasuredSeconds);
}
