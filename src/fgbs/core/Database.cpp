//===- fgbs/core/Database.cpp - Measurement database ----------------------===//

#include "fgbs/core/Database.h"

#include "fgbs/compiler/CompileCache.h"
#include "fgbs/obs/Trace.h"
#include "fgbs/support/ThreadPool.h"

#include <cassert>
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
