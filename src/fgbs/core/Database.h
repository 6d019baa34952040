//===- fgbs/core/Database.h - Measurement database --------------*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement database: every simulated measurement a study needs,
/// computed once and cached.
///
/// For each codelet it holds the reference profile (step B), the "real"
/// in-application times on every target (the ground truth the paper
/// compares predictions against), and the standalone microbenchmark
/// measurements on every machine (what step D/E actually run).
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_CORE_DATABASE_H
#define FGBS_CORE_DATABASE_H

#include "fgbs/analysis/Profiler.h"
#include "fgbs/extract/Extraction.h"

#include <vector>

namespace fgbs {

class CompileCache;

/// One (codelet, machine, kind) work item of the simulator sweep,
/// decoded from the flat item index space the MeasurementDatabase ctor
/// fans out over the thread pool.
enum class MeasurementItemKind : std::uint32_t {
  ProfileRef = 0,       ///< Step-B profile on the reference machine.
  StandaloneRef = 1,    ///< Standalone microbenchmark on the reference.
  InAppTarget = 2,      ///< Ground-truth in-app time on one target.
  StandaloneTarget = 3, ///< Standalone microbenchmark on one target.
};

struct MeasurementItem {
  MeasurementItemKind Kind = MeasurementItemKind::ProfileRef;
  std::size_t Codelet = 0;
  std::size_t Target = 0; ///< Valid for the *Target kinds only.
};

/// Total work items for a sweep of \p NumCodelets codelets over
/// \p NumTargets targets: N * (2 + 2T).
std::size_t measurementItemCount(std::size_t NumCodelets,
                                 std::size_t NumTargets);

/// Decodes flat index \p Item (kind-major layout, see Database.cpp) into
/// its (kind, codelet, target) triple.  \p Item must be below
/// measurementItemCount(\p NumCodelets, \p NumTargets).
MeasurementItem decodeMeasurementItem(std::size_t Item,
                                      std::size_t NumCodelets,
                                      std::size_t NumTargets);

/// The result of one work item; only the field matching Kind is set.
struct MeasurementItemResult {
  MeasurementItemKind Kind = MeasurementItemKind::ProfileRef;
  CodeletProfile Profile;           ///< ProfileRef.
  Measurement InApp;                ///< InAppTarget.
  StandaloneMeasurement Standalone; ///< StandaloneRef/StandaloneTarget.
};

/// Executes one work item — the call the MeasurementDatabase ctor makes
/// per item, so running items one at a time (as a benchmark does)
/// gives bit-identical results to a full sweep.  \p Item.Codelet
/// indexes \p S.allCodelets(); \p Compile may be null.
MeasurementItemResult executeMeasurementItem(const Codelet &C,
                                             const Machine &Reference,
                                             const std::vector<Machine> &Targets,
                                             const TimingPolicy &Policy,
                                             const MeasurementItem &Item,
                                             CompileCache *Compile);

/// How a MeasurementDatabase runs its simulator sweep.
struct DatabaseOptions {
  /// Threads measuring work items.  0 = auto (the FGBS_THREADS
  /// environment variable, else hardware_concurrency()); 1 = strictly
  /// serial.  Any thread count yields bit-identical databases: every
  /// work item writes its own result slot and the measurements are
  /// deterministic (the ThreadPool contract).
  unsigned Threads = 0;
};

/// What steps C-E read from a database, derived once when the database
/// is built so a pipeline run copies instead of recomputing.  Every
/// per-codelet vector is indexed by kept position: entry I describes
/// codelet Kept[I].  Features are kept at full catalog width; a run
/// copies the columns its mask selects.  Normalizing the full-width
/// table gives the same bits as normalizing a masked copy, because each
/// column's mean and standard deviation are computed on their own, over
/// the kept rows in order (DESIGN.md section 6).
struct PipelineInputs {
  /// Indices of codelets surviving the 1M-cycle profiling filter.
  std::vector<std::size_t> Kept;
  /// Kept rows x NumFeatures, row-major: the raw step-B features and
  /// their z-scores (normalizeFeatures over the full-width table).
  std::vector<double> RawFeatures;
  std::vector<double> NormalizedFeatures;
  /// Per-column statistics of RawFeatures (NumFeatures entries each;
  /// empty when no codelet is kept).
  NormalizationStats Norm;
  /// Reference in-application seconds per invocation.
  std::vector<double> RefSeconds;
  /// The section 3.4 agreement test on the reference machine.
  std::vector<char> WellBehaved;
  /// Codelet::totalInvocations(), as a double.
  std::vector<double> Invocations;

  /// An application with at least one kept codelet.
  struct App {
    std::size_t Index = 0;             ///< Into Suite::Applications.
    std::vector<std::size_t> Members;  ///< Kept positions, in order.
    std::vector<double> Invocations;   ///< Invocations of each member.
    double Coverage = 1.0;
    /// applicationTime() of the members' reference times.
    double ReferenceSeconds = 0.0;
  };
  /// In suite application order.
  std::vector<App> Apps;

  /// One target machine's measurements of the kept codelets, and the
  /// evaluation figures that do not depend on the clustering.
  struct Target {
    std::vector<double> RealSeconds;
    std::vector<double> StandaloneMedianSeconds;
    std::vector<double> StandaloneTotalSeconds;
    /// Table 5 numerators: every kept codelet at its full and at its
    /// reduced invocation count.
    double FullSuiteSeconds = 0.0;
    double ReducedInvocationSeconds = 0.0;
    /// applicationTime() of the real times, one per entry of Apps.
    std::vector<double> AppRealSeconds;
    double RealGeomeanSpeedup = 0.0;
  };
  std::vector<Target> Targets;
};

/// Eagerly computed measurement store for one suite.
class MeasurementDatabase {
public:
  /// Profiles \p S on \p Reference and measures it on every machine in
  /// \p Targets.  \p S must outlive the database.  The simulator sweep
  /// fans out one work item per (codelet, machine, measurement kind)
  /// over \p Options.Threads threads, sharing one compile memo.
  MeasurementDatabase(const Suite &S, Machine Reference,
                      std::vector<Machine> Targets,
                      const TimingPolicy &Policy = {},
                      const DatabaseOptions &Options = {});

  /// Reassembles a database from previously computed measurements (the
  /// fgbs.meas.v1 cache loader).  The vectors must be mutually
  /// consistent: one profile/standalone per codelet of \p S, one
  /// [target][codelet] grid per machine in \p Targets, and every
  /// CodeletProfile::C pointing into \p S.
  MeasurementDatabase(const Suite &S, Machine Reference,
                      std::vector<Machine> Targets,
                      std::vector<CodeletProfile> Profiles,
                      std::vector<std::vector<Measurement>> RealTarget,
                      std::vector<StandaloneMeasurement> StandaloneOnRef,
                      std::vector<std::vector<StandaloneMeasurement>>
                          StandaloneOnTarget);

  const Suite &suite() const { return *TheSuite; }
  const Machine &reference() const { return Reference; }
  const std::vector<Machine> &targets() const { return Targets; }

  std::size_t numCodelets() const { return Profiles.size(); }

  /// The step-B profile (reference, in application, features).
  const CodeletProfile &profile(std::size_t Codelet) const {
    return Profiles[Codelet];
  }

  /// The codelet object behind index \p Codelet.
  const Codelet &codelet(std::size_t Codelet) const {
    return *Profiles[Codelet].C;
  }

  /// Ground truth: measured in-application per-invocation seconds of
  /// codelet \p Codelet on target \p Target.
  double realTargetSeconds(std::size_t Codelet, std::size_t Target) const {
    return RealTarget[Target][Codelet].MeasuredSeconds;
  }

  /// Full in-application measurement on a target.
  const Measurement &realTargetMeasurement(std::size_t Codelet,
                                           std::size_t Target) const {
    return RealTarget[Target][Codelet];
  }

  /// Standalone microbenchmark measurement on the reference machine
  /// (used by the 10% well-behaved test).
  const StandaloneMeasurement &standaloneRef(std::size_t Codelet) const {
    return StandaloneOnRef[Codelet];
  }

  /// Standalone microbenchmark measurement on target \p Target.
  const StandaloneMeasurement &standaloneTarget(std::size_t Codelet,
                                                std::size_t Target) const {
    return StandaloneOnTarget[Target][Codelet];
  }

  /// Indices of codelets surviving the 1M-cycle profiling filter.
  std::vector<std::size_t> keptCodelets() const;

  /// The inputs of steps C-E, derived once at construction.
  const PipelineInputs &pipelineInputs() const { return Inputs; }

  /// True when \p Codelet passes the section 3.4 agreement test on the
  /// reference machine.
  bool isWellBehavedOnRef(std::size_t Codelet) const;

private:
  const Suite *TheSuite;
  Machine Reference;
  std::vector<Machine> Targets;
  std::vector<CodeletProfile> Profiles;
  /// [target][codelet]
  std::vector<std::vector<Measurement>> RealTarget;
  std::vector<StandaloneMeasurement> StandaloneOnRef;
  /// [target][codelet]
  std::vector<std::vector<StandaloneMeasurement>> StandaloneOnTarget;
  PipelineInputs Inputs;

  /// Fills Inputs from the measurements; both constructors end here.
  void derivePipelineInputs();
};

} // namespace fgbs

#endif // FGBS_CORE_DATABASE_H
