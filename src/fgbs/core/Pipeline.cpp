//===- fgbs/core/Pipeline.cpp - Steps C-E orchestration -------------------===//

#include "fgbs/core/Pipeline.h"

#include "fgbs/obs/Trace.h"
#include "fgbs/support/Statistics.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

using namespace fgbs;

PipelineConfig::PipelineConfig() {
  static const FeatureMask Table2 = maskForNames(kTable2FeatureNames);
  Features = Table2;
}

namespace {

/// The catalog columns \p Mask selects, in ascending order.
struct MaskColumns {
  std::array<std::size_t, NumFeatures> Index;
  std::size_t Count = 0;

  explicit MaskColumns(const FeatureMask &Mask) {
    for (std::size_t F = 0; F < NumFeatures; ++F)
      if (Mask[F])
        Index[Count++] = F;
  }
};

/// Row-wise copy of the selected columns of a row-major table that is
/// NumFeatures wide.
FeatureTable selectColumns(const std::vector<double> &Table,
                           std::size_t Rows, const MaskColumns &Columns) {
  FeatureTable Out(Rows);
  for (std::size_t R = 0; R < Rows; ++R) {
    const double *Row = Table.data() + R * NumFeatures;
    std::vector<double> &Point = Out[R];
    Point.resize(Columns.Count);
    for (std::size_t C = 0; C < Columns.Count; ++C)
      Point[C] = Row[Columns.Index[C]];
  }
  return Out;
}

} // namespace

Pipeline::Pipeline(const MeasurementDatabase &Db, PipelineConfig Config)
    : Db(Db), Config(std::move(Config)) {
  assert(this->Config.Features.size() == NumFeatures &&
         "feature mask must cover the catalog");
  assert(maskCount(this->Config.Features) > 0 &&
         "at least one feature must be selected");
}

NormalizationStats Pipeline::normalization() const {
  MaskColumns Columns(Config.Features);
  NormalizationStats Out;
  const PipelineInputs &In = Db.pipelineInputs();
  if (!Config.Normalize || In.Kept.empty()) {
    // Identity stats: (x - 0) / 1 leaves raw features untouched, so
    // result consumers never need to branch on the Normalize knob.
    Out.Mean.assign(Columns.Count, 0.0);
    Out.Std.assign(Columns.Count, 1.0);
    return Out;
  }
  Out.Mean.resize(Columns.Count);
  Out.Std.resize(Columns.Count);
  for (std::size_t C = 0; C < Columns.Count; ++C) {
    Out.Mean[C] = In.Norm.Mean[Columns.Index[C]];
    Out.Std[C] = In.Norm.Std[Columns.Index[C]];
  }
  return Out;
}

FeatureTable Pipeline::buildPoints() const {
  FGBS_TRACE_SPAN("pipeline.cluster.features");
  const PipelineInputs &In = Db.pipelineInputs();
  const std::vector<double> &Table =
      Config.Normalize ? In.NormalizedFeatures : In.RawFeatures;
  return selectColumns(Table, In.Kept.size(), MaskColumns(Config.Features));
}

PipelineResult Pipeline::run() const {
  FGBS_TRACE_SPAN("pipeline.run");
  FGBS_COUNTER_ADD("pipeline.runs", 1);
  FeatureTable Points = buildPoints();

  // Step C: hierarchical clustering and the elbow cut.
  Dendrogram Tree = [&] {
    FGBS_TRACE_SPAN("pipeline.cluster");
    return hierarchicalCluster(Points, Config.LinkageMethod);
  }();
  unsigned Elbow = elbowK(Points, Tree, Config.MaxK, Config.ElbowThreshold);
  unsigned K = Config.K > 0 ? Config.K : Elbow;
  K = std::min<unsigned>(K, static_cast<unsigned>(Points.size()));

  return evaluate(std::move(Points), Tree.cut(K), Elbow);
}

PipelineResult Pipeline::runWithClustering(const Clustering &Initial) const {
  assert(Initial.Assignment.size() == Db.pipelineInputs().Kept.size() &&
         "clustering must cover the kept codelets");
  return evaluate(buildPoints(), Initial, /*ElbowChoice=*/0);
}

PipelineResult Pipeline::evaluate(FeatureTable Points, Clustering Initial,
                                  unsigned ElbowChoice) const {
  const PipelineInputs &In = Db.pipelineInputs();
  PipelineResult R;
  R.Kept = In.Kept;
  R.Points = std::move(Points);
  R.Mask = Config.Features;
  R.Norm = normalization();
  R.ElbowK = ElbowChoice;
  R.InitialK = Initial.K;
  R.Initial = std::move(Initial);

  // --- Step D: representative selection --------------------------------
  {
    FGBS_TRACE_SPAN("pipeline.select");
    if (Config.ReSelectIllBehaved) {
      auto WellBehaved = [&In](std::size_t Local) {
        return In.WellBehaved[Local] != 0;
      };
      R.Selection = selectRepresentatives(R.Points, R.Initial, WellBehaved,
                                          Config.MedoidRepresentative);
    } else {
      // Plain medoid (or first-member) choice with no agreement test.
      R.Selection.Assignment = R.Initial.Assignment;
      R.Selection.FinalK = R.Initial.K;
      for (const std::vector<std::size_t> &Members : R.Initial.members()) {
        assert(!Members.empty() && "empty cluster in initial clustering");
        std::size_t Pick =
            Config.MedoidRepresentative ? medoidOf(R.Points, Members) : 0;
        R.Selection.Representatives.push_back(Members[Pick]);
      }
    }
  }

  // A suite whose codelets are all ill-behaved yields no representatives
  // and cannot be predicted (paper: MG under per-application subsetting).
  if (R.Selection.FinalK == 0)
    return R;

  // --- Step E: prediction model -----------------------------------------
  FGBS_TRACE_SPAN("pipeline.predict");
  const std::vector<std::size_t> &Reps = R.Selection.Representatives;
  R.Model = PredictionModel::build(In.RefSeconds, R.Selection.Assignment,
                                   Reps);

  // --- Evaluation against every target ----------------------------------
  // Only the predicted side depends on the clustering; the real times and
  // their aggregates come precomputed with the database.
  const Suite &S = Db.suite();
  std::vector<double> RepTimes(Reps.size());
  std::vector<double> AppPredicted;
  for (std::size_t T = 0; T < In.Targets.size(); ++T) {
    const PipelineInputs::Target &Tgt = In.Targets[T];
    TargetEvaluation Eval;
    Eval.MachineName = Db.targets()[T].Name;

    // Representatives measured standalone on the target.
    for (std::size_t C = 0; C < Reps.size(); ++C)
      RepTimes[C] = Tgt.StandaloneMedianSeconds[Reps[C]];
    Eval.Predicted = R.Model.predict(RepTimes);
    Eval.Real = Tgt.RealSeconds;
    Eval.ErrorsPercent = predictionErrorsPercent(Eval.Predicted, Eval.Real);
    Eval.MedianErrorPercent = median(Eval.ErrorsPercent);
    Eval.AverageErrorPercent = mean(Eval.ErrorsPercent);

    // Benchmarking-reduction breakdown (Table 5).
    Eval.Reduction.FullSuiteSeconds = Tgt.FullSuiteSeconds;
    Eval.Reduction.ReducedInvocationSeconds = Tgt.ReducedInvocationSeconds;
    for (std::size_t Local : Reps)
      Eval.Reduction.RepresentativeSeconds += Tgt.StandaloneTotalSeconds[Local];

    // Application-level aggregation, in suite application order.
    Eval.AppNames.reserve(In.Apps.size());
    Eval.AppReference.reserve(In.Apps.size());
    Eval.AppPredicted.reserve(In.Apps.size());
    for (const PipelineInputs::App &App : In.Apps) {
      AppPredicted.clear();
      for (std::size_t Local : App.Members)
        AppPredicted.push_back(Eval.Predicted[Local]);
      Eval.AppNames.push_back(S.Applications[App.Index].Name);
      Eval.AppReference.push_back(App.ReferenceSeconds);
      Eval.AppPredicted.push_back(
          applicationTime(AppPredicted, App.Invocations, App.Coverage));
    }
    Eval.AppReal = Tgt.AppRealSeconds;
    Eval.RealGeomeanSpeedup = Tgt.RealGeomeanSpeedup;
    Eval.PredictedGeomeanSpeedup =
        geometricMeanSpeedup(Eval.AppReference, Eval.AppPredicted);

    R.Targets.push_back(std::move(Eval));
  }
  return R;
}
