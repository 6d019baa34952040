//===- fgbs/core/Pipeline.h - Steps C-E orchestration ----------*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark-reduction pipeline: clustering (step C), representative
/// selection/extraction (step D), prediction and evaluation (step E),
/// over a pre-computed MeasurementDatabase.
///
/// The pipeline is cheap to re-run with different configurations (K,
/// feature mask, linkage, ablation toggles) because all simulation lives
/// in the database, and the database derives the pipeline's inputs
/// (kept codelets, normalized features, per-target times) once: a run
/// copies the masked columns and does only the work that depends on its
/// configuration.  The cluster-count sweeps of Figure 3, the 1000
/// random clusterings of Figure 7 and the Table 2 GA rely on this.
/// core/ReferencePipeline.h keeps the previous implementation as a
/// differential oracle.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_CORE_PIPELINE_H
#define FGBS_CORE_PIPELINE_H

#include "fgbs/analysis/Features.h"
#include "fgbs/cluster/Hierarchical.h"
#include "fgbs/core/Database.h"
#include "fgbs/model/Prediction.h"

#include <string>

namespace fgbs {

/// Pipeline configuration.  Defaults follow the paper: Table 2 features,
/// Ward clustering, Elbow-selected K, medoid representatives with
/// ill-behaved re-selection.
struct PipelineConfig {
  /// Which of the 76 features drive the clustering.
  FeatureMask Features;
  /// Number of clusters; 0 selects K by the Elbow method.
  unsigned K = 0;
  /// Elbow search bound.
  unsigned MaxK = 24;
  double ElbowThreshold = 0.005;
  Linkage LinkageMethod = Linkage::Ward;
  /// Normalize features to zero mean / unit variance (ablation toggle).
  bool Normalize = true;
  /// Re-select representatives that fail the 10% standalone agreement
  /// test (ablation toggle).
  bool ReSelectIllBehaved = true;
  /// Choose the codelet closest to the centroid (ablation toggle; false
  /// picks the first member).
  bool MedoidRepresentative = true;

  /// Selects the Table 2 features (the mask is built once per process).
  PipelineConfig();
};

/// Evaluation of the reduced suite against one target architecture.
struct TargetEvaluation {
  std::string MachineName;
  /// Per kept codelet, seconds per invocation.
  std::vector<double> Predicted;
  std::vector<double> Real;
  std::vector<double> ErrorsPercent;
  double MedianErrorPercent = 0.0;
  double AverageErrorPercent = 0.0;
  ReductionBreakdown Reduction;

  /// Application-level aggregation (whole-app seconds).
  std::vector<std::string> AppNames;
  std::vector<double> AppReference;
  std::vector<double> AppReal;
  std::vector<double> AppPredicted;
  double RealGeomeanSpeedup = 0.0;
  double PredictedGeomeanSpeedup = 0.0;
};

/// Everything a pipeline run produces.
struct PipelineResult {
  /// Database indices of codelets surviving the 1M-cycle filter, in
  /// order; all per-codelet vectors below use this order.
  std::vector<std::size_t> Kept;
  /// Clustering inputs after masking (and normalization if enabled).
  FeatureTable Points;
  /// The feature mask that produced Points (copied from the config so a
  /// result is self-describing — model snapshots persist it).
  FeatureMask Mask;
  /// Normalization applied to the masked columns.  When the config
  /// disables normalization this is the identity (mean 0, std 1), so
  /// consumers can always classify a new vector as (x - Mean) / Std.
  NormalizationStats Norm;
  /// K selected by the Elbow method (even when config.K overrides it).
  unsigned ElbowK = 0;
  /// K actually used for the initial cut.
  unsigned InitialK = 0;
  Clustering Initial;
  /// Final selection (ill-behaved handling may reduce K).
  SelectionResult Selection;
  PredictionModel Model;
  std::vector<TargetEvaluation> Targets;
};

/// The benchmark-reduction pipeline over a measurement database.
class Pipeline {
public:
  Pipeline(const MeasurementDatabase &Db, PipelineConfig Config);

  /// Runs steps C, D and E.
  PipelineResult run() const;

  /// Runs steps D and E on an externally supplied clustering over the
  /// kept codelets (Figure 7's random-clustering baseline).
  PipelineResult runWithClustering(const Clustering &Initial) const;

  /// The masked (and normalized) feature table over kept codelets.
  FeatureTable buildPoints() const;

  const MeasurementDatabase &database() const { return Db; }
  const PipelineConfig &config() const { return Config; }

private:
  PipelineResult evaluate(FeatureTable Points, Clustering Initial,
                          unsigned ElbowChoice) const;

  /// The normalization a result should carry: the masked columns' stats
  /// over the kept codelets, or the identity when normalization is
  /// disabled.
  NormalizationStats normalization() const;

  const MeasurementDatabase &Db;
  PipelineConfig Config;
};

} // namespace fgbs

#endif // FGBS_CORE_PIPELINE_H
