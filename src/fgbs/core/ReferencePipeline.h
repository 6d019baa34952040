//===- fgbs/core/ReferencePipeline.h - Reference steps C-E -----*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The straightforward steps C-E that Pipeline::run replaced, kept as a
/// differential oracle: every run masks and normalizes a fresh copy of
/// the kept codelets' features, clusters over a condensed distance
/// matrix, keeps each dendrogram node's feature sums in its own vector,
/// sorts representative candidates with a comparator that recomputes
/// centroid distances, and looks every measurement up in the database.
/// The differential tests and bench/perf_library compare Pipeline
/// against it; the library itself never calls it.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_CORE_REFERENCEPIPELINE_H
#define FGBS_CORE_REFERENCEPIPELINE_H

#include "fgbs/core/Pipeline.h"

namespace fgbs {

/// Runs steps C, D and E of \p Config over \p Db the reference way.
/// Pipeline(Db, Config).run() must return the same result, bit for bit.
PipelineResult referencePipelineRun(const MeasurementDatabase &Db,
                                    const PipelineConfig &Config);

/// The reference NN-chain clusterer referencePipelineRun() uses, over a
/// condensed distance matrix.  hierarchicalCluster() must return the
/// same merges with the same height bits.
Dendrogram referenceHierarchicalCluster(const FeatureTable &Points,
                                        Linkage Method);

} // namespace fgbs

#endif // FGBS_CORE_REFERENCEPIPELINE_H
