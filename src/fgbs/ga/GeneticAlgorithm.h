//===- fgbs/ga/GeneticAlgorithm.h - Binary genetic algorithm ---*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A binary-chromosome genetic algorithm, standing in for the GNU R
/// `genalg` package the paper uses for feature selection (section 4.2):
/// individuals are 76-bit vectors (bit i set <=> feature i selected),
/// evolved with elitism, tournament selection, uniform crossover, and
/// per-bit mutation.  Fitness is MINIMIZED, matching genalg's convention
/// and the paper's fitness max(err_atom, err_sandybridge) * K.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_GA_GENETICALGORITHM_H
#define FGBS_GA_GENETICALGORITHM_H

#include <cstdint>
#include <functional>
#include <vector>

namespace fgbs {

/// A binary chromosome.
using Chromosome = std::vector<bool>;

/// Fitness evaluator; lower is better.  Must be deterministic, and
/// thread-safe when the GA runs with more than one evaluation thread
/// (evaluations within a generation are issued concurrently).
using FitnessFn = std::function<double(const Chromosome &)>;

/// Well-mixed 64-bit hash of a chromosome (bits packed into 64-bit words,
/// each word mixed through SplitMix64).  Adjacent-bit swaps, which the
/// old additive mixing collided on, land in different buckets.  The
/// fitness memo hashes its packed keys the same way; exposed for the
/// collision tests.
std::uint64_t hashChromosome(const Chromosome &C);

/// GA configuration.  Defaults follow the paper: population 1000, 100
/// generations, mutation probability 0.01.
struct GaConfig {
  std::size_t ChromosomeLength = 76;
  std::size_t PopulationSize = 1000;
  unsigned Generations = 100;
  double MutationProbability = 0.01;
  /// Fraction of the population surviving unchanged (genalg elitism).
  /// At least one individual survives and at most the whole population.
  double EliteFraction = 0.20;
  /// Tournament size for parent selection.
  unsigned TournamentSize = 3;
  std::uint64_t Seed = 0x5eedf00d;
  /// Fitness values are memoized per chromosome (the fitness must be a
  /// pure function); disable only to measure raw evaluation counts.
  bool CacheFitness = true;
  /// Threads evaluating fitness within a generation.  0 = auto (the
  /// FGBS_THREADS environment variable, else hardware_concurrency());
  /// 1 = strictly serial, reproducing the historical single-threaded
  /// evaluation order exactly.  Any thread count yields identical
  /// results (Best, BestHistory, Evaluations) because selection,
  /// breeding, and the memo-cache merge stay on the caller thread.
  unsigned Threads = 0;
};

/// GA outcome.
struct GaResult {
  Chromosome Best;
  double BestFitness = 0.0;
  /// Best fitness after each generation (Generations entries).
  std::vector<double> BestHistory;
  /// Generation index at which the final best first appeared.
  unsigned ConvergedAtGeneration = 0;
  /// Number of (non-memoized) fitness evaluations performed.
  std::uint64_t Evaluations = 0;
};

/// Runs the GA.  Deterministic given the config seed.
GaResult runGa(const GaConfig &Config, const FitnessFn &Fitness);

} // namespace fgbs

#endif // FGBS_GA_GENETICALGORITHM_H
