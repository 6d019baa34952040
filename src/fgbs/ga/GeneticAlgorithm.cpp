//===- fgbs/ga/GeneticAlgorithm.cpp - Binary genetic algorithm ------------===//

#include "fgbs/ga/GeneticAlgorithm.h"

#include "fgbs/obs/Trace.h"
#include "fgbs/support/Rng.h"
#include "fgbs/support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <numeric>
#include <utility>

using namespace fgbs;

namespace {

/// Packs \p C into 64-bit words, bit I of the chromosome in bit I % 64 of
/// word I / 64 (\p Out holds (C.size() + 63) / 64 words).
void packChromosome(const Chromosome &C, std::uint64_t *Out) {
  std::uint64_t Word = 0;
  unsigned Bits = 0;
  for (std::size_t I = 0; I < C.size(); ++I) {
    Word |= static_cast<std::uint64_t>(C[I]) << Bits;
    if (++Bits == 64) {
      *Out++ = Word;
      Word = 0;
      Bits = 0;
    }
  }
  if (Bits > 0)
    *Out = Word;
}

/// hashChromosome() of a chromosome of \p Length bits packed into
/// \p Words by packChromosome().
std::uint64_t hashPacked(std::size_t Length, const std::uint64_t *Words,
                         std::size_t NumWords) {
  std::uint64_t Hash = hashU64(Length);
  for (std::size_t W = 0; W < NumWords; ++W)
    Hash = hashCombine(Hash, Words[W]);
  return Hash;
}

/// The fitness memo: an open-addressing hash set of packed chromosomes.
/// Entries are numbered in insertion order; each keeps its packed words
/// and its fitness.  A lookup hashes and compares whole words, and an
/// insertion allocates nothing once the arrays have grown.
class FitnessMemo {
public:
  explicit FitnessMemo(std::size_t Length)
      : Length(Length), NumWords((Length + 63) / 64), Slots(1024, Empty) {}

  std::size_t size() const { return Values.size(); }
  double &value(std::size_t Entry) { return Values[Entry]; }

  /// The entry holding \p Key, inserting it (with fitness 0) when absent.
  /// \returns the entry and whether it was inserted.
  std::pair<std::size_t, bool> findOrInsert(const std::uint64_t *Key) {
    if (2 * (Values.size() + 1) > Slots.size())
      grow();
    std::size_t Mask = Slots.size() - 1;
    for (std::size_t Slot = hashPacked(Length, Key, NumWords) & Mask;;
         Slot = (Slot + 1) & Mask) {
      std::uint32_t Entry = Slots[Slot];
      if (Entry == Empty) {
        Slots[Slot] = static_cast<std::uint32_t>(Values.size());
        Keys.insert(Keys.end(), Key, Key + NumWords);
        Values.push_back(0.0);
        return {Values.size() - 1, true};
      }
      if (std::equal(Key, Key + NumWords, Keys.data() + Entry * NumWords))
        return {Entry, false};
    }
  }

private:
  static constexpr std::uint32_t Empty = UINT32_MAX;

  void grow() {
    std::vector<std::uint32_t> Bigger(2 * Slots.size(), Empty);
    std::size_t Mask = Bigger.size() - 1;
    for (std::size_t Entry = 0; Entry < Values.size(); ++Entry) {
      std::size_t Slot =
          hashPacked(Length, Keys.data() + Entry * NumWords, NumWords) & Mask;
      while (Bigger[Slot] != Empty)
        Slot = (Slot + 1) & Mask;
      Bigger[Slot] = static_cast<std::uint32_t>(Entry);
    }
    Slots = std::move(Bigger);
  }

  std::size_t Length;
  std::size_t NumWords;
  std::vector<std::uint32_t> Slots; ///< Entry per slot, or Empty.
  std::vector<std::uint64_t> Keys;  ///< NumWords per entry.
  std::vector<double> Values;       ///< Fitness per entry.
};

} // namespace

std::uint64_t fgbs::hashChromosome(const Chromosome &C) {
  std::vector<std::uint64_t> Words((C.size() + 63) / 64);
  packChromosome(C, Words.data());
  return hashPacked(C.size(), Words.data(), Words.size());
}

GaResult fgbs::runGa(const GaConfig &Config, const FitnessFn &Fitness) {
  FGBS_TRACE_SPAN("ga.run");
  assert(Config.ChromosomeLength > 0 && "empty chromosomes");
  assert(Config.PopulationSize >= 2 && "population too small");
  assert(Config.TournamentSize >= 1 && "tournament too small");

  Rng Generator(Config.Seed);
  GaResult Result;

  unsigned Threads =
      Config.Threads > 0 ? Config.Threads : ThreadPool::defaultThreadCount();
  std::unique_ptr<ThreadPool> Pool;
  if (Threads > 1)
    Pool = std::make_unique<ThreadPool>(Threads);

  FitnessMemo Cache(Config.ChromosomeLength);
  const std::size_t NumWords = (Config.ChromosomeLength + 63) / 64;
  std::vector<std::uint64_t> Packed(NumWords);

  // Random initial population.
  std::vector<Chromosome> Population(Config.PopulationSize);
  for (Chromosome &C : Population) {
    C.resize(Config.ChromosomeLength);
    for (std::size_t B = 0; B < C.size(); ++B)
      C[B] = Generator.bernoulli(0.5);
  }

  std::vector<double> Scores(Config.PopulationSize);

  // Scores the whole generation.  Evaluations within a generation are
  // independent, so they fan out over the pool; everything that affects
  // determinism — which chromosomes get evaluated, the evaluation count,
  // and the cache merge — happens on this thread, so any thread count
  // produces identical results.
  auto EvaluateGeneration = [&] {
    FGBS_SCOPED_TIMER("ga.generation_eval");
    if (!Config.CacheFitness) {
      auto EvalOne = [&](std::size_t I) { Scores[I] = Fitness(Population[I]); };
      if (Pool)
        Pool->parallelFor(0, Population.size(), EvalOne);
      else
        for (std::size_t I = 0; I < Population.size(); ++I)
          EvalOne(I);
      Result.Evaluations += Population.size();
      FGBS_COUNTER_ADD("ga.fitness_evals", Population.size());
      return;
    }

    // Serial pass: satisfy cache hits, dedupe the misses in first-
    // occurrence order (matching the historical serial call order).  A
    // miss enters the memo at once; the entries this generation adds are
    // exactly its pending evaluations, in order.
    const std::size_t FirstNew = Cache.size();
    std::vector<const Chromosome *> Pending;
    std::vector<std::size_t> SlotOf(Population.size(), SIZE_MAX);
    std::size_t CacheHits = 0;
    for (std::size_t I = 0; I < Population.size(); ++I) {
      packChromosome(Population[I], Packed.data());
      auto [Entry, IsNew] = Cache.findOrInsert(Packed.data());
      if (Entry < FirstNew) {
        Scores[I] = Cache.value(Entry);
        ++CacheHits;
        continue;
      }
      if (IsNew)
        Pending.push_back(&Population[I]);
      SlotOf[I] = Entry - FirstNew;
    }
    // Memo hit rate = cache_hits / (cache_hits + cache_misses); the
    // deduped re-occurrences within one generation count as hits too.
    FGBS_COUNTER_ADD("ga.cache_hits",
                     CacheHits + (Population.size() - CacheHits -
                                  Pending.size()));
    FGBS_COUNTER_ADD("ga.cache_misses", Pending.size());
    FGBS_COUNTER_ADD("ga.fitness_evals", Pending.size());

    std::vector<double> PendingScore(Pending.size());
    auto EvalPending = [&](std::size_t P) {
      PendingScore[P] = Fitness(*Pending[P]);
    };
    if (Pool)
      Pool->parallelFor(0, Pending.size(), EvalPending);
    else
      for (std::size_t P = 0; P < Pending.size(); ++P)
        EvalPending(P);
    Result.Evaluations += Pending.size();

    // Fill the new memo entries after the parallel region.
    for (std::size_t P = 0; P < Pending.size(); ++P)
      Cache.value(FirstNew + P) = PendingScore[P];
    for (std::size_t I = 0; I < Population.size(); ++I)
      if (SlotOf[I] != SIZE_MAX)
        Scores[I] = PendingScore[SlotOf[I]];
  };

  // Elites survive unchanged: at least one, at most the whole population
  // (a fraction outside [0, 1] is clamped, never converted out of range).
  double EliteShare =
      Config.EliteFraction * static_cast<double>(Config.PopulationSize);
  std::size_t Elite = 1;
  if (EliteShare >= static_cast<double>(Config.PopulationSize))
    Elite = Config.PopulationSize;
  else if (EliteShare >= 1.0)
    Elite = static_cast<std::size_t>(EliteShare);

  double BestEver = 0.0;
  bool HaveBest = false;

  for (unsigned Gen = 0; Gen < Config.Generations; ++Gen) {
    FGBS_COUNTER_ADD("ga.generations", 1);
    EvaluateGeneration();

    // Rank by ascending fitness (minimization).
    std::vector<std::size_t> Order(Population.size());
    std::iota(Order.begin(), Order.end(), 0);
    std::stable_sort(Order.begin(), Order.end(),
                     [&Scores](std::size_t A, std::size_t B) {
                       return Scores[A] < Scores[B];
                     });

    double GenBest = Scores[Order.front()];
    if (!HaveBest || GenBest < BestEver) {
      BestEver = GenBest;
      Result.Best = Population[Order.front()];
      Result.ConvergedAtGeneration = Gen;
      HaveBest = true;
    }
    Result.BestHistory.push_back(BestEver);

    if (Gen + 1 == Config.Generations)
      break;

    // Next generation: elites survive, the rest are bred.
    std::vector<Chromosome> Next;
    Next.reserve(Population.size());
    for (std::size_t E = 0; E < Elite; ++E)
      Next.push_back(Population[Order[E]]);

    auto SelectParent = [&]() -> const Chromosome & {
      std::size_t Best = Generator.below(Population.size());
      for (unsigned T = 1; T < Config.TournamentSize; ++T) {
        std::size_t Candidate = Generator.below(Population.size());
        if (Scores[Candidate] < Scores[Best])
          Best = Candidate;
      }
      return Population[Best];
    };

    while (Next.size() < Population.size()) {
      const Chromosome &A = SelectParent();
      const Chromosome &B = SelectParent();
      Chromosome Child(Config.ChromosomeLength);
      for (std::size_t Bit = 0; Bit < Child.size(); ++Bit) {
        // Uniform crossover, then per-bit mutation.
        bool Gene = Generator.bernoulli(0.5) ? A[Bit] : B[Bit];
        if (Generator.bernoulli(Config.MutationProbability))
          Gene = !Gene;
        Child[Bit] = Gene;
      }
      Next.push_back(std::move(Child));
    }
    Population = std::move(Next);
  }

  Result.BestFitness = BestEver;
  return Result;
}
