//===- fgbs/support/Rng.cpp - Deterministic random numbers ---------------===//

#include "fgbs/support/Rng.h"

#include <cmath>

using namespace fgbs;

std::uint64_t fgbs::splitMix64(std::uint64_t &State) {
  State += 0x9E3779B97F4A7C15ULL;
  std::uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

std::uint64_t fgbs::hashU64(std::uint64_t Value) {
  std::uint64_t State = Value;
  return splitMix64(State);
}

std::uint64_t fgbs::hashCombine(std::uint64_t A, std::uint64_t B) {
  return hashU64(A ^ (B + 0x9E3779B97F4A7C15ULL + (A << 6) + (A >> 2)));
}

std::uint64_t fgbs::hashString(const char *Str) {
  assert(Str && "hashString requires a non-null string");
  std::uint64_t Hash = 0xCBF29CE484222325ULL;
  for (const char *P = Str; *P; ++P) {
    Hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(*P));
    Hash *= 0x100000001B3ULL;
  }
  return hashU64(Hash);
}

Rng::Rng(std::uint64_t Seed) {
  std::uint64_t Sm = Seed;
  for (std::uint64_t &Word : State)
    Word = splitMix64(Sm);
}

double Rng::uniformIn(double Lo, double Hi) {
  assert(Lo <= Hi && "empty interval");
  return Lo + (Hi - Lo) * uniform();
}

std::uint64_t Rng::below(std::uint64_t Bound) {
  assert(Bound > 0 && "below() requires a positive bound");
  // Rejection sampling to avoid modulo bias.
  std::uint64_t Threshold = (0ULL - Bound) % Bound;
  for (;;) {
    std::uint64_t Value = nextU64();
    if (Value >= Threshold)
      return Value % Bound;
  }
}

double Rng::normal() {
  if (HasCachedNormal) {
    HasCachedNormal = false;
    return CachedNormal;
  }
  // Box-Muller transform; U1 in (0, 1] to keep the log finite.
  double U1 = 1.0 - uniform();
  double U2 = uniform();
  double Radius = std::sqrt(-2.0 * std::log(U1));
  double Angle = 2.0 * M_PI * U2;
  CachedNormal = Radius * std::sin(Angle);
  HasCachedNormal = true;
  return Radius * std::cos(Angle);
}

double Rng::normal(double Mean, double Sigma) {
  assert(Sigma >= 0.0 && "negative standard deviation");
  return Mean + Sigma * normal();
}

std::vector<std::size_t> Rng::sampleWithoutReplacement(std::size_t Bound,
                                                       std::size_t Count) {
  assert(Count <= Bound && "cannot sample more values than exist");
  std::vector<std::size_t> All(Bound);
  for (std::size_t I = 0; I < Bound; ++I)
    All[I] = I;
  shuffle(All);
  All.resize(Count);
  return All;
}
