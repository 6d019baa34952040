//===- fgbs/core/MeasurementCache.cpp - fgbs.meas.v1 cache ----------------===//
//
// Payload field order (after the 28-byte header; all integers
// little-endian, doubles as little-endian IEEE-754 bit patterns):
//
//   u64   content key (must equal the key derived from the live inputs)
//   str   suite name
//   str   reference machine name
//   u32 T, T x str      target machine names
//   u32 P               dispatch-port count (this build: NumPorts)
//   u32 N               codelet count
//   N x { str name, u8 discarded, meas InApp, u32 F, F x f64 features }
//   N x sa              standalone measurements on the reference
//   T x N x meas        ground-truth in-app measurements per target
//   T x N x sa          standalone measurements per target
//
// where str = u32 byte length + bytes,
//       meas = f64 TrueSeconds, f64 MeasuredSeconds, f64 MemCyclesPerIter,
//              11 x f64 performance counters (Cycles, Uops, FpOpsSP,
//              FpOpsDP, L1Accesses, L2LinesIn, L3LinesIn, MemLinesIn,
//              LoadBytes, StoreBytes, Seconds),
//              P x f64 port cycles + 6 x f64 compute-bound fields
//              (MaxPortCycles, IssueCycles, DepCycles, DividerCycles,
//              Uops, ComputeCycles),
//       sa   = f64 MedianSeconds, f64 TrueSeconds, u64 Invocations,
//              f64 TotalBenchmarkSeconds.
//
// A v1.(M>0) writer appends new fields after these; this v1.0 reader
// skips such trailing payload bytes, but rejects them on files claiming
// minor version 0 (the fgbs.model.v1 compatibility policy).
//
//===----------------------------------------------------------------------===//

#include "fgbs/core/MeasurementCache.h"

#include "fgbs/core/RemoteCacheBackend.h"
#include "fgbs/core/TieredCacheBackend.h"
#include "fgbs/obs/Metrics.h"
#include "fgbs/support/BinaryIo.h"
#include "fgbs/support/Crc32.h"
#include "fgbs/support/Rng.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace fgbs;
using namespace fgbs::binio;

//===----------------------------------------------------------------------===//
// Content key derivation
//===----------------------------------------------------------------------===//

namespace {

std::uint64_t hashF64(std::uint64_t Key, double V) {
  return hashCombine(Key, std::bit_cast<std::uint64_t>(V));
}

std::uint64_t hashStr(std::uint64_t Key, const std::string &S) {
  return hashCombine(Key, hashString(S.c_str()));
}

std::uint64_t hashAccess(std::uint64_t Key, const Access &A) {
  Key = hashCombine(Key, A.ArrayIndex);
  Key = hashCombine(Key, static_cast<std::uint64_t>(A.Stride));
  Key = hashCombine(Key, static_cast<std::uint64_t>(A.StrideElems));
  return hashCombine(Key, A.PointsPerIter);
}

std::uint64_t hashExpr(std::uint64_t Key, const Expr &E) {
  Key = hashCombine(Key, static_cast<std::uint64_t>(E.Kind));
  Key = hashCombine(Key, static_cast<std::uint64_t>(E.Prec));
  switch (E.Kind) {
  case ExprKind::Load:
    return hashAccess(Key, E.Ref);
  case ExprKind::Constant:
    return Key;
  case ExprKind::Binary:
    Key = hashCombine(Key, static_cast<std::uint64_t>(E.Bin));
    Key = hashExpr(Key, *E.Lhs);
    return hashExpr(Key, *E.Rhs);
  case ExprKind::Unary:
    Key = hashCombine(Key, static_cast<std::uint64_t>(E.Un));
    return hashExpr(Key, *E.Lhs);
  }
  return Key;
}

std::uint64_t hashCodelet(std::uint64_t Key, const Codelet &C) {
  Key = hashStr(Key, C.Name);
  Key = hashStr(Key, C.App);
  Key = hashCombine(Key, C.Arrays.size());
  for (const ArrayDecl &A : C.Arrays) {
    Key = hashStr(Key, A.Name);
    Key = hashCombine(Key, static_cast<std::uint64_t>(A.Elem));
    Key = hashCombine(Key, A.NumElements);
  }
  Key = hashCombine(Key, C.Nest.InnerTripCount);
  Key = hashCombine(Key, C.Nest.OuterIterations);
  Key = hashCombine(Key, C.Body.size());
  for (const Stmt &S : C.Body) {
    Key = hashCombine(Key, static_cast<std::uint64_t>(S.Kind));
    Key = hashAccess(Key, S.Target);
    Key = hashCombine(Key, static_cast<std::uint64_t>(S.ReduceOp));
    if (S.Rhs)
      Key = hashExpr(Key, *S.Rhs);
  }
  Key = hashCombine(Key, C.Invocations.size());
  for (const InvocationGroup &G : C.Invocations) {
    Key = hashCombine(Key, G.Count);
    Key = hashF64(Key, G.DatasetScale);
  }
  std::uint64_t TraitBits =
      (static_cast<std::uint64_t>(C.Traits.CompilationContextSensitive) << 1) |
      static_cast<std::uint64_t>(C.Traits.CacheStateSensitive);
  return hashCombine(Key, TraitBits);
}

std::uint64_t hashMachine(std::uint64_t Key, const Machine &M) {
  Key = hashStr(Key, M.Name);
  Key = hashStr(Key, M.Cpu);
  Key = hashF64(Key, M.FrequencyGHz);
  Key = hashCombine(Key, M.Cores);
  Key = hashCombine(Key, M.RamGB);
  Key = hashCombine(Key, (static_cast<std::uint64_t>(M.OutOfOrder) << 32) |
                             (static_cast<std::uint64_t>(M.IssueWidth) << 16) |
                             M.VectorBits);
  Key = hashCombine(Key, M.NumFpRegisters);
  const CoreTimings &T = M.Timings;
  for (double V : {T.FpAddLatency, T.FpMulLatency, T.FpDivLatencySP,
                   T.FpDivLatencyDP, T.FpSqrtLatency, T.FpExpCost,
                   T.IntAddLatency, T.IntMulLatency,
                   T.VectorFpThroughputFactor, T.VectorDpThroughputFactor})
    Key = hashF64(Key, V);
  Key = hashCombine(Key, M.CacheLevels.size());
  for (const CacheLevelConfig &L : M.CacheLevels) {
    Key = hashStr(Key, L.Name);
    Key = hashCombine(Key, L.SizeBytes);
    Key = hashCombine(Key, (static_cast<std::uint64_t>(L.Associativity) << 32) |
                               L.LineBytes);
    Key = hashF64(Key, L.LatencyCycles);
    Key = hashF64(Key, L.BandwidthBytesPerCycle);
  }
  Key = hashF64(Key, M.MemLatencyCycles);
  Key = hashF64(Key, M.MemBandwidthGBs);
  return Key;
}

} // namespace

std::uint64_t fgbs::measurementKey(const Suite &S, const Machine &Reference,
                                   const std::vector<Machine> &Targets,
                                   const TimingPolicy &Policy) {
  // Seed with the format name so key spaces of future schemes differ.
  std::uint64_t Key = hashString("fgbs.meas.v1");
  Key = hashStr(Key, S.Name);
  std::vector<const Codelet *> Codelets = S.allCodelets();
  Key = hashCombine(Key, Codelets.size());
  for (const Codelet *C : Codelets)
    Key = hashCodelet(Key, *C);
  Key = hashMachine(Key, Reference);
  Key = hashCombine(Key, Targets.size());
  for (const Machine &M : Targets)
    Key = hashMachine(Key, M);
  Key = hashF64(Key, Policy.MinRunSeconds);
  Key = hashCombine(Key, Policy.MinInvocations);
  return Key;
}

std::string fgbs::measurementCacheFileName(std::uint64_t Key) {
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(Key));
  return std::string("fgbs-meas-") + Hex + ".v1";
}

const char *fgbs::measurementCacheErrorName(MeasurementCacheError E) {
  switch (E) {
  case MeasurementCacheError::None:
    return "none";
  case MeasurementCacheError::Io:
    return "io";
  case MeasurementCacheError::Truncated:
    return "truncated";
  case MeasurementCacheError::BadMagic:
    return "bad_magic";
  case MeasurementCacheError::UnsupportedVersion:
    return "unsupported_version";
  case MeasurementCacheError::ChecksumMismatch:
    return "checksum_mismatch";
  case MeasurementCacheError::KeyMismatch:
    return "key_mismatch";
  case MeasurementCacheError::Malformed:
    return "malformed";
  case MeasurementCacheError::InvalidValue:
    return "invalid_value";
  case MeasurementCacheError::LockTimeout:
    return "lock_timeout";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {

// Single-measurement encoders/decoders (the `m` and `sa` records of the
// payload layout above).  The readers return false on a non-finite or
// non-positive value; truncation is reported through the reader's
// overrun flag.

void putMeasurement(std::string &Out, const Measurement &M) {
  putF64(Out, M.TrueSeconds);
  putF64(Out, M.MeasuredSeconds);
  putF64(Out, M.MemCyclesPerIter);
  const PerfCounters &C = M.Counters;
  for (double V : {C.Cycles, C.Uops, C.FpOpsSP, C.FpOpsDP, C.L1Accesses,
                   C.L2LinesIn, C.L3LinesIn, C.MemLinesIn, C.LoadBytes,
                   C.StoreBytes, C.Seconds})
    putF64(Out, V);
  for (double V : M.Compute.PortCycles)
    putF64(Out, V);
  for (double V : {M.Compute.MaxPortCycles, M.Compute.IssueCycles,
                   M.Compute.DepCycles, M.Compute.DividerCycles,
                   M.Compute.Uops, M.Compute.ComputeCycles})
    putF64(Out, V);
}

void putStandalone(std::string &Out, const StandaloneMeasurement &S) {
  putF64(Out, S.MedianSeconds);
  putF64(Out, S.TrueSeconds);
  putU64(Out, S.Invocations);
  putF64(Out, S.TotalBenchmarkSeconds);
}

bool readMeasurement(ByteReader &In, Measurement &M) {
  M.TrueSeconds = In.f64();
  M.MeasuredSeconds = In.f64();
  M.MemCyclesPerIter = In.f64();
  PerfCounters &C = M.Counters;
  for (double *V : {&C.Cycles, &C.Uops, &C.FpOpsSP, &C.FpOpsDP, &C.L1Accesses,
                    &C.L2LinesIn, &C.L3LinesIn, &C.MemLinesIn, &C.LoadBytes,
                    &C.StoreBytes, &C.Seconds})
    *V = In.f64();
  for (double &V : M.Compute.PortCycles)
    V = In.f64();
  for (double *V :
       {&M.Compute.MaxPortCycles, &M.Compute.IssueCycles, &M.Compute.DepCycles,
        &M.Compute.DividerCycles, &M.Compute.Uops, &M.Compute.ComputeCycles})
    *V = In.f64();
  if (In.overrun())
    return true; // Truncation is reported by the caller, not here.
  for (double V : {M.TrueSeconds, M.MeasuredSeconds, M.MemCyclesPerIter,
                   C.Cycles, C.Uops, C.FpOpsSP, C.FpOpsDP, C.L1Accesses,
                   C.L2LinesIn, C.L3LinesIn, C.MemLinesIn, C.LoadBytes,
                   C.StoreBytes, C.Seconds, M.Compute.ComputeCycles})
    if (!std::isfinite(V))
      return false;
  return M.TrueSeconds > 0.0 && M.MeasuredSeconds > 0.0;
}

bool readStandalone(ByteReader &In, StandaloneMeasurement &S) {
  S.MedianSeconds = In.f64();
  S.TrueSeconds = In.f64();
  S.Invocations = In.u64();
  S.TotalBenchmarkSeconds = In.f64();
  if (In.overrun())
    return true;
  if (!std::isfinite(S.MedianSeconds) || !std::isfinite(S.TrueSeconds) ||
      !std::isfinite(S.TotalBenchmarkSeconds))
    return false;
  return S.MedianSeconds > 0.0 && S.TrueSeconds > 0.0 && S.Invocations >= 1;
}

MeasurementLoadResult failed(MeasurementCacheError E, std::string Message) {
  MeasurementLoadResult R;
  R.Error = E;
  R.Message = std::move(Message);
  return R;
}

} // namespace

std::string fgbs::serializeMeasurements(const MeasurementDatabase &Db,
                                        std::uint64_t Key) {
  std::string Payload;
  putU64(Payload, Key);
  putStr(Payload, Db.suite().Name);
  putStr(Payload, Db.reference().Name);

  putU32(Payload, static_cast<std::uint32_t>(Db.targets().size()));
  for (const Machine &M : Db.targets())
    putStr(Payload, M.Name);

  putU32(Payload, NumPorts);
  const std::size_t N = Db.numCodelets();
  putU32(Payload, static_cast<std::uint32_t>(N));
  for (std::size_t I = 0; I < N; ++I) {
    const CodeletProfile &P = Db.profile(I);
    putStr(Payload, P.C->Name);
    Payload.push_back(P.Discarded ? 1 : 0);
    putMeasurement(Payload, P.InApp);
    putU32(Payload, static_cast<std::uint32_t>(P.Features.size()));
    for (double V : P.Features)
      putF64(Payload, V);
  }
  for (std::size_t I = 0; I < N; ++I)
    putStandalone(Payload, Db.standaloneRef(I));
  for (std::size_t T = 0; T < Db.targets().size(); ++T)
    for (std::size_t I = 0; I < N; ++I)
      putMeasurement(Payload, Db.realTargetMeasurement(I, T));
  for (std::size_t T = 0; T < Db.targets().size(); ++T)
    for (std::size_t I = 0; I < N; ++I)
      putStandalone(Payload, Db.standaloneTarget(I, T));

  std::string Out;
  Out.reserve(kMeasurementHeaderBytes + Payload.size());
  Out.append(kMeasurementMagic, sizeof(kMeasurementMagic));
  putU32(Out, kMeasurementVersionMajor);
  putU32(Out, kMeasurementVersionMinor);
  putU64(Out, Payload.size());
  putU32(Out, crc32(Payload));
  Out.append(Payload);
  return Out;
}

MeasurementLoadResult fgbs::parseMeasurements(std::string_view Bytes,
                                              const Suite &S, Machine Reference,
                                              std::vector<Machine> Targets,
                                              std::uint64_t ExpectedKey) {
  if (Bytes.size() >= sizeof(kMeasurementMagic) &&
      std::memcmp(Bytes.data(), kMeasurementMagic,
                  sizeof(kMeasurementMagic)) != 0)
    return failed(MeasurementCacheError::BadMagic,
                  "not an fgbs.meas measurement cache");
  if (Bytes.size() < kMeasurementHeaderBytes)
    return failed(MeasurementCacheError::Truncated,
                  "file shorter than the measurement-cache header");

  ByteReader Header(
      Bytes.substr(sizeof(kMeasurementMagic),
                   kMeasurementHeaderBytes - sizeof(kMeasurementMagic)));
  std::uint32_t Major = Header.u32();
  std::uint32_t Minor = Header.u32();
  std::uint64_t PayloadSize = Header.u64();
  std::uint32_t Crc = Header.u32();

  if (Major != kMeasurementVersionMajor)
    return failed(MeasurementCacheError::UnsupportedVersion,
                  "measurement-cache major version " + std::to_string(Major) +
                      " (this reader speaks " +
                      std::to_string(kMeasurementVersionMajor) + ")");

  std::string_view Payload = Bytes.substr(kMeasurementHeaderBytes);
  if (Payload.size() < PayloadSize)
    return failed(MeasurementCacheError::Truncated,
                  "payload shorter than the header announces");
  if (Payload.size() > PayloadSize)
    return failed(MeasurementCacheError::Malformed,
                  "trailing bytes after the announced payload");
  if (crc32(Payload) != Crc)
    return failed(MeasurementCacheError::ChecksumMismatch,
                  "payload bytes do not match the stored CRC-32");

  ByteReader In(Payload);
  std::uint64_t StoredKey = In.u64();
  if (In.overrun())
    return failed(MeasurementCacheError::Truncated, "payload ends in the key");
  if (StoredKey != ExpectedKey)
    return failed(MeasurementCacheError::KeyMismatch,
                  "stored content key does not match the live suite, "
                  "machines, and timing policy");

  std::string SuiteName = In.str();
  std::string ReferenceName = In.str();
  if (In.overrun())
    return failed(MeasurementCacheError::Malformed, "damaged identity block");
  if (SuiteName != S.Name || ReferenceName != Reference.Name)
    return failed(MeasurementCacheError::KeyMismatch,
                  "stored suite/reference names do not match the live "
                  "objects");

  std::uint32_t T = In.u32();
  if (In.overrun() || T != Targets.size())
    return failed(MeasurementCacheError::KeyMismatch,
                  "stored target count does not match");
  for (std::uint32_t I = 0; I < T; ++I)
    if (In.str() != Targets[I].Name)
      return failed(MeasurementCacheError::KeyMismatch,
                    "stored target names do not match");

  std::uint32_t Ports = In.u32();
  if (In.overrun() || Ports != NumPorts)
    return failed(MeasurementCacheError::Malformed,
                  "dispatch-port count does not match this build");

  std::vector<const Codelet *> Codelets = S.allCodelets();
  std::uint32_t N = In.u32();
  if (In.overrun() || N != Codelets.size())
    return failed(MeasurementCacheError::KeyMismatch,
                  "stored codelet count does not match the suite");

  std::vector<CodeletProfile> Profiles(N);
  for (std::uint32_t I = 0; I < N; ++I) {
    CodeletProfile &P = Profiles[I];
    std::string Name = In.str();
    if (In.overrun())
      return failed(MeasurementCacheError::Malformed,
                    "payload ends inside the profile block");
    if (Name != Codelets[I]->Name)
      return failed(MeasurementCacheError::KeyMismatch,
                    "stored codelet order does not match the suite");
    P.C = Codelets[I];
    std::uint8_t Discarded = In.u8();
    if (Discarded > 1)
      return failed(MeasurementCacheError::Malformed,
                    "discarded flag is neither 0 nor 1");
    P.Discarded = Discarded != 0;
    if (!readMeasurement(In, P.InApp))
      return failed(MeasurementCacheError::InvalidValue,
                    "invalid in-application profile measurement");
    std::uint32_t F = In.u32();
    if (In.overrun() || F > In.remaining() / 8)
      return failed(MeasurementCacheError::Malformed,
                    "damaged feature vector");
    P.Features = In.f64Vector(F);
    for (double V : P.Features)
      if (!std::isfinite(V))
        return failed(MeasurementCacheError::InvalidValue,
                      "non-finite feature value");
  }

  std::vector<StandaloneMeasurement> StandaloneRef(N);
  for (std::uint32_t I = 0; I < N; ++I)
    if (!readStandalone(In, StandaloneRef[I]))
      return failed(MeasurementCacheError::InvalidValue,
                    "invalid reference standalone measurement");

  std::vector<std::vector<Measurement>> Real(T, std::vector<Measurement>(N));
  for (std::uint32_t Tgt = 0; Tgt < T; ++Tgt)
    for (std::uint32_t I = 0; I < N; ++I)
      if (!readMeasurement(In, Real[Tgt][I]))
        return failed(MeasurementCacheError::InvalidValue,
                      "invalid target ground-truth measurement");

  std::vector<std::vector<StandaloneMeasurement>> StandaloneTgt(
      T, std::vector<StandaloneMeasurement>(N));
  for (std::uint32_t Tgt = 0; Tgt < T; ++Tgt)
    for (std::uint32_t I = 0; I < N; ++I)
      if (!readStandalone(In, StandaloneTgt[Tgt][I]))
        return failed(MeasurementCacheError::InvalidValue,
                      "invalid target standalone measurement");

  if (In.overrun())
    return failed(MeasurementCacheError::Truncated,
                  "payload ends inside a measurement field");

  // Minor-version forward compatibility: a newer writer appends fields
  // we skip; a file of our own minor version must end exactly here.
  if (Minor <= kMeasurementVersionMinor && !In.atEnd())
    return failed(MeasurementCacheError::Malformed,
                  "trailing garbage after the last measurement field");

  MeasurementLoadResult R;
  R.Db = std::make_unique<MeasurementDatabase>(
      S, std::move(Reference), std::move(Targets), std::move(Profiles),
      std::move(Real), std::move(StandaloneRef), std::move(StandaloneTgt));
  return R;
}

bool fgbs::saveMeasurementsFile(const std::string &Path,
                                const MeasurementDatabase &Db,
                                std::uint64_t Key) {
  return atomicWriteFile(Path, serializeMeasurements(Db, Key));
}

MeasurementLoadResult fgbs::loadMeasurementsFile(const std::string &Path,
                                                 const Suite &S,
                                                 Machine Reference,
                                                 std::vector<Machine> Targets,
                                                 std::uint64_t ExpectedKey) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS)
    return failed(MeasurementCacheError::Io, "cannot open '" + Path + "'");
  std::ostringstream Buffer;
  Buffer << IS.rdbuf();
  if (IS.bad())
    return failed(MeasurementCacheError::Io, "read failure on '" + Path + "'");
  return parseMeasurements(Buffer.str(), S, std::move(Reference),
                           std::move(Targets), ExpectedKey);
}

//===----------------------------------------------------------------------===//
// The manifest (fgbs.meas.index.v1) and lifecycle logic
//===----------------------------------------------------------------------===//

namespace {

std::int64_t nowUnixSeconds() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::uint64_t envU64(const char *Name) {
  const char *Raw = std::getenv(Name);
  if (!Raw || !*Raw)
    return 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Raw, &End, 10);
  return (End && *End == '\0') ? static_cast<std::uint64_t>(V) : 0;
}

/// Parses the manifest text; false means corrupt (callers rescan).
bool parseManifest(std::string_view Text, std::vector<CacheEntry> &Out) {
  std::istringstream In{std::string(Text)};
  std::string Line;
  if (!std::getline(In, Line) || Line != kMeasurementIndexName)
    return false;
  std::vector<CacheEntry> Entries;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::istringstream Fields(Line);
    CacheEntry E;
    if (!(Fields >> E.AccessUnixSeconds >> E.SizeBytes >> E.Name) ||
        E.Name.empty())
      return false;
    std::string Extra;
    if (Fields >> Extra)
      return false;
    Entries.push_back(std::move(E));
  }
  Out = std::move(Entries);
  return true;
}

std::string renderManifest(const std::vector<CacheEntry> &Entries) {
  std::string Out = kMeasurementIndexName;
  Out.push_back('\n');
  for (const CacheEntry &E : Entries) {
    Out += std::to_string(E.AccessUnixSeconds);
    Out.push_back(' ');
    Out += std::to_string(E.SizeBytes);
    Out.push_back(' ');
    Out += E.Name;
    Out.push_back('\n');
  }
  return Out;
}

/// Most recently used first; name-ordered among ties for determinism.
void sortLru(std::vector<CacheEntry> &Entries) {
  std::sort(Entries.begin(), Entries.end(),
            [](const CacheEntry &A, const CacheEntry &B) {
              if (A.AccessUnixSeconds != B.AccessUnixSeconds)
                return A.AccessUnixSeconds > B.AccessUnixSeconds;
              return A.Name < B.Name;
            });
}

/// Every lock acquisition in the cache layer funnels through here so
/// the db.cache.lock.* counters cover entry and manifest locks alike.
FileLock::AcquireResult acquireCounted(FileLock &Lock,
                                       const FileLock::Options &O) {
  FileLock::AcquireResult R = Lock.acquire(O);
  if (R.WaitedMs > 0)
    FGBS_COUNTER_ADD("db.cache.lock.waited_ms", R.WaitedMs);
  if (R)
    FGBS_COUNTER_ADD("db.cache.lock.acquired", 1);
  else if (R.St == FileLock::Status::Timeout)
    FGBS_COUNTER_ADD("db.cache.lock.timeouts", 1);
  return R;
}

/// The same counters for the backend-provided writer election (file
/// lock, remote lease, or the tiered pair).
WriterLock::Result acquireCounted(WriterLock &Lock,
                                  const FileLock::Options &O) {
  WriterLock::Result R = Lock.acquire(O);
  if (R.WaitedMs > 0)
    FGBS_COUNTER_ADD("db.cache.lock.waited_ms", R.WaitedMs);
  if (R)
    FGBS_COUNTER_ADD("db.cache.lock.acquired", 1);
  else if (R.TimedOut)
    FGBS_COUNTER_ADD("db.cache.lock.timeouts", 1);
  return R;
}

/// Manifest updates are quick bookkeeping: give them a short slice of
/// the writer budget so a wedged manifest lock cannot stall a build.
FileLock::Options manifestOptions(const FileLock::Options &Base) {
  FileLock::Options O = Base;
  O.TimeoutMs = std::min<std::uint64_t>(Base.TimeoutMs, 5000);
  return O;
}

constexpr char kEntryPrefix[] = "fgbs-meas-";
constexpr char kEntrySuffix[] = ".v1";

} // namespace

std::uint64_t fgbs::measurementCacheEnvMaxBytes() {
  return envU64("FGBS_MEAS_CACHE_MAX_BYTES");
}

MeasurementCache::MeasurementCache(const std::string &Dir)
    : BackendPtr(std::make_unique<LocalDirBackend>(Dir)) {}

MeasurementCache::MeasurementCache(std::unique_ptr<CacheBackend> Backend)
    : BackendPtr(std::move(Backend)) {}

std::string MeasurementCache::entryLockPath(std::uint64_t Key) const {
  return BackendPtr->lockPath(measurementCacheFileName(Key));
}

bool MeasurementCache::exists(std::uint64_t Key) const {
  return BackendPtr->exists(measurementCacheFileName(Key));
}

void MeasurementCache::touchEntry(const std::string &Name,
                                  std::uint64_t SizeBytes) {
  // Backends without a manifest lock location manage their own
  // lifecycle where the blobs live (the fgbs_cached server prunes its
  // shards); no client-side manifest exists to update.
  if (BackendPtr->lockPath(kMeasurementIndexName).empty())
    return;
  const std::int64_t Now = nowUnixSeconds();
  // Relatime fast path: manifest writes are skipped while the entry's
  // recorded access time is fresh.  The read is lock-free — manifests
  // are published atomically, so any version we see is consistent.
  {
    std::string Raw;
    std::vector<CacheEntry> Entries;
    if (BackendPtr->get(kMeasurementIndexName, Raw) &&
        parseManifest(Raw, Entries))
      for (const CacheEntry &E : Entries)
        if (E.Name == Name && E.SizeBytes == SizeBytes &&
            Now - E.AccessUnixSeconds < kManifestRelatimeSeconds)
          return;
  }

  FileLock Lock(BackendPtr->lockPath(kMeasurementIndexName));
  if (!acquireCounted(Lock, manifestOptions(LockOptions)))
    return; // Advisory bookkeeping; a rescan recovers a lost update.

  std::string Raw;
  std::vector<CacheEntry> Entries;
  if (!(BackendPtr->get(kMeasurementIndexName, Raw) &&
        parseManifest(Raw, Entries)))
    Entries = BackendPtr->scan(kEntryPrefix, kEntrySuffix);
  bool Found = false;
  for (CacheEntry &E : Entries)
    if (E.Name == Name) {
      E.AccessUnixSeconds = Now;
      E.SizeBytes = SizeBytes;
      Found = true;
    }
  if (!Found)
    Entries.push_back({Name, SizeBytes, Now});
  sortLru(Entries);
  BackendPtr->put(kMeasurementIndexName, renderManifest(Entries));
}

MeasurementLoadResult MeasurementCache::load(const Suite &S, Machine Reference,
                                             std::vector<Machine> Targets,
                                             std::uint64_t Key) {
  const std::string Name = measurementCacheFileName(Key);
  std::string Bytes;
  if (!BackendPtr->get(Name, Bytes))
    return failed(MeasurementCacheError::Io,
                  "cannot read '" + Name + "' from the cache backend");
  MeasurementLoadResult R = parseMeasurements(Bytes, S, std::move(Reference),
                                              std::move(Targets), Key);
  if (R)
    touchEntry(Name, Bytes.size());
  return R;
}

MeasurementCacheError MeasurementCache::store(const MeasurementDatabase &Db,
                                              std::uint64_t Key,
                                              bool EntryLockHeld,
                                              std::string *Message) {
  const std::string Name = measurementCacheFileName(Key);
  // The backend chooses the election protocol: FileLock for a local
  // directory, a fleet-wide server lease for a remote backend, both for
  // the tiered composition.
  std::unique_ptr<WriterLock> Lock = BackendPtr->writerLock(Name);
  if (!EntryLockHeld) {
    WriterLock::Result R = acquireCounted(*Lock, LockOptions);
    if (!R) {
      if (Message)
        *Message = R.Message;
      return MeasurementCacheError::LockTimeout;
    }
  }
  std::string Bytes = serializeMeasurements(Db, Key);
  if (!BackendPtr->put(Name, Bytes)) {
    if (Message)
      *Message = "cannot publish '" + Name + "' to the cache backend";
    return MeasurementCacheError::Io;
  }
  touchEntry(Name, Bytes.size());
  return MeasurementCacheError::None;
}

CachePruneStats MeasurementCache::prune(std::uint64_t MaxBytes,
                                        std::uint64_t MaxAgeSeconds) {
  CachePruneStats Stats;
  // No manifest lock location = the backend runs its own lifecycle
  // (RemoteCacheBackend::pruneRemote asks the server to prune its
  // shards); client-side eviction here would be blind to fleet-wide
  // access times.
  if (BackendPtr->lockPath(kMeasurementIndexName).empty())
    return Stats;
  FileLock Lock(BackendPtr->lockPath(kMeasurementIndexName));
  if (!acquireCounted(Lock, manifestOptions(LockOptions))) {
    Stats.LockTimedOut = true;
    return Stats;
  }

  // The backend scan is the ground truth for existence and size; the
  // manifest overlays true access times.  A missing or corrupt manifest
  // degrades to the scan's mtimes and is healed by the rewrite below.
  std::vector<CacheEntry> OnDisk =
      BackendPtr->scan(kEntryPrefix, kEntrySuffix);
  std::string Raw;
  std::vector<CacheEntry> Manifest;
  const bool ManifestOk = BackendPtr->get(kMeasurementIndexName, Raw) &&
                          parseManifest(Raw, Manifest);
  Stats.RebuiltFromScan = !ManifestOk;
  if (ManifestOk)
    for (CacheEntry &E : OnDisk)
      for (const CacheEntry &M : Manifest)
        if (M.Name == E.Name) {
          E.AccessUnixSeconds = M.AccessUnixSeconds;
          break;
        }

  Stats.Entries = OnDisk.size();
  for (const CacheEntry &E : OnDisk)
    Stats.BytesBefore += E.SizeBytes;

  sortLru(OnDisk);
  const std::int64_t Now = nowUnixSeconds();
  std::vector<CacheEntry> Kept;
  std::uint64_t KeptBytes = 0;
  for (CacheEntry &E : OnDisk) {
    const bool TooOld =
        MaxAgeSeconds != 0 &&
        Now - E.AccessUnixSeconds > static_cast<std::int64_t>(MaxAgeSeconds);
    const bool OverBudget = MaxBytes != 0 && KeptBytes + E.SizeBytes > MaxBytes;
    if (!TooOld && !OverBudget) {
      KeptBytes += E.SizeBytes;
      Kept.push_back(std::move(E));
      continue;
    }
    if (BackendPtr->remove(E.Name)) {
      ++Stats.Removed;
    } else {
      // Deletion failed: keep accounting honest and keep tracking it.
      KeptBytes += E.SizeBytes;
      Kept.push_back(std::move(E));
    }
  }
  Stats.BytesAfter = KeptBytes;
  if (Stats.Removed > 0)
    FGBS_COUNTER_ADD("db.cache.evictions", Stats.Removed);
  BackendPtr->put(kMeasurementIndexName, renderManifest(Kept));
  return Stats;
}

//===----------------------------------------------------------------------===//
// The cached build front-end
//===----------------------------------------------------------------------===//

std::unique_ptr<MeasurementDatabase>
fgbs::buildMeasurementDatabase(const Suite &S, Machine Reference,
                               std::vector<Machine> Targets,
                               const DatabaseBuildOptions &Options) {
  DatabaseOptions DbOptions;
  DbOptions.Threads = Options.Threads;
  auto Simulate = [&] {
    return std::make_unique<MeasurementDatabase>(S, Reference, Targets,
                                                 Options.Policy, DbOptions);
  };
  // The remote tier is opt-in per run (--cache-remote) or per
  // environment (FGBS_MEAS_CACHE_REMOTE); --no-cache turns off both
  // tiers at once.
  std::string RemoteSpec = Options.CacheRemote;
  if (RemoteSpec.empty())
    if (const char *Env = std::getenv("FGBS_MEAS_CACHE_REMOTE"))
      RemoteSpec = Env;
  if (!Options.UseCache || (Options.CacheDir.empty() && RemoteSpec.empty()))
    return Simulate();

  std::unique_ptr<RemoteCacheBackend> Remote;
  if (!RemoteSpec.empty()) {
    RemoteCacheConfig RemoteConfig;
    if (parseRemoteCacheAddress(RemoteSpec, RemoteConfig)) {
      Remote = std::make_unique<RemoteCacheBackend>(std::move(RemoteConfig));
    } else {
      std::cerr << "fgbs: warning: ignoring malformed remote cache address '"
                << RemoteSpec << "' (want host:port)\n";
      if (Options.CacheDir.empty())
        return Simulate();
    }
  }

  // Local-only, remote-only, or tiered — one MeasurementCache either
  // way; the backend seam hides which.
  std::unique_ptr<CacheBackend> Backend;
  if (Remote && !Options.CacheDir.empty())
    Backend = std::make_unique<TieredCacheBackend>(
        std::make_unique<LocalDirBackend>(Options.CacheDir),
        std::move(Remote));
  else if (Remote)
    Backend = std::move(Remote);
  else
    Backend = std::make_unique<LocalDirBackend>(Options.CacheDir);
  MeasurementCache Cache(std::move(Backend));
  Cache.LockOptions.TimeoutMs = Options.LockTimeoutMs
                                    ? Options.LockTimeoutMs
                                    : envU64("FGBS_MEAS_CACHE_LOCK_MS");
  if (Cache.LockOptions.TimeoutMs == 0)
    Cache.LockOptions.TimeoutMs = 600000;
  const std::uint64_t Key = measurementKey(S, Reference, Targets,
                                           Options.Policy);

  // \p Quiet silences the unusable-file warning on the post-lock
  // double check (the first pass already warned and counted it).
  auto TryLoad = [&](bool Quiet) -> std::unique_ptr<MeasurementDatabase> {
    if (!Cache.exists(Key))
      return nullptr;
    MeasurementLoadResult Loaded = Cache.load(S, Reference, Targets, Key);
    if (Loaded) {
      FGBS_COUNTER_ADD("db.cache.hits", 1);
      return std::move(Loaded.Db);
    }
    // A present-but-unusable file (CRC damage, version skew, a key
    // collision) must never poison results: warn and re-simulate.
    if (!Quiet) {
      FGBS_COUNTER_ADD("db.cache.errors", 1);
      std::cerr << "fgbs: measurement cache entry '"
                << measurementCacheFileName(Key) << "' in '"
                << Options.CacheDir << "' unusable ("
                << measurementCacheErrorName(Loaded.Error) << ": "
                << Loaded.Message << "); re-simulating\n";
    }
    return nullptr;
  };

  // Fast path — no lock: a published entry is complete by construction
  // (atomic rename), so readers never coordinate with writers.
  if (auto Db = TryLoad(/*Quiet=*/false))
    return Db;
  FGBS_COUNTER_ADD("db.cache.misses", 1);

  // Cold path: exactly one concurrent run simulates while the rest
  // block on the entry's writer election and then load what it
  // published.  The backend chooses the protocol — a same-host FileLock
  // for a local directory, a fleet-wide server lease for the remote
  // tier, both for the tiered cache; a backend with no coordination
  // needs hands out a lock that acquires instantly.
  std::unique_ptr<WriterLock> Lock =
      Cache.backend().writerLock(measurementCacheFileName(Key));
  bool LockHeld = false;
  {
    WriterLock::Result R = acquireCounted(*Lock, Cache.LockOptions);
    if (R) {
      LockHeld = true;
      // The previous holder may have published our key while we waited.
      if (auto Db = TryLoad(/*Quiet=*/true))
        return Db;
    } else {
      // Typed, visible fallback: simulate but do NOT store — whichever
      // live writer holds the lock will publish the identical bytes.
      std::cerr << "fgbs: measurement cache '" << Options.CacheDir << "' ("
                << measurementCacheErrorName(MeasurementCacheError::LockTimeout)
                << ": " << R.Message << "); simulating without storing\n";
    }
  }

  auto Db = Simulate();
  if (LockHeld) {
    Lock->heartbeat();
    std::string Message;
    MeasurementCacheError E = Cache.store(*Db, Key, /*EntryLockHeld=*/true,
                                          &Message);
    if (E == MeasurementCacheError::None) {
      FGBS_COUNTER_ADD("db.cache.stores", 1);
      const std::uint64_t MaxBytes = Options.CacheMaxBytes
                                         ? Options.CacheMaxBytes
                                         : measurementCacheEnvMaxBytes();
      if (MaxBytes || Options.CacheMaxAgeSeconds) {
        // Eviction is a per-tier concern: prune the local directory
        // only, through its own cache object, so a tiered backend's
        // remove() can never delete fleet-shared entries on the server
        // (the server prunes its shards under its own budgets).
        if (Options.CacheDir.empty()) {
          Cache.prune(MaxBytes, Options.CacheMaxAgeSeconds);
        } else {
          MeasurementCache LocalOnly(Options.CacheDir);
          LocalOnly.LockOptions = Cache.LockOptions;
          LocalOnly.prune(MaxBytes, Options.CacheMaxAgeSeconds);
        }
      }
    } else {
      FGBS_COUNTER_ADD("db.cache.errors", 1);
      std::cerr << "fgbs: cannot store measurement cache entry ("
                << measurementCacheErrorName(E) << ": " << Message << ")\n";
    }
  }
  // The lock releases here — for a tiered cache that flushes the remote
  // write-back first, so the next fleet grantee's double-checked load
  // sees the entry.
  Lock->release();
  return Db;
}
