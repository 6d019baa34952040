//===- fgbs/core/RemoteCacheBackend.cpp - Wire-protocol client ------------===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "fgbs/core/RemoteCacheBackend.h"

#include "fgbs/obs/Json.h"
#include "fgbs/obs/Metrics.h"
#include "fgbs/support/BinaryIo.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>
#include <thread>

#include <unistd.h>

using namespace fgbs;
using namespace fgbs::binio;
using namespace fgbs::net;

namespace {

std::uint64_t steadyMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A fleet-unique lease owner token: pid in the high bits (debuggable in
/// a server dump), randomness below so two processes recycling one pid
/// across hosts still cannot collide.  Never zero — zero is the wire
/// protocol's "no owner".
std::uint64_t makeLeaseToken() {
  static thread_local std::mt19937_64 Rng(
      std::random_device{}() ^
      (static_cast<std::uint64_t>(::getpid()) << 32) ^ steadyMs());
  std::uint64_t Token = (static_cast<std::uint64_t>(::getpid()) << 32) ^
                        (Rng() & 0xffffffffu);
  return Token ? Token : 1;
}

/// The server lease as a WriterLock: acquire polls LockAcquire with the
/// FileLock backoff schedule, heartbeat re-acquires (renewal: same
/// token always re-grants and pushes the expiry out one TTL), release
/// sends LockRelease.  When the server is unreachable the lock acquires
/// anyway — the remote tier degrades, it never blocks a run — and
/// release then has nothing to undo.
class RemoteWriterLock final : public WriterLock {
public:
  RemoteWriterLock(RemoteCacheBackend &Backend, std::string Name)
      : Backend(Backend), Name(std::move(Name)), Token(makeLeaseToken()) {}

  ~RemoteWriterLock() override { release(); }

  Result acquire(const FileLock::Options &O) override {
    const std::uint64_t Start = steadyMs();
    const std::uint64_t Deadline = Start + O.TimeoutMs;
    unsigned Attempt = 0;
    Result Out;
    while (true) {
      bool Granted = false;
      if (!Backend.lockAcquire(Name, Token, Granted)) {
        // Server unreachable: the writer election degrades to whatever
        // the local tier provides.  Granting here (rather than failing)
        // keeps a dead server from stalling every training run; the
        // cost is a possible duplicate simulation, which the cache
        // absorbs (puts are idempotent for content-addressed entries).
        Out.Acquired = true;
        Out.Message = "remote lease unavailable; proceeding unleased";
        Out.WaitedMs = steadyMs() - Start;
        Held = false;
        return Out;
      }
      if (Granted) {
        Out.Acquired = true;
        Out.WaitedMs = steadyMs() - Start;
        Held = true;
        return Out;
      }
      const std::uint64_t Now = steadyMs();
      if (Now >= Deadline) {
        Out.TimedOut = true;
        Out.WaitedMs = Now - Start;
        Out.Message = "timed out waiting for remote writer lease '" + Name +
                      "' from " + Backend.address();
        return Out;
      }
      // Jittered (keyed on the lease token) so contending writers do
      // not re-poll the server in phase.
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min(retryBackoffMs(Attempt++, O.InitialBackoffMs,
                                  O.MaxBackoffMs ? O.MaxBackoffMs
                                                 : O.InitialBackoffMs,
                                  Token),
                   Deadline - Now)));
    }
  }

  void heartbeat() override {
    if (!Held)
      return;
    bool Granted = false;
    Backend.lockAcquire(Name, Token, Granted);
  }

  void release() override {
    if (!Held)
      return;
    Held = false;
    Backend.lockRelease(Name, Token);
  }

private:
  RemoteCacheBackend &Backend;
  std::string Name;
  std::uint64_t Token;
  bool Held = false;
};

} // namespace

std::uint64_t fgbs::retryBackoffMs(unsigned Attempt, std::uint64_t InitialMs,
                                   std::uint64_t MaxMs, std::uint64_t Seed) {
  if (InitialMs == 0)
    InitialMs = 1;
  if (MaxMs < InitialMs)
    MaxMs = InitialMs;
  // Saturating base = min(InitialMs << Attempt, MaxMs).
  std::uint64_t Base = MaxMs;
  if (Attempt < 63 && (MaxMs >> Attempt) >= InitialMs)
    Base = InitialMs << Attempt;
  // splitmix64 over (Seed, Attempt): deterministic per client, distinct
  // across clients, no shared-state RNG to lock.
  std::uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (Attempt + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  Z ^= Z >> 31;
  const std::uint64_t Low = Base - Base / 2; // ceil(Base / 2), never 0.
  return Low + Z % (Base - Low + 1);
}

bool fgbs::parseRemoteCacheAddress(const std::string &Spec,
                                   RemoteCacheConfig &Out) {
  return parseHostPort(Spec, Out.Host, Out.Port);
}

RemoteCacheBackend::RemoteCacheBackend(RemoteCacheConfig Config)
    : Config(std::move(Config)), BackoffSeed(makeLeaseToken()) {
  if (this->Config.MaxAttempts == 0)
    this->Config.MaxAttempts = 1;
}

bool RemoteCacheBackend::request(Opcode Op, std::string_view Payload,
                                 Frame &Response) const {
  std::lock_guard<std::mutex> Guard(Mutex);
  bool SawTimeout = false;
  std::string LastError;
  for (unsigned Attempt = 0; Attempt < Config.MaxAttempts; ++Attempt) {
    if (Attempt > 0) {
      Conn.close();
      // Jittered so a fleet that lost the same server does not retry in
      // lockstep and re-stampede it the instant it returns.
      std::this_thread::sleep_for(std::chrono::milliseconds(retryBackoffMs(
          Attempt - 1, Config.InitialBackoffMs, Config.MaxBackoffMs,
          BackoffSeed)));
    }
    if (!Conn.valid()) {
      std::string ConnectError;
      Conn = Socket::connectTo(Config.Host, Config.Port,
                               Config.ConnectTimeoutMs, &ConnectError);
      if (!Conn.valid()) {
        LastError = ConnectError;
        continue;
      }
    }
    if (!writeFrame(Conn, Op, Payload, Config.RequestTimeoutMs)) {
      // A pooled connection the server idled out surfaces here; the
      // retry's fresh connection is the real attempt.
      LastError = "send failed";
      Conn.close();
      continue;
    }
    WireError E = readFrame(Conn, Response, Config.RequestTimeoutMs);
    if (E == WireError::None)
      return true;
    SawTimeout = SawTimeout || E == WireError::Timeout;
    LastError = std::string("response: ") + wireErrorName(E);
    Conn.close();
  }
  FGBS_COUNTER_ADD("db.cache.remote.errors", 1);
  if (SawTimeout)
    FGBS_COUNTER_ADD("db.cache.remote.timeouts", 1);
  if (!WarnedUnreachable) {
    WarnedUnreachable = true;
    std::fprintf(stderr,
                 "fgbs: warning: remote measurement cache %s unavailable "
                 "(%s; op %s); continuing without it\n",
                 address().c_str(), LastError.c_str(), opcodeName(Op));
  }
  return false;
}

bool RemoteCacheBackend::ping() const {
  Frame Response;
  return request(Opcode::Ping, {}, Response) && Response.Op == Opcode::Ok;
}

bool RemoteCacheBackend::exists(const std::string &Name) const {
  std::string Payload;
  putStr(Payload, Name);
  Frame Response;
  if (!request(Opcode::Exists, Payload, Response) ||
      Response.Op != Opcode::Ok)
    return false;
  ByteReader In(Response.Payload);
  bool Present = In.u8() != 0;
  return !In.overrun() && Present;
}

bool RemoteCacheBackend::get(const std::string &Name,
                             std::string &BytesOut) const {
  std::string Payload;
  putStr(Payload, Name);
  Frame Response;
  if (!request(Opcode::Get, Payload, Response) || Response.Op != Opcode::Ok)
    return false;
  BytesOut = std::move(Response.Payload);
  return true;
}

bool RemoteCacheBackend::put(const std::string &Name, std::string_view Bytes) {
  std::string Payload;
  putStr(Payload, Name);
  Payload.append(Bytes.data(), Bytes.size());
  Frame Response;
  return request(Opcode::Put, Payload, Response) && Response.Op == Opcode::Ok;
}

bool RemoteCacheBackend::remove(const std::string &Name) {
  std::string Payload;
  putStr(Payload, Name);
  Frame Response;
  if (!request(Opcode::Remove, Payload, Response) ||
      Response.Op != Opcode::Ok)
    return false;
  ByteReader In(Response.Payload);
  bool Removed = In.u8() != 0;
  return !In.overrun() && Removed;
}

std::vector<CacheEntry>
RemoteCacheBackend::scan(const std::string &Prefix,
                         const std::string &Suffix) const {
  std::string Payload;
  putStr(Payload, Prefix);
  putStr(Payload, Suffix);
  Frame Response;
  if (!request(Opcode::Scan, Payload, Response) || Response.Op != Opcode::Ok)
    return {};
  ByteReader In(Response.Payload);
  std::uint32_t Count = In.u32();
  std::vector<CacheEntry> Out;
  Out.reserve(std::min<std::uint32_t>(Count, 4096));
  for (std::uint32_t I = 0; I < Count && !In.overrun(); ++I) {
    CacheEntry E;
    E.Name = In.str();
    E.SizeBytes = In.u64();
    E.AccessUnixSeconds = static_cast<std::int64_t>(In.u64());
    Out.push_back(std::move(E));
  }
  if (In.overrun())
    return {};
  return Out;
}

ScanPrefixResult
RemoteCacheBackend::scanPrefix(const std::string &Prefix) const {
  ScanPrefixResult R;
  std::string Payload;
  putStr(Payload, Prefix);
  Frame Response;
  if (!request(Opcode::ScanPrefix, Payload, Response)) {
    R.Outcome = ScanPrefixOutcome::Failed;
    R.Message = "scan_prefix: " + address() + " unreachable";
    return R;
  }
  if (Response.Op == Opcode::Error) {
    ByteReader ErrIn(Response.Payload);
    std::string Message = ErrIn.str();
    // A pre-namespace server answers every unknown opcode with this
    // message; that is "the server cannot enumerate", not "nothing
    // matched", and the two must stay distinguishable.
    if (Message.find("unsupported opcode") != std::string::npos) {
      R.Outcome = ScanPrefixOutcome::Unsupported;
      R.Message = address() + " predates scan_prefix";
      return R;
    }
    R.Outcome = ScanPrefixOutcome::Failed;
    R.Message = "scan_prefix: " + Message;
    return R;
  }
  if (Response.Op != Opcode::Ok) {
    R.Outcome = ScanPrefixOutcome::Failed;
    R.Message = "scan_prefix: unexpected response";
    return R;
  }
  ByteReader In(Response.Payload);
  std::uint32_t Count = In.u32();
  R.Entries.reserve(std::min<std::uint32_t>(Count, 4096));
  for (std::uint32_t I = 0; I < Count && !In.overrun(); ++I) {
    CacheEntry E;
    E.Name = In.str();
    E.SizeBytes = In.u64();
    E.AccessUnixSeconds = static_cast<std::int64_t>(In.u64());
    R.Entries.push_back(std::move(E));
  }
  if (In.overrun() || R.Entries.size() != Count) {
    R.Entries.clear();
    R.Outcome = ScanPrefixOutcome::Failed;
    R.Message = "scan_prefix: damaged listing";
  }
  return R;
}

std::string RemoteCacheBackend::lockPath(const std::string &) const {
  // The server owns atomicity and lifecycle; there is no local lock
  // file to point at.  Writer election goes through writerLock().
  return {};
}

std::unique_ptr<WriterLock>
RemoteCacheBackend::writerLock(const std::string &Name) {
  return std::make_unique<RemoteWriterLock>(*this, Name);
}

bool RemoteCacheBackend::pruneRemote(std::uint64_t MaxBytes,
                                     std::uint64_t MaxAgeSeconds,
                                     std::uint64_t ModelMaxBytes,
                                     std::uint64_t ModelMaxAgeSeconds,
                                     std::uint64_t *EntriesOut,
                                     std::uint64_t *RemovedOut) {
  std::string Payload;
  putU64(Payload, MaxBytes);
  putU64(Payload, MaxAgeSeconds);
  putU64(Payload, ModelMaxBytes);
  putU64(Payload, ModelMaxAgeSeconds);
  Frame Response;
  if (!request(Opcode::Prune, Payload, Response) || Response.Op != Opcode::Ok)
    return false;
  ByteReader In(Response.Payload);
  std::uint64_t Entries = In.u64();
  std::uint64_t Removed = In.u64();
  if (In.overrun())
    return false;
  if (EntriesOut)
    *EntriesOut = Entries;
  if (RemovedOut)
    *RemovedOut = Removed;
  return true;
}

bool RemoteCacheBackend::pruneRemote(std::uint64_t MaxBytes,
                                     std::uint64_t MaxAgeSeconds,
                                     std::uint64_t *EntriesOut,
                                     std::uint64_t *RemovedOut) {
  std::string Payload;
  putU64(Payload, MaxBytes);
  putU64(Payload, MaxAgeSeconds);
  Frame Response;
  if (!request(Opcode::Prune, Payload, Response) || Response.Op != Opcode::Ok)
    return false;
  ByteReader In(Response.Payload);
  std::uint64_t Entries = In.u64();
  std::uint64_t Removed = In.u64();
  if (In.overrun())
    return false;
  if (EntriesOut)
    *EntriesOut = Entries;
  if (RemovedOut)
    *RemovedOut = Removed;
  return true;
}

bool RemoteCacheBackend::lockAcquire(const std::string &Name,
                                     std::uint64_t Token, bool &GrantedOut) {
  std::string Payload;
  putStr(Payload, Name);
  putU64(Payload, Token);
  putU64(Payload, Config.LeaseTtlMs ? Config.LeaseTtlMs : 1);
  Frame Response;
  if (!request(Opcode::LockAcquire, Payload, Response) ||
      Response.Op != Opcode::Ok)
    return false;
  ByteReader In(Response.Payload);
  GrantedOut = In.u8() != 0;
  return !In.overrun();
}

bool RemoteCacheBackend::lockRelease(const std::string &Name,
                                     std::uint64_t Token) {
  std::string Payload;
  putStr(Payload, Name);
  putU64(Payload, Token);
  Frame Response;
  return request(Opcode::LockRelease, Payload, Response) &&
         Response.Op == Opcode::Ok;
}

bool RemoteCacheBackend::statsRemote(RemoteCacheStats &Out) {
  Frame Response;
  if (!request(Opcode::Stats, {}, Response) || Response.Op != Opcode::Ok)
    return false;
  ByteReader In(Response.Payload);
  std::uint32_t Shards = In.u32();
  RemoteCacheStats S;
  S.Shards.reserve(std::min<std::uint32_t>(Shards, 4096));
  for (std::uint32_t I = 0; I < Shards && !In.overrun(); ++I) {
    RemoteShardStats Sh;
    Sh.Entries = In.u64();
    Sh.Bytes = In.u64();
    S.Shards.push_back(Sh);
  }
  S.Hits = In.u64();
  S.Misses = In.u64();
  S.LeasesGranted = In.u64();
  S.LeasesDenied = In.u64();
  // Eight retired work-queue counters, written as zeros (see Framing.h).
  for (int I = 0; I < kStatsRetiredSlots; ++I)
    In.u64();
  if (In.overrun() || S.Shards.size() != Shards)
    return false;
  // Namespace extension: present iff bytes remain (a pre-namespace
  // server's response ends exactly here).
  if (!In.atEnd()) {
    std::uint32_t ModelShards = In.u32();
    S.ModelShards.reserve(std::min<std::uint32_t>(ModelShards, 4096));
    for (std::uint32_t I = 0; I < ModelShards && !In.overrun(); ++I) {
      RemoteShardStats Sh;
      Sh.Entries = In.u64();
      Sh.Bytes = In.u64();
      S.ModelShards.push_back(Sh);
    }
    S.ModelGets = In.u64();
    S.ModelPuts = In.u64();
    S.ModelRefPuts = In.u64();
    S.ScanPrefixes = In.u64();
    if (In.overrun() || S.ModelShards.size() != ModelShards || !In.atEnd())
      return false;
    S.HasModelStats = true;
  }
  Out = std::move(S);
  return true;
}

std::string fgbs::renderStatsJson(const RemoteCacheStats &S) {
  using obs::JsonValue;
  auto ShardArray = [](const std::vector<RemoteShardStats> &Shards) {
    JsonValue Arr = JsonValue::array();
    for (const RemoteShardStats &Sh : Shards) {
      JsonValue One = JsonValue::object();
      One.set("entries", JsonValue(static_cast<double>(Sh.Entries)));
      One.set("bytes", JsonValue(static_cast<double>(Sh.Bytes)));
      Arr.push(std::move(One));
    }
    return Arr;
  };

  JsonValue Doc = JsonValue::object();
  Doc.set("schema", JsonValue("fgbs.cachestats.v1"));

  JsonValue Meas = JsonValue::object();
  Meas.set("shards", ShardArray(S.Shards));
  std::uint64_t Entries = 0, Bytes = 0;
  for (const RemoteShardStats &Sh : S.Shards) {
    Entries += Sh.Entries;
    Bytes += Sh.Bytes;
  }
  Meas.set("entries", JsonValue(static_cast<double>(Entries)));
  Meas.set("bytes", JsonValue(static_cast<double>(Bytes)));
  Meas.set("hits", JsonValue(static_cast<double>(S.Hits)));
  Meas.set("misses", JsonValue(static_cast<double>(S.Misses)));
  Doc.set("meas", std::move(Meas));

  JsonValue Leases = JsonValue::object();
  Leases.set("granted", JsonValue(static_cast<double>(S.LeasesGranted)));
  Leases.set("denied", JsonValue(static_cast<double>(S.LeasesDenied)));
  Doc.set("leases", std::move(Leases));

  // "model": null from a pre-namespace server — dashboards can tell
  // "server cannot say" from "zero models".
  if (S.HasModelStats) {
    JsonValue Model = JsonValue::object();
    Model.set("shards", ShardArray(S.ModelShards));
    std::uint64_t MEntries = 0, MBytes = 0;
    for (const RemoteShardStats &Sh : S.ModelShards) {
      MEntries += Sh.Entries;
      MBytes += Sh.Bytes;
    }
    Model.set("entries", JsonValue(static_cast<double>(MEntries)));
    Model.set("bytes", JsonValue(static_cast<double>(MBytes)));
    Model.set("gets", JsonValue(static_cast<double>(S.ModelGets)));
    Model.set("puts", JsonValue(static_cast<double>(S.ModelPuts)));
    Model.set("ref_puts", JsonValue(static_cast<double>(S.ModelRefPuts)));
    Model.set("scan_prefixes",
              JsonValue(static_cast<double>(S.ScanPrefixes)));
    Doc.set("model", std::move(Model));
  } else {
    Doc.set("model", JsonValue());
  }
  return obs::writeJson(Doc, 2) + "\n";
}
