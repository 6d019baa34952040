//===- fgbs/net/CacheServer.cpp - Sharded measurement-cache daemon --------===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "fgbs/net/CacheServer.h"

#include "fgbs/core/MeasurementCache.h"
#include "fgbs/obs/Metrics.h"
#include "fgbs/support/BinaryIo.h"
#include "fgbs/support/Crc32.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>

using namespace fgbs;
using namespace fgbs::net;
using namespace fgbs::binio;

namespace {

std::uint64_t steadyMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Stop-flag poll interval for accept and idle-connection waits.
constexpr std::uint64_t kPollSliceMs = 250;

/// Ceiling on client-requested lease TTLs: a buggy client asking for a
/// day still cannot wedge the fleet for more than this.
constexpr std::uint64_t kMaxLeaseTtlMs = 2ull * 60 * 60 * 1000;

bool isHexDigit(char C) {
  return (C >= '0' && C <= '9') || (C >= 'a' && C <= 'f') ||
         (C >= 'A' && C <= 'F');
}

unsigned hexValue(char C) {
  if (C >= '0' && C <= '9')
    return static_cast<unsigned>(C - '0');
  if (C >= 'a' && C <= 'f')
    return static_cast<unsigned>(C - 'a') + 10;
  return static_cast<unsigned>(C - 'A') + 10;
}

} // namespace

namespace {

/// Per-shard slice of a whole-server byte budget.  Ceiling division so
/// a tiny non-zero budget stays non-zero (0 means unbounded, and a
/// 1-byte budget rounding down to "unbounded" would invert its intent).
std::uint64_t perShardBudget(std::uint64_t MaxBytes, unsigned Shards) {
  if (MaxBytes == 0 || Shards == 0)
    return 0;
  return (MaxBytes + Shards - 1) / Shards;
}

} // namespace

bool fgbs::net::isValidEntryName(std::string_view Name) {
  if (Name.empty() || Name.size() > 255)
    return false;
  if (Name == "." || Name == "..")
    return false;
  for (char C : Name)
    if (C == '/' || C == '\\' || C == '\0')
      return false;
  return true;
}

namespace {

/// Namespaced path segments are restricted to one canonical charset so
/// no segment needs escaping and no two wire spellings name one entry.
bool isValidPathSegment(std::string_view Seg) {
  if (Seg.empty() || Seg == "." || Seg == "..")
    return false;
  for (char C : Seg)
    if (!((C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
          (C >= '0' && C <= '9') || C == '.' || C == '_' || C == '-'))
      return false;
  return true;
}

} // namespace

bool fgbs::net::resolveEntryName(std::string_view WireName,
                                 WireNamespace &NsOut,
                                 std::string &StorageOut) {
  if (WireName.empty() || WireName.size() > 255)
    return false;
  // '~' is LocalDirBackend's on-disk '/'-escape; a wire name carrying
  // it could collide with a different entry's encoded file name.
  if (WireName.find('~') != std::string_view::npos)
    return false;
  const std::size_t Slash = WireName.find('/');
  if (Slash == std::string_view::npos) {
    // Historical flat measurement name, validated as ever.
    if (!isValidEntryName(WireName))
      return false;
    NsOut = WireNamespace::Meas;
    StorageOut.assign(WireName);
    return true;
  }
  const std::string_view Ns = WireName.substr(0, Slash);
  const std::string_view Rest = WireName.substr(Slash + 1);
  if (Ns == "meas") {
    // Alias of the flat space: `meas/<entry>` and `<entry>` are one
    // entry, so the flat rules (not the segment charset) apply and the
    // stored name is the flat one.
    if (!isValidEntryName(Rest))
      return false;
    NsOut = WireNamespace::Meas;
    StorageOut.assign(Rest);
    return true;
  }
  if (Ns != "model")
    return false;
  // model/<seg>/<seg>/... — every segment canonical, no empty segment
  // (catches "//" and a trailing '/').
  if (Rest.empty())
    return false;
  std::string_view Tail = Rest;
  while (true) {
    const std::size_t Next = Tail.find('/');
    const std::string_view Seg =
        Next == std::string_view::npos ? Tail : Tail.substr(0, Next);
    if (!isValidPathSegment(Seg))
      return false;
    if (Next == std::string_view::npos)
      break;
    Tail = Tail.substr(Next + 1);
    if (Tail.empty()) // trailing '/'
      return false;
  }
  NsOut = WireNamespace::Model;
  StorageOut.assign(WireName);
  return true;
}

unsigned CacheServer::shardForName(std::string_view Name, unsigned Shards) {
  if (Shards <= 1)
    return 0;
  // Canonical entries ("fgbs-meas-<16 hex>.v1") route on their leading
  // content-hash digits so the key itself names the shard.
  constexpr std::string_view Prefix = "fgbs-meas-";
  constexpr std::string_view Suffix = ".v1";
  if (Name.size() == Prefix.size() + 16 + Suffix.size() &&
      Name.substr(0, Prefix.size()) == Prefix &&
      Name.substr(Name.size() - Suffix.size()) == Suffix) {
    bool AllHex = true;
    std::uint32_t Lead = 0;
    for (std::size_t I = 0; I < 8 && AllHex; ++I) {
      char C = Name[Prefix.size() + I];
      AllHex = isHexDigit(C);
      Lead = (Lead << 4) | hexValue(C);
    }
    if (AllHex)
      return Lead % Shards;
  }
  return crc32(Name) % Shards;
}

unsigned CacheServer::modelShardForName(std::string_view Name,
                                        unsigned Shards) {
  if (Shards <= 1)
    return 0;
  // Content-addressed `.../sha/<hex>` blobs route on their own hash
  // digits, like canonical measurement entries do.
  constexpr std::string_view Marker = "/sha/";
  const std::size_t Pos = Name.rfind(Marker);
  if (Pos != std::string_view::npos) {
    const std::string_view Hex = Name.substr(Pos + Marker.size());
    if (Hex.size() >= 8) {
      bool AllHex = true;
      std::uint32_t Lead = 0;
      for (std::size_t I = 0; I < 8 && AllHex; ++I) {
        AllHex = isHexDigit(Hex[I]);
        Lead = (Lead << 4) | hexValue(Hex[I]);
      }
      if (AllHex)
        return Lead % Shards;
    }
  }
  return crc32(Name) % Shards;
}

CacheServer::CacheServer(CacheServerConfig Config)
    : Config(std::move(Config)) {
  if (this->Config.Shards == 0)
    this->Config.Shards = 1;
  if (this->Config.Threads == 0)
    this->Config.Threads = 4;
}

CacheServer::~CacheServer() { stop(); }

bool CacheServer::start(std::string *Error) {
  if (Running.load(std::memory_order_acquire))
    return true;
  if (Config.Root.empty()) {
    if (Error)
      *Error = "cache server needs a root directory";
    return false;
  }
  if (!Listen.listenOn(Config.BindAddr, Config.Port, /*Backlog=*/64, Error))
    return false;

  ShardBackends.clear();
  ModelShardBackends.clear();
  for (unsigned I = 0; I < Config.Shards; ++I) {
    char Leaf[32];
    std::snprintf(Leaf, sizeof(Leaf), "shard-%02u", I);
    ShardBackends.push_back(std::make_unique<LocalDirBackend>(
        (std::filesystem::path(Config.Root) / Leaf).string()));
    // Model artifacts live in their own directories so namespace
    // budgets and prune policy never interleave with measurements.
    std::snprintf(Leaf, sizeof(Leaf), "model-shard-%02u", I);
    ModelShardBackends.push_back(std::make_unique<LocalDirBackend>(
        (std::filesystem::path(Config.Root) / Leaf).string()));
  }

  StopFlag.store(false, std::memory_order_release);
  Running.store(true, std::memory_order_release);
  ServeThread = std::thread([this] { serveLoop(); });
  return true;
}

void CacheServer::stop() {
  StopFlag.store(true, std::memory_order_release);
  if (ServeThread.joinable())
    ServeThread.join();
  Listen.close();
  Running.store(false, std::memory_order_release);
}

void CacheServer::serveLoop() {
  // The pool's parallelFor distributes worker indices; every index runs
  // an accept loop until the stop flag drains them all.  The serving
  // thread participates, so Threads is the true concurrency.
  ThreadPool Pool(Config.Threads);
  Pool.parallelFor(0, Config.Threads, [this](std::size_t) { acceptLoop(); });
}

void CacheServer::acceptLoop() {
  while (!StopFlag.load(std::memory_order_acquire)) {
    Socket Conn = Listen.acceptOnce(kPollSliceMs);
    if (Conn.valid())
      serveConnection(std::move(Conn));
  }
}

void CacheServer::serveConnection(Socket Conn) {
  FGBS_COUNTER_ADD("cachesrv.connections", 1);
  std::uint64_t IdleDeadline = steadyMs() + Config.IdleTimeoutMs;
  while (!StopFlag.load(std::memory_order_acquire)) {
    Frame Request;
    WireError E = readFrame(Conn, Request, kPollSliceMs);
    if (E == WireError::Timeout) {
      if (steadyMs() >= IdleDeadline)
        return; // Idle too long; the client can reconnect.
      continue;
    }
    if (E == WireError::Closed)
      return;
    if (E != WireError::None) {
      // Frame-level damage loses byte-stream sync: answer what we can
      // and drop the connection.
      FGBS_COUNTER_ADD("cachesrv.errors", 1);
      std::string Msg;
      putStr(Msg, std::string("bad frame: ") + wireErrorName(E));
      respond(Conn, Opcode::Error, Msg);
      return;
    }
    FGBS_COUNTER_ADD("cachesrv.requests", 1);
    FGBS_COUNTER_ADD("cachesrv.bytes_in",
                     kWireHeaderBytes + Request.Payload.size());
    if (!handleFrame(Conn, Request))
      return;
    IdleDeadline = steadyMs() + Config.IdleTimeoutMs;
  }
}

bool CacheServer::respond(Socket &Conn, Opcode Op, std::string_view Payload) {
  FGBS_COUNTER_ADD("cachesrv.bytes_out", kWireHeaderBytes + Payload.size());
  return writeFrame(Conn, Op, Payload, Config.IoTimeoutMs);
}

bool CacheServer::respondError(Socket &Conn, const std::string &Message) {
  FGBS_COUNTER_ADD("cachesrv.errors", 1);
  std::string Payload;
  putStr(Payload, Message);
  return respond(Conn, Opcode::Error, Payload);
}

CacheBackend &CacheServer::backendFor(bool Model, const std::string &Storage) {
  if (Model)
    return *ModelShardBackends[modelShardForName(Storage, shards())];
  return *ShardBackends[shardForName(Storage, shards())];
}

void CacheServer::pruneShard(unsigned Shard) {
  // Reuse the whole PR 5 lifecycle (manifest, LRU, age) per shard; the
  // byte budget is split evenly because the content hash spreads
  // entries uniformly.
  MeasurementCache Shardwise(
      std::make_unique<LocalDirBackend>(ShardBackends[Shard]->dir()));
  Shardwise.prune(perShardBudget(Config.MaxBytes, shards()),
                  Config.MaxAgeSeconds);
}

CachePruneCounters CacheServer::pruneModelShard(unsigned Shard,
                                                std::uint64_t MaxBytes,
                                                std::uint64_t MaxAgeSeconds) {
  // The measurement manifest machinery only adopts fgbs-meas-* names,
  // so the model namespace gets its own (simpler) lifecycle: LRU by
  // storage mtime plus an age cutoff, over `sha/` blobs only.  Refs are
  // tiny and namable — pruning one would silently unpin a tag, whereas
  // pruning a snapshot produces the explicit dangling-ref condition the
  // registry client knows how to report.
  CachePruneCounters Out;
  LocalDirBackend &Backend = *ModelShardBackends[Shard];
  std::vector<CacheEntry> Blobs;
  for (CacheEntry &E : Backend.scan("model/", "")) {
    if (E.Name.find("/sha/") == std::string::npos)
      continue;
    Out.Entries += 1;
    Out.BytesBefore += E.SizeBytes;
    Blobs.push_back(std::move(E));
  }
  Out.BytesAfter = Out.BytesBefore;
  std::sort(Blobs.begin(), Blobs.end(),
            [](const CacheEntry &A, const CacheEntry &B) {
              return A.AccessUnixSeconds < B.AccessUnixSeconds;
            });
  const std::int64_t Now = static_cast<std::int64_t>(std::time(nullptr));
  const std::uint64_t Budget = perShardBudget(MaxBytes, shards());
  for (const CacheEntry &E : Blobs) {
    const bool OverAge =
        MaxAgeSeconds && Now - E.AccessUnixSeconds >
                             static_cast<std::int64_t>(MaxAgeSeconds);
    const bool OverBytes = Budget && Out.BytesAfter > Budget;
    if (!OverAge && !OverBytes)
      continue;
    if (!Backend.remove(E.Name))
      continue;
    Out.Removed += 1;
    Out.BytesAfter -= E.SizeBytes;
  }
  return Out;
}

void CacheServer::pruneAllShards() {
  if (Config.MaxBytes || Config.MaxAgeSeconds)
    for (unsigned I = 0; I < shards(); ++I)
      pruneShard(I);
  if (Config.ModelMaxBytes || Config.ModelMaxAgeSeconds)
    for (unsigned I = 0; I < shards(); ++I)
      pruneModelShard(I, Config.ModelMaxBytes, Config.ModelMaxAgeSeconds);
}

bool CacheServer::leaseAcquire(const std::string &Name, std::uint64_t Token,
                               std::uint64_t TtlMs) {
  TtlMs = std::min(TtlMs, kMaxLeaseTtlMs);
  const std::uint64_t Now = steadyMs();
  std::lock_guard<std::mutex> Guard(LeaseMutex);
  auto It = Leases.find(Name);
  if (It != Leases.end() && It->second.ExpiresAtMs > Now &&
      It->second.Token != Token)
    return false;
  Leases[Name] = {Token, Now + TtlMs};
  return true;
}

bool CacheServer::leaseRelease(const std::string &Name, std::uint64_t Token) {
  std::lock_guard<std::mutex> Guard(LeaseMutex);
  auto It = Leases.find(Name);
  if (It == Leases.end() || It->second.Token != Token)
    return false;
  Leases.erase(It);
  return true;
}

bool CacheServer::handleFrame(Socket &Conn, const Frame &Request) {
  ByteReader In(Request.Payload);
  switch (Request.Op) {
  case Opcode::Ping: {
    std::string Out;
    putStr(Out, "fgbs.cachewire.v1");
    putU32(Out, shards());
    return respond(Conn, Opcode::Ok, Out);
  }

  case Opcode::Exists: {
    std::string Name = In.str();
    WireNamespace Ns;
    std::string Storage;
    if (In.overrun() || !resolveEntryName(Name, Ns, Storage))
      return respondError(Conn, "exists: bad name");
    const bool Model = Ns == WireNamespace::Model;
    std::string Out;
    Out.push_back(backendFor(Model, Storage).exists(Storage) ? 1 : 0);
    return respond(Conn, Opcode::Ok, Out);
  }

  case Opcode::Get: {
    std::string Name = In.str();
    WireNamespace Ns;
    std::string Storage;
    if (In.overrun() || !resolveEntryName(Name, Ns, Storage))
      return respondError(Conn, "get: bad name");
    const bool Model = Ns == WireNamespace::Model;
    std::string Bytes;
    if (!backendFor(Model, Storage).get(Storage, Bytes)) {
      FGBS_COUNTER_ADD("cachesrv.get.misses", 1);
      StatMisses.fetch_add(1, std::memory_order_relaxed);
      return respond(Conn, Opcode::NotFound, {});
    }
    FGBS_COUNTER_ADD("cachesrv.get.hits", 1);
    StatHits.fetch_add(1, std::memory_order_relaxed);
    if (Model)
      StatModelGets.fetch_add(1, std::memory_order_relaxed);
    return respond(Conn, Opcode::Ok, Bytes);
  }

  case Opcode::Put: {
    std::string Name = In.str();
    WireNamespace Ns;
    std::string Storage;
    if (In.overrun() || !resolveEntryName(Name, Ns, Storage))
      return respondError(Conn, "put: bad name");
    const bool Model = Ns == WireNamespace::Model;
    // The blob is the rest of the payload, unframed — no second length
    // field to disagree with the frame's.
    std::string_view Blob =
        std::string_view(Request.Payload).substr(4 + Name.size());
    if (!backendFor(Model, Storage).put(Storage, Blob))
      return respondError(Conn, "put: cannot publish '" + Name + "'");
    FGBS_COUNTER_ADD("cachesrv.puts", 1);
    if (Model) {
      StatModelPuts.fetch_add(1, std::memory_order_relaxed);
      if (Storage.find("/ref/") != std::string::npos)
        StatModelRefPuts.fetch_add(1, std::memory_order_relaxed);
      if (Config.ModelMaxBytes || Config.ModelMaxAgeSeconds)
        pruneModelShard(modelShardForName(Storage, shards()),
                        Config.ModelMaxBytes, Config.ModelMaxAgeSeconds);
    } else if (Config.MaxBytes || Config.MaxAgeSeconds) {
      pruneShard(shardForName(Storage, shards()));
    }
    return respond(Conn, Opcode::Ok, {});
  }

  case Opcode::Remove: {
    std::string Name = In.str();
    WireNamespace Ns;
    std::string Storage;
    if (In.overrun() || !resolveEntryName(Name, Ns, Storage))
      return respondError(Conn, "remove: bad name");
    const bool Model = Ns == WireNamespace::Model;
    std::string Out;
    Out.push_back(backendFor(Model, Storage).remove(Storage) ? 1 : 0);
    return respond(Conn, Opcode::Ok, Out);
  }

  case Opcode::Scan: {
    std::string Prefix = In.str();
    std::string Suffix = In.str();
    if (In.overrun())
      return respondError(Conn, "scan: damaged filters");
    std::vector<CacheEntry> All;
    for (const auto &Shard : ShardBackends) {
      std::vector<CacheEntry> Part = Shard->scan(Prefix, Suffix);
      All.insert(All.end(), std::make_move_iterator(Part.begin()),
                 std::make_move_iterator(Part.end()));
    }
    std::string Out;
    putU32(Out, static_cast<std::uint32_t>(All.size()));
    for (const CacheEntry &E : All) {
      putStr(Out, E.Name);
      putU64(Out, E.SizeBytes);
      putU64(Out, static_cast<std::uint64_t>(E.AccessUnixSeconds));
    }
    return respond(Conn, Opcode::Ok, Out);
  }

  case Opcode::Prune: {
    std::uint64_t MaxBytes = In.u64();
    std::uint64_t MaxAgeSeconds = In.u64();
    if (In.overrun())
      return respondError(Conn, "prune: damaged budgets");
    // Namespace-aware clients append a second budget pair for model/;
    // its absence means "measurements only", which is exactly what a
    // pre-namespace client asks for.
    std::uint64_t ModelMaxBytes = 0, ModelMaxAgeSeconds = 0;
    bool PruneModels = false;
    if (In.remaining() >= 16) {
      ModelMaxBytes = In.u64();
      ModelMaxAgeSeconds = In.u64();
      if (In.overrun() || !In.atEnd())
        return respondError(Conn, "prune: damaged budgets");
      PruneModels = true;
    }
    CachePruneStats Total;
    for (unsigned I = 0; I < shards(); ++I) {
      MeasurementCache Shardwise(
          std::make_unique<LocalDirBackend>(ShardBackends[I]->dir()));
      CachePruneStats S =
          Shardwise.prune(perShardBudget(MaxBytes, shards()), MaxAgeSeconds);
      Total.Entries += S.Entries;
      Total.Removed += S.Removed;
      Total.BytesBefore += S.BytesBefore;
      Total.BytesAfter += S.BytesAfter;
    }
    if (PruneModels && (ModelMaxBytes || ModelMaxAgeSeconds))
      for (unsigned I = 0; I < shards(); ++I) {
        CachePruneCounters S =
            pruneModelShard(I, ModelMaxBytes, ModelMaxAgeSeconds);
        Total.Entries += S.Entries;
        Total.Removed += S.Removed;
        Total.BytesBefore += S.BytesBefore;
        Total.BytesAfter += S.BytesAfter;
      }
    std::string Out;
    putU64(Out, Total.Entries);
    putU64(Out, Total.Removed);
    putU64(Out, Total.BytesBefore);
    putU64(Out, Total.BytesAfter);
    return respond(Conn, Opcode::Ok, Out);
  }

  case Opcode::ScanPrefix: {
    std::string Prefix = In.str();
    if (In.overrun() || !In.atEnd())
      return respondError(Conn, "scan_prefix: damaged prefix");
    StatScanPrefixes.fetch_add(1, std::memory_order_relaxed);
    // Route the walk by the prefix's namespace so a model enumeration
    // never pays for a measurement-shard directory walk (and vice
    // versa); the empty prefix means "everything", both spaces.
    const bool WantModel =
        Prefix.empty() || std::string_view(Prefix).substr(0, 6) == "model/";
    const bool WantMeas = !WantModel || Prefix.empty();
    std::vector<CacheEntry> All;
    if (WantMeas) {
      // `meas/<p>` filters the flat space by `<p>` but reports the
      // spelling the client asked in, so returned names feed straight
      // back into Get.
      std::string Flat = Prefix;
      std::string Respell;
      if (std::string_view(Prefix).substr(0, 5) == "meas/") {
        Flat = Prefix.substr(5);
        Respell = "meas/";
      }
      for (const auto &Shard : ShardBackends)
        for (CacheEntry &E : Shard->scan(Flat, "")) {
          E.Name = Respell + E.Name;
          All.push_back(std::move(E));
        }
    }
    if (WantModel)
      for (const auto &Shard : ModelShardBackends)
        for (CacheEntry &E : Shard->scan(Prefix.empty() ? "model/" : Prefix,
                                         ""))
          All.push_back(std::move(E));
    std::string Out;
    putU32(Out, static_cast<std::uint32_t>(All.size()));
    for (const CacheEntry &E : All) {
      putStr(Out, E.Name);
      putU64(Out, E.SizeBytes);
      putU64(Out, static_cast<std::uint64_t>(E.AccessUnixSeconds));
    }
    return respond(Conn, Opcode::Ok, Out);
  }

  case Opcode::LockAcquire: {
    std::string Name = In.str();
    std::uint64_t Token = In.u64();
    std::uint64_t TtlMs = In.u64();
    WireNamespace Ns;
    std::string Storage;
    if (In.overrun() || !resolveEntryName(Name, Ns, Storage) || Token == 0 ||
        TtlMs == 0)
      return respondError(Conn, "lock_acquire: bad lease request");
    // Leases key on the storage name so an entry's alias spellings
    // (`x` and `meas/x`) elect one writer, not two.
    bool Granted = leaseAcquire(Storage, Token, TtlMs);
    if (Granted) {
      FGBS_COUNTER_ADD("cachesrv.lock.granted", 1);
      StatLeasesGranted.fetch_add(1, std::memory_order_relaxed);
    } else {
      FGBS_COUNTER_ADD("cachesrv.lock.denied", 1);
      StatLeasesDenied.fetch_add(1, std::memory_order_relaxed);
    }
    std::string Out;
    Out.push_back(Granted ? 1 : 0);
    return respond(Conn, Opcode::Ok, Out);
  }

  case Opcode::LockRelease: {
    std::string Name = In.str();
    std::uint64_t Token = In.u64();
    WireNamespace Ns;
    std::string Storage;
    if (In.overrun() || !resolveEntryName(Name, Ns, Storage) || Token == 0)
      return respondError(Conn, "lock_release: bad lease request");
    std::string Out;
    Out.push_back(leaseRelease(Storage, Token) ? 1 : 0);
    return respond(Conn, Opcode::Ok, Out);
  }

  case Opcode::Stats: {
    if (!Request.Payload.empty())
      return respondError(Conn, "stats: unexpected payload");
    std::string Out;
    putU32(Out, shards());
    for (const auto &Shard : ShardBackends) {
      std::uint64_t Entries = 0, Bytes = 0;
      for (const CacheEntry &E : Shard->scan("", "")) {
        ++Entries;
        Bytes += E.SizeBytes;
      }
      putU64(Out, Entries);
      putU64(Out, Bytes);
    }
    putU64(Out, StatHits.load(std::memory_order_relaxed));
    putU64(Out, StatMisses.load(std::memory_order_relaxed));
    putU64(Out, StatLeasesGranted.load(std::memory_order_relaxed));
    putU64(Out, StatLeasesDenied.load(std::memory_order_relaxed));
    // The retired work-queue counters: zeros keep the v1 layout.
    for (int I = 0; I < kStatsRetiredSlots; ++I)
      putU64(Out, 0);
    // Namespace extension: appended after the pre-namespace layout so
    // old clients (which stop reading here) still parse the response.
    putU32(Out, shards());
    for (const auto &Shard : ModelShardBackends) {
      std::uint64_t Entries = 0, Bytes = 0;
      for (const CacheEntry &E : Shard->scan("", "")) {
        ++Entries;
        Bytes += E.SizeBytes;
      }
      putU64(Out, Entries);
      putU64(Out, Bytes);
    }
    putU64(Out, StatModelGets.load(std::memory_order_relaxed));
    putU64(Out, StatModelPuts.load(std::memory_order_relaxed));
    putU64(Out, StatModelRefPuts.load(std::memory_order_relaxed));
    putU64(Out, StatScanPrefixes.load(std::memory_order_relaxed));
    return respond(Conn, Opcode::Ok, Out);
  }

  case Opcode::Ok:
  case Opcode::NotFound:
  case Opcode::Error:
    break;
  }
  // Retired and unknown opcodes have no name; the number tells an
  // operator which one an old client sent.
  return respondError(Conn,
                      "unsupported opcode " +
                          std::to_string(static_cast<unsigned>(Request.Op)));
}
