//===- fgbs/core/RemoteCacheBackend.h - Wire-protocol client ---*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client half of the remote measurement-cache tier: a CacheBackend
/// that speaks fgbs.cachewire.v1 (net/Framing) to an fgbs_cached
/// daemon, so a fleet of training runs shares one measurement corpus.
///
/// Failure discipline — the remote tier is an optimization, never a
/// dependency: every network failure (unreachable server, timeout,
/// damaged frame, server-side error) degrades to the miss path.
/// exists()/get() return false, put()/remove() return false, scan()
/// returns empty — the caller simulates and moves on, exactly as if
/// the entry were absent.  Each failed operation bumps
/// db.cache.remote.errors (db.cache.remote.timeouts when the deadline
/// passed) and the first failure per backend logs one warning naming
/// the address; later ones stay quiet so a dead server does not flood
/// stderr of a long run.
///
/// Transient failures are retried MaxAttempts times with bounded
/// exponential backoff and a fresh connection per attempt; a server
/// that answers with an Error frame is not retried (it will answer the
/// same way again).
///
/// lockPath() is empty — the server provides atomicity (each shard is a
/// LocalDirBackend with atomic rename publish) — and writerLock()
/// returns a server lease instead, so the whole fleet elects exactly
/// one simulating writer per entry (the CI fleet-contention gate pays
/// for exactly one sim.execute across N machines).
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_CORE_REMOTECACHEBACKEND_H
#define FGBS_CORE_REMOTECACHEBACKEND_H

#include "fgbs/core/CacheBackend.h"
#include "fgbs/net/Framing.h"
#include "fgbs/net/Socket.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace fgbs {

/// Deterministic "equal jitter" retry schedule: attempt \p Attempt's
/// delay is drawn from [ceil(base/2), base] with
/// base = min(InitialMs << Attempt, MaxMs), the draw keyed on
/// (\p Seed, \p Attempt).  The jitter half-window keeps N clients that
/// lost the same server from reconnecting in lockstep (their seeds
/// differ), while the deterministic draw keeps any one client's
/// schedule reproducible in tests.  Never returns 0.
std::uint64_t retryBackoffMs(unsigned Attempt, std::uint64_t InitialMs,
                             std::uint64_t MaxMs, std::uint64_t Seed);

/// One shard's footprint in a Stats response.
struct RemoteShardStats {
  std::uint64_t Entries = 0;
  std::uint64_t Bytes = 0;
};

/// Decoded Stats opcode response: storage footprint and request
/// counters.
struct RemoteCacheStats {
  std::vector<RemoteShardStats> Shards;
  std::uint64_t Hits = 0;
  std::uint64_t Misses = 0;
  std::uint64_t LeasesGranted = 0;
  std::uint64_t LeasesDenied = 0;
  /// Namespace extension (servers that speak the model/ namespace
  /// append it; HasModelStats distinguishes "old server" from "all
  /// zeros").
  bool HasModelStats = false;
  std::vector<RemoteShardStats> ModelShards;
  std::uint64_t ModelGets = 0;
  std::uint64_t ModelPuts = 0;
  std::uint64_t ModelRefPuts = 0;
  std::uint64_t ScanPrefixes = 0;
};

/// Renders \p S as the stable `fgbs.cachestats.v1` JSON document that
/// `fgbs_cached --stats --json` emits (sorted keys, schema field first)
/// so dashboards scrape a schema, not human text.
std::string renderStatsJson(const RemoteCacheStats &S);

/// How a RemoteCacheBackend reaches its server.
struct RemoteCacheConfig {
  std::string Host;
  std::uint16_t Port = 0;
  /// Deadline for establishing a connection.
  std::uint64_t ConnectTimeoutMs = 2000;
  /// Deadline for one request/response round trip.
  std::uint64_t RequestTimeoutMs = 10000;
  /// Connection attempts per operation (>= 1).
  unsigned MaxAttempts = 3;
  /// First retry backoff; doubles per failure up to MaxBackoffMs.
  std::uint64_t InitialBackoffMs = 50;
  std::uint64_t MaxBackoffMs = 1000;
  /// Writer-lease time-to-live granted by LockAcquire; heartbeat()
  /// renews it.  Matches FileLock's sentinel staleness default.
  std::uint64_t LeaseTtlMs = 900000;
};

/// Parses "host:port" into a config (timeouts keep their defaults).
/// False when \p Spec is not of that shape.
bool parseRemoteCacheAddress(const std::string &Spec, RemoteCacheConfig &Out);

/// CacheBackend over one fgbs_cached server.  Thread-safe: operations
/// share one pooled connection under a mutex (cache traffic is a few
/// large blobs, not a request storm; benchmarks wanting parallelism
/// construct one backend per thread).
class RemoteCacheBackend final : public CacheBackend {
public:
  explicit RemoteCacheBackend(RemoteCacheConfig Config);

  const RemoteCacheConfig &config() const { return Config; }
  std::string address() const {
    return Config.Host + ":" + std::to_string(Config.Port);
  }

  /// One Ping round trip; true when the server answers.
  bool ping() const;

  bool exists(const std::string &Name) const override;
  bool get(const std::string &Name, std::string &BytesOut) const override;
  bool put(const std::string &Name, std::string_view Bytes) override;
  bool remove(const std::string &Name) override;
  std::vector<CacheEntry> scan(const std::string &Prefix,
                               const std::string &Suffix) const override;
  /// ScanPrefix round trip with typed degradation: Unsupported when the
  /// server answers "unsupported opcode" (it predates ScanPrefix — an
  /// empty listing from it means nothing), Failed when the network ate
  /// the answer.  Never silently empty.
  ScanPrefixResult scanPrefix(const std::string &Prefix) const override;
  /// One Ping: the registry's "is an empty/missing answer
  /// authoritative, or is the server down" probe.
  bool healthy() const override { return ping(); }
  std::string lockPath(const std::string &Name) const override;
  std::unique_ptr<WriterLock> writerLock(const std::string &Name) override;

  /// Asks the server to prune every shard to the given budgets.  True
  /// on a round trip; fills totals across shards.
  bool pruneRemote(std::uint64_t MaxBytes, std::uint64_t MaxAgeSeconds,
                   std::uint64_t *EntriesOut = nullptr,
                   std::uint64_t *RemovedOut = nullptr);

  /// Prune with a second, model/-scoped budget pair (sent as the Prune
  /// opcode's extension payload; old servers reject it as damaged, so
  /// only call this against namespace-aware servers or on explicit
  /// operator request).
  bool pruneRemote(std::uint64_t MaxBytes, std::uint64_t MaxAgeSeconds,
                   std::uint64_t ModelMaxBytes,
                   std::uint64_t ModelMaxAgeSeconds,
                   std::uint64_t *EntriesOut, std::uint64_t *RemovedOut);

  /// Lease primitives behind writerLock() (exposed for tests).
  bool lockAcquire(const std::string &Name, std::uint64_t Token,
                   bool &GrantedOut);
  bool lockRelease(const std::string &Name, std::uint64_t Token);

  /// One Stats round trip; false on any network failure or a
  /// malformed reply.
  bool statsRemote(RemoteCacheStats &Out);

private:
  /// Sends \p Op and decodes the response frame.  Handles connect,
  /// retry/backoff, counters, and the one-shot warning.  False when
  /// every attempt failed; \p Response holds Ok/NotFound/Error
  /// otherwise.
  bool request(net::Opcode Op, std::string_view Payload,
               net::Frame &Response) const;

  RemoteCacheConfig Config;
  /// Per-backend jitter seed so a fleet's retry schedules decorrelate.
  std::uint64_t BackoffSeed;
  mutable std::mutex Mutex;
  mutable net::Socket Conn;
  mutable bool WarnedUnreachable = false;
};

} // namespace fgbs

#endif // FGBS_CORE_REMOTECACHEBACKEND_H
