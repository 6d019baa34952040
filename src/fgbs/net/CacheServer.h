//===- fgbs/net/CacheServer.h - Sharded measurement-cache daemon *- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server half of the remote measurement-cache tier: a
/// ThreadPool-backed TCP daemon speaking fgbs.cachewire.v1 (net/Framing)
/// over N shard directories, each shard a plain core/LocalDirBackend so
/// PR 5's atomic-publish, manifest, and eviction machinery is reused
/// verbatim.  Shipped as tools/fgbs_cached.
///
/// Shard addressing is by content-hash prefix: an entry name of the
/// canonical "fgbs-meas-<16 hex>.v1" shape routes on its leading hash
/// digits, anything else on a CRC-32 of the whole name — so one key
/// always lands on one shard and shard counts only need to agree
/// per-server, never per-client (clients address the server, not the
/// shards).
///
/// Namespaces: wire names without '/' are the historical flat
/// measurement space; `meas/<entry>` is an alias for that same space
/// (one entry, two spellings), and `model/<name>/...` is a separate set
/// of model shard directories with its own byte/age budgets — model
/// snapshots are large and long-lived, and must not be evicted by
/// measurement churn (nor crowd measurements out).  Within the model
/// namespace only `.../sha/<hex>` blobs are budget-pruned; tiny
/// `.../ref/<tag>` blobs are never touched by the pruner, so a dangling
/// ref means "the snapshot aged out", a condition the registry client
/// reports distinctly.
///
/// Writer coordination across the fleet uses token leases, not file
/// locks: LockAcquire(name, token, ttl) grants when the name is free or
/// already owned by that token (renewal), and a lease silently expires
/// TTL milliseconds after its last grant — a crashed client can delay
/// the fleet by at most one TTL, and no connection needs to stay open
/// while a lease holder simulates.  This is the flock story of
/// support/FileLock translated to a stateless wire: the token plays the
/// pid, the TTL plays StaleAfterMs, renewal plays heartbeat().
///
/// Concurrency model: Threads workers (support/ThreadPool) each loop
/// accept -> serve-connection-to-idle -> accept.  Connections are
/// cheap, short-lived, and never pinned by leases, so a small pool
/// serves a large fleet; the kernel backlog absorbs bursts.
///
/// Telemetry: cachesrv.{requests,bytes_in,bytes_out,errors,connections}
/// plus cachesrv.get.{hits,misses} and cachesrv.lock.{granted,denied}.
/// The Stats opcode reports from server-local atomics (always on,
/// independent of FGBS_TELEMETRY) plus live shard scans.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_NET_CACHESERVER_H
#define FGBS_NET_CACHESERVER_H

#include "fgbs/core/CacheBackend.h"
#include "fgbs/net/Framing.h"
#include "fgbs/net/Socket.h"
#include "fgbs/support/ThreadPool.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace fgbs {
namespace net {

/// How a CacheServer runs.
struct CacheServerConfig {
  /// Directory the shard subdirectories (shard-00, shard-01, ...) live
  /// under; created on start().
  std::string Root;
  /// Shard directory count (>= 1).
  unsigned Shards = 4;
  /// Worker threads serving connections (0 = 4).
  unsigned Threads = 0;
  /// IPv4 bind address; empty = all interfaces.
  std::string BindAddr;
  /// TCP port; 0 = kernel-chosen ephemeral (read back via port()).
  std::uint16_t Port = 0;
  /// Per-shard lifecycle budgets, enforced by pruning a shard after
  /// each store into it and by the Prune opcode (0 = unbounded).  The
  /// byte budget is the whole server's; each shard gets an equal split.
  std::uint64_t MaxBytes = 0;
  std::uint64_t MaxAgeSeconds = 0;
  /// Same, scoped to the model/ namespace (its shard set is pruned
  /// independently; only sha blobs count, refs are never pruned).
  std::uint64_t ModelMaxBytes = 0;
  std::uint64_t ModelMaxAgeSeconds = 0;
  /// A connection with no complete frame for this long is closed (it
  /// can simply reconnect; leases survive, they are TTL-based).
  std::uint64_t IdleTimeoutMs = 30000;
  /// Deadline for each single frame send/receive once started.
  std::uint64_t IoTimeoutMs = 10000;
};

/// pruneModelShard's tally (mirrors core CachePruneStats without
/// pulling MeasurementCache.h into this header).
struct CachePruneCounters {
  std::uint64_t Entries = 0;
  std::uint64_t Removed = 0;
  std::uint64_t BytesBefore = 0;
  std::uint64_t BytesAfter = 0;
};

/// The daemon: start() binds and serves in background threads until
/// stop() (or destruction).
class CacheServer {
public:
  explicit CacheServer(CacheServerConfig Config);
  ~CacheServer();

  CacheServer(const CacheServer &) = delete;
  CacheServer &operator=(const CacheServer &) = delete;

  /// Binds, creates the shard directories, and spawns the worker pool.
  bool start(std::string *Error);

  /// Stops accepting, drains in-flight connections, joins the workers.
  /// Idempotent.
  void stop();

  bool running() const { return Running.load(std::memory_order_acquire); }

  /// The bound port (valid after start(); resolves Port = 0).
  std::uint16_t port() const { return Listen.port(); }

  unsigned shards() const {
    return static_cast<unsigned>(ShardBackends.size());
  }

  const std::string &root() const { return Config.Root; }

  /// Which shard \p Name routes to: the leading 8 hex digits of a
  /// canonical "fgbs-meas-<16 hex>.v1" entry name, else CRC-32 of the
  /// whole name, reduced modulo \p Shards.
  static unsigned shardForName(std::string_view Name, unsigned Shards);

  /// Which model shard a `model/...` storage name routes to: the
  /// leading 8 hex digits of its `sha/<hex>` leaf when it has one, else
  /// CRC-32 of the whole name, reduced modulo \p Shards.
  static unsigned modelShardForName(std::string_view Name, unsigned Shards);

  /// Runs the PR 5 lifecycle (manifest, LRU, age) over every shard with
  /// the configured budgets — the periodic self-prune hook fgbs_cached
  /// calls so a long-lived daemon honours its budget without a cron.
  /// Model shards prune under their own budgets.
  void pruneAllShards();

private:
  void serveLoop();
  void acceptLoop();
  void serveConnection(Socket Conn);
  /// Handles one request frame; false means the connection must close
  /// (frame-level damage lost byte-stream sync).
  bool handleFrame(Socket &Conn, const Frame &Request);
  bool respond(Socket &Conn, Opcode Op, std::string_view Payload);
  bool respondError(Socket &Conn, const std::string &Message);

  /// The backend a resolved wire name stores into: a measurement shard
  /// keyed on the flat storage name, or a model shard keyed on the
  /// namespaced one.
  CacheBackend &backendFor(bool Model, const std::string &Storage);
  void pruneShard(unsigned Shard);
  /// LRU + age pruning over one model shard's `sha/` blobs (refs are
  /// exempt); budgets are the per-shard slice of \p MaxBytes /
  /// \p MaxAgeSeconds.  Returns {entries, removed, bytes-before,
  /// bytes-after} aggregated over sha blobs only.
  CachePruneCounters pruneModelShard(unsigned Shard, std::uint64_t MaxBytes,
                                     std::uint64_t MaxAgeSeconds);

  CacheServerConfig Config;
  Listener Listen;
  std::vector<std::unique_ptr<LocalDirBackend>> ShardBackends;
  std::vector<std::unique_ptr<LocalDirBackend>> ModelShardBackends;
  std::unique_ptr<ThreadPool> Pool;
  std::thread ServeThread;
  std::atomic<bool> StopFlag{false};
  std::atomic<bool> Running{false};

  /// The fleet-wide writer leases (name -> owner token + expiry).
  struct Lease {
    std::uint64_t Token = 0;
    std::uint64_t ExpiresAtMs = 0; ///< steady-clock milliseconds.
  };
  std::mutex LeaseMutex;
  std::map<std::string, Lease> Leases;

  bool leaseAcquire(const std::string &Name, std::uint64_t Token,
                    std::uint64_t TtlMs);
  bool leaseRelease(const std::string &Name, std::uint64_t Token);

  /// Always-on request counters served by the Stats opcode (the obs
  /// counters mirror these but vanish when FGBS_TELEMETRY is off).
  std::atomic<std::uint64_t> StatHits{0};
  std::atomic<std::uint64_t> StatMisses{0};
  std::atomic<std::uint64_t> StatLeasesGranted{0};
  std::atomic<std::uint64_t> StatLeasesDenied{0};
  std::atomic<std::uint64_t> StatModelGets{0};
  std::atomic<std::uint64_t> StatModelPuts{0};
  std::atomic<std::uint64_t> StatModelRefPuts{0};
  std::atomic<std::uint64_t> StatScanPrefixes{0};
};

/// True when \p Name is safe to map into a shard directory: non-empty,
/// at most 255 bytes, no path separators, and not "." or ".." — the
/// server rejects anything else before it touches the filesystem.
bool isValidEntryName(std::string_view Name);

/// Which namespace a resolved wire name lives in.
enum class WireNamespace {
  Meas,  ///< The historical flat measurement space.
  Model, ///< `model/...` artifact space (own shards, own budgets).
};

/// Resolves a wire entry name to its namespace and storage name.
///
///   <flat>            -> Meas, storage "<flat>"      (back-compat)
///   meas/<flat>       -> Meas, storage "<flat>"      (alias)
///   model/<segments>  -> Model, storage "model/<segments>"
///
/// Rejects (returns false): any other namespace, empty / "." / ".." /
/// over-long segments, characters outside [A-Za-z0-9._-] in a
/// namespaced segment, a trailing '/', "//", '~' anywhere (reserved as
/// the storage '/'-escape), and names over 255 bytes — there is exactly
/// one accepted spelling per entry, so validation cannot be dodged by
/// an alternate encoding.
bool resolveEntryName(std::string_view WireName, WireNamespace &NsOut,
                      std::string &StorageOut);

} // namespace net
} // namespace fgbs

#endif // FGBS_NET_CACHESERVER_H
