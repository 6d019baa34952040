//===- fgbs/core/MeasurementCache.h - fgbs.meas.v1 cache -------*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content-addressed, versioned on-disk persistence of a finished
/// MeasurementDatabase (fgbs.meas.v1).
///
/// The paper's economics rest on paying the measurement cost once:
/// steps A-B simulate every codelet on the reference and every target,
/// and nothing downstream (clustering sweeps, GA feature selection,
/// model training, the fig/table benches) changes those numbers.  The
/// cache persists the finished database keyed by a content hash of its
/// inputs — suite name + full codelet set + every machine configuration
/// + the timing policy — so a warm run skips simulation entirely.
///
/// File layout (all integers little-endian; the header discipline of
/// fgbs.model.v1 snapshots — see service/Snapshot.h):
///
///   [0..8)   magic "FGBSMEA1"
///   [8..12)  u32 version major (this writer: 1)
///   [12..16) u32 version minor (this writer: 0)
///   [16..24) u64 payload size in bytes
///   [24..28) u32 CRC-32 (IEEE) of the payload
///   [28.. )  payload (see MeasurementCache.cpp for the field order)
///
/// Loading is strict and typed like snapshot loading — truncation,
/// version skew, CRC mismatch, dimension damage and non-finite numbers
/// all produce MeasurementCacheError values, never undefined behaviour.
/// A stored key that does not match the key derived from the live
/// inputs (e.g. a machine configuration changed since the file was
/// written) is KeyMismatch; buildMeasurementDatabase() treats every
/// load failure as a miss and falls back to re-simulation with a
/// warning, so a stale or damaged cache can never corrupt results.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_CORE_MEASUREMENTCACHE_H
#define FGBS_CORE_MEASUREMENTCACHE_H

#include "fgbs/core/CacheBackend.h"
#include "fgbs/core/Database.h"
#include "fgbs/support/FileLock.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace fgbs {

/// Leading bytes of every measurement-cache file.
inline constexpr char kMeasurementMagic[8] = {'F', 'G', 'B', 'S',
                                              'M', 'E', 'A', '1'};
/// Format version this build writes.
inline constexpr std::uint32_t kMeasurementVersionMajor = 1;
inline constexpr std::uint32_t kMeasurementVersionMinor = 0;
/// Fixed header size preceding the payload.
inline constexpr std::size_t kMeasurementHeaderBytes = 28;

/// Content hash of everything the simulator sweep depends on: suite
/// name, every codelet (arrays, loop nest, body statement trees,
/// invocation schedule, behaviour traits), every field of the reference
/// and target machine descriptions, and the timing policy.  Any change
/// to any of them yields a different key and therefore a clean
/// re-simulation.
std::uint64_t measurementKey(const Suite &S, const Machine &Reference,
                             const std::vector<Machine> &Targets,
                             const TimingPolicy &Policy = {});

/// The cache file name a key maps to ("fgbs-meas-<16 hex digits>.v1").
std::string measurementCacheFileName(std::uint64_t Key);

/// Why a measurement cache failed to load.
enum class MeasurementCacheError {
  None,               ///< Loaded fine.
  Io,                 ///< Could not open/read the file.
  Truncated,          ///< Fewer bytes than the header/payload announce.
  BadMagic,           ///< Not a measurement-cache file.
  UnsupportedVersion, ///< Major version this reader does not speak.
  ChecksumMismatch,   ///< Payload bytes do not match the stored CRC-32.
  KeyMismatch,        ///< Stored content key differs from the live inputs.
  Malformed,          ///< Structural damage: dimension or range mismatch.
  InvalidValue,       ///< Non-finite number where a finite one is required.
  LockTimeout,        ///< Writer coordination lock could not be acquired.
};

/// Stable identifier for an error (warnings and tests key on it).
const char *measurementCacheErrorName(MeasurementCacheError E);

/// Outcome of a load: either a reassembled database (bound to the live
/// suite) or a typed error with a human-readable message.
struct MeasurementLoadResult {
  std::unique_ptr<MeasurementDatabase> Db;
  MeasurementCacheError Error = MeasurementCacheError::None;
  std::string Message;

  explicit operator bool() const { return Db != nullptr; }
};

/// Serializes \p Db into the byte format described above, stamped with
/// \p Key (the caller computes it via measurementKey over the same
/// inputs that built \p Db).
std::string serializeMeasurements(const MeasurementDatabase &Db,
                                  std::uint64_t Key);

/// Parses and validates measurement bytes, rebinding the codelet
/// profiles onto \p S.  \p ExpectedKey must match the stored key and
/// the stored codelet/machine names must match the live objects.
/// \p Reference and \p Targets are the live machine descriptions the
/// rebuilt database carries.
MeasurementLoadResult parseMeasurements(std::string_view Bytes,
                                        const Suite &S, Machine Reference,
                                        std::vector<Machine> Targets,
                                        std::uint64_t ExpectedKey);

/// File wrappers around serialize/parse.  Saving publishes atomically:
/// the bytes land in a temp file next to \p Path (same filesystem, so
/// the final rename is atomic) and readers never observe a partial
/// file.
bool saveMeasurementsFile(const std::string &Path,
                          const MeasurementDatabase &Db, std::uint64_t Key);
MeasurementLoadResult loadMeasurementsFile(const std::string &Path,
                                           const Suite &S, Machine Reference,
                                           std::vector<Machine> Targets,
                                           std::uint64_t ExpectedKey);

/// The per-directory manifest tracking size and last-use time of every
/// cache entry (newest first).  Line-oriented text: a magic first line,
/// then one "<atime-unix> <size-bytes> <name>" line per entry.  The
/// manifest is advisory — a missing or damaged one falls back to a
/// directory rescan (entry mtimes stand in for access times).
inline constexpr char kMeasurementIndexName[] = "fgbs.meas.index.v1";

/// Hits younger than this skip the manifest rewrite (relatime): a warm
/// run's steady state costs one small read, never a write.
inline constexpr std::int64_t kManifestRelatimeSeconds = 60;

/// What prune() did.
struct CachePruneStats {
  std::size_t Entries = 0;        ///< Entries visible before pruning.
  std::size_t Removed = 0;        ///< Entries deleted.
  std::uint64_t BytesBefore = 0;  ///< Entry bytes before pruning.
  std::uint64_t BytesAfter = 0;   ///< Entry bytes after pruning.
  bool RebuiltFromScan = false;   ///< Manifest absent/corrupt; rescanned.
  bool LockTimedOut = false;      ///< Manifest lock unavailable; no-op.
};

/// The measurement cache proper: a CacheBackend (a local directory, a
/// RemoteCacheBackend over an fgbs_cached server, or the tiered
/// composition of both) plus the lifecycle logic — manifest
/// bookkeeping, LRU/age eviction, and typed lock-coordinated stores.
/// Loads never lock: entries are published atomically, so a reader sees
/// either nothing or a complete file.  Manifest bookkeeping and prune()
/// are skipped for backends whose manifest lock path is empty — those
/// manage their own lifecycle where the blobs live (the server prunes
/// its shards).  Writer coordination goes through the backend's
/// writerLock(), so a remote backend elects one writer fleet-wide.
class MeasurementCache {
public:
  /// A cache over \p Dir via LocalDirBackend (created when missing).
  explicit MeasurementCache(const std::string &Dir);
  /// A cache over any backend (the remote-tier seam).
  explicit MeasurementCache(std::unique_ptr<CacheBackend> Backend);

  CacheBackend &backend() { return *BackendPtr; }

  /// True when an entry for \p Key has been published.
  bool exists(std::uint64_t Key) const;

  /// Loads and validates the entry for \p Key; a successful load
  /// refreshes the entry's manifest access time (relatime-throttled).
  MeasurementLoadResult load(const Suite &S, Machine Reference,
                             std::vector<Machine> Targets, std::uint64_t Key);

  /// Serializes and atomically publishes \p Db under \p Key, updating
  /// the manifest.  Unless \p EntryLockHeld says the caller already
  /// holds the entry's writer lock, one is acquired here — and a lock
  /// that cannot be had within LockOptions.TimeoutMs is the typed
  /// LockTimeout error (nothing is written), never a silent fallback.
  MeasurementCacheError store(const MeasurementDatabase &Db, std::uint64_t Key,
                              bool EntryLockHeld = false,
                              std::string *Message = nullptr);

  /// Evicts least-recently-used entries until the cache holds at most
  /// \p MaxBytes of entries (0 = unbounded) and none older than
  /// \p MaxAgeSeconds (0 = unbounded).  Runs under the manifest lock;
  /// heals a corrupt manifest from a directory rescan as a side effect.
  CachePruneStats prune(std::uint64_t MaxBytes, std::uint64_t MaxAgeSeconds);

  /// Where the writer lock for \p Key's entry lives (empty = backend
  /// needs no locking).
  std::string entryLockPath(std::uint64_t Key) const;

  /// Writer-coordination knobs.  Manifest updates use a short slice of
  /// this budget; entry stores use all of it.
  FileLock::Options LockOptions;

private:
  void touchEntry(const std::string &Name, std::uint64_t SizeBytes);

  std::unique_ptr<CacheBackend> BackendPtr;
};

/// The FGBS_MEAS_CACHE_MAX_BYTES default byte budget (0 when unset or
/// unparseable).
std::uint64_t measurementCacheEnvMaxBytes();

/// How buildMeasurementDatabase() runs: thread fan-out plus the on-disk
/// cache location and lifecycle.
struct DatabaseBuildOptions {
  /// Measurement threads (DatabaseOptions semantics: 0 = auto).
  unsigned Threads = 0;
  /// Cache directory; empty disables the on-disk cache.  Created on
  /// first store if missing.
  std::string CacheDir;
  /// "host:port" of an fgbs_cached server (--cache-remote); empty falls
  /// back to the FGBS_MEAS_CACHE_REMOTE environment variable, and an
  /// empty result means no remote tier.  With a CacheDir too, the cache
  /// is tiered (local read-through over the remote, async write-back);
  /// with no CacheDir it is remote-only.  An unreachable or dying
  /// server degrades to simulate-without-store with a warning and
  /// db.cache.remote.{errors,timeouts} counters — it never fails a run.
  std::string CacheRemote;
  /// Master cache switch (--no-cache): false never reads or writes the
  /// cache even when CacheDir is set.
  bool UseCache = true;
  /// How long a cold run waits on the per-entry writer lock before
  /// giving up and simulating without storing (0 = auto: the
  /// FGBS_MEAS_CACHE_LOCK_MS environment variable, else 10 minutes).
  std::uint64_t LockTimeoutMs = 0;
  /// Entry-byte budget auto-pruned after a store (0 = auto: the
  /// FGBS_MEAS_CACHE_MAX_BYTES environment variable, else unbounded).
  std::uint64_t CacheMaxBytes = 0;
  /// Maximum entry age in seconds, enforced alongside the byte budget
  /// (0 = unbounded).
  std::uint64_t CacheMaxAgeSeconds = 0;
  /// Timing policy forwarded to the standalone measurements (part of
  /// the content key).
  TimingPolicy Policy;
};

/// Builds the measurement database for (\p S, \p Reference, \p Targets),
/// serving it from \p Options.CacheDir when a file with the matching
/// content key exists there, and re-simulating (then storing) otherwise.
/// Load failures warn on stderr and fall back to simulation; store
/// failures warn and are otherwise ignored.
///
/// Concurrent cold runs against one directory coordinate through a
/// per-entry FileLock: exactly one simulates and publishes while the
/// others block (backoff + Options.LockTimeoutMs deadline) and then
/// load the freshly published entry instead of re-simulating.  A run
/// whose lock wait times out warns with the typed lock_timeout error,
/// simulates, and skips the store (the live holder will publish the
/// identical bytes).  When a byte/age budget is configured the cache is
/// LRU-pruned after a store.
///
/// Counters (when telemetry is on): db.cache.{hits,misses,stores,
/// errors,evictions} and db.cache.lock.{acquired,waited_ms,timeouts}.
std::unique_ptr<MeasurementDatabase>
buildMeasurementDatabase(const Suite &S, Machine Reference,
                         std::vector<Machine> Targets,
                         const DatabaseBuildOptions &Options = {});

} // namespace fgbs

#endif // FGBS_CORE_MEASUREMENTCACHE_H
