//===- tests/remote_cache_test.cpp - the networked cache tier -------------===//
//
// The remote measurement-cache tier end to end: shard addressing, the
// fgbs_cached server's opcode surface over a real loopback socket,
// fleet-wide writer leases and their jittered retry schedule, tiered
// read-through/write-back semantics, typed degradation when the server
// dies, and the headline guarantee — a second host with a cold local
// directory trains with zero simulation and byte-identical results.
//
//===----------------------------------------------------------------------===//

#include "fgbs/core/MeasurementCache.h"
#include "fgbs/core/RemoteCacheBackend.h"
#include "fgbs/core/TieredCacheBackend.h"
#include "fgbs/net/CacheServer.h"
#include "fgbs/obs/Json.h"
#include "fgbs/obs/Metrics.h"
#include "fgbs/service/Snapshot.h"
#include "fgbs/suites/Synthetic.h"
#include "fgbs/support/BinaryIo.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include <unistd.h>

using namespace fgbs;
namespace fs = std::filesystem;

namespace {

struct TempDir {
  fs::path Path;
  explicit TempDir(const std::string &Tag) {
    static std::atomic<unsigned> Serial{0};
    Path = fs::temp_directory_path() /
           ("fgbs_remote_cache_" + Tag + "_" +
            std::to_string(static_cast<long>(::getpid())) + "_" +
            std::to_string(Serial.fetch_add(1)));
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~TempDir() { fs::remove_all(Path); }
};

net::CacheServerConfig loopbackConfig(const TempDir &Dir, unsigned Shards) {
  net::CacheServerConfig Config;
  Config.Root = (Dir.Path / "server").string();
  Config.Shards = Shards;
  Config.Threads = 2;
  Config.BindAddr = "127.0.0.1";
  return Config;
}

RemoteCacheConfig clientConfig(const net::CacheServer &Server) {
  RemoteCacheConfig Config;
  Config.Host = "127.0.0.1";
  Config.Port = Server.port();
  return Config;
}

/// A client whose server is gone: one attempt, tight deadlines, so
/// degradation paths run in milliseconds.
RemoteCacheConfig deadServerConfig() {
  RemoteCacheConfig Config;
  Config.Host = "127.0.0.1";
  Config.Port = 1;
  Config.ConnectTimeoutMs = 200;
  Config.RequestTimeoutMs = 200;
  Config.MaxAttempts = 1;
  return Config;
}

SyntheticConfig tinyConfig() {
  SyntheticConfig Cfg;
  Cfg.NumApplications = 1;
  Cfg.CodeletsPerApp = 3;
  Cfg.MinFootprintBytes = 64 << 10;
  Cfg.MaxFootprintBytes = 1 << 20;
  return Cfg;
}

//===----------------------------------------------------------------------===//
// Shard addressing and name validation
//===----------------------------------------------------------------------===//

TEST(ShardAddressing, CanonicalNamesRouteOnHashPrefix) {
  // The leading 8 hex digits choose the shard, so the key itself names
  // its home and shard counts need only agree per-server.
  EXPECT_EQ(net::CacheServer::shardForName("fgbs-meas-0000000300000000.v1", 4),
            3u);
  EXPECT_EQ(net::CacheServer::shardForName("fgbs-meas-0000000500000000.v1", 4),
            1u);
  EXPECT_EQ(net::CacheServer::shardForName("fgbs-meas-deadbeef00000000.v1", 1),
            0u);
}

TEST(ShardAddressing, StableAcrossCalls) {
  for (unsigned Shards : {1u, 2u, 4u, 7u}) {
    unsigned First =
        net::CacheServer::shardForName("fgbs.meas.index.v1", Shards);
    EXPECT_LT(First, Shards);
    EXPECT_EQ(First,
              net::CacheServer::shardForName("fgbs.meas.index.v1", Shards));
  }
}

TEST(ShardAddressing, EntryNameValidation) {
  EXPECT_TRUE(net::isValidEntryName("fgbs-meas-0123456789abcdef.v1"));
  EXPECT_TRUE(net::isValidEntryName("fgbs.meas.index.v1"));
  EXPECT_FALSE(net::isValidEntryName(""));
  EXPECT_FALSE(net::isValidEntryName("."));
  EXPECT_FALSE(net::isValidEntryName(".."));
  EXPECT_FALSE(net::isValidEntryName("../escape"));
  EXPECT_FALSE(net::isValidEntryName("dir/inside"));
  EXPECT_FALSE(net::isValidEntryName("back\\slash"));
  EXPECT_FALSE(net::isValidEntryName(std::string("nul\0byte", 8)));
  EXPECT_FALSE(net::isValidEntryName(std::string(256, 'a')));
}

//===----------------------------------------------------------------------===//
// Server surface over a live loopback connection
//===----------------------------------------------------------------------===//

TEST(CacheServer, EntriesSpreadAcrossShardDirectories) {
  TempDir Dir("shards");
  net::CacheServer Server(loopbackConfig(Dir, 4));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;
  RemoteCacheBackend Client(clientConfig(Server));

  // Names whose leading hash digits hit each of the four shards.
  for (unsigned I = 0; I < 4; ++I) {
    char Name[64];
    std::snprintf(Name, sizeof(Name), "fgbs-meas-%08x00000000.v1", I);
    ASSERT_TRUE(Client.put(Name, "shard blob"));
    fs::path ShardFile =
        fs::path(Server.root()) /
        ("shard-0" + std::to_string(I)) / Name;
    EXPECT_TRUE(fs::exists(ShardFile))
        << Name << " should land in shard " << I;
  }

  // Scan merges all shards back into one listing.
  EXPECT_EQ(Client.scan("fgbs-meas-", ".v1").size(), 4u);
}

TEST(CacheServer, TraversalNamesRejected) {
  TempDir Dir("traversal");
  net::CacheServer Server(loopbackConfig(Dir, 2));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;
  RemoteCacheBackend Client(clientConfig(Server));
  EXPECT_FALSE(Client.put("../escape.v1", "evil"));
  EXPECT_FALSE(Client.exists("../escape.v1"));
  EXPECT_FALSE(fs::exists(Dir.Path / "escape.v1"));
}

TEST(CacheServer, WirePruneEvictsOverBudget) {
  TempDir Dir("prune");
  net::CacheServer Server(loopbackConfig(Dir, 2));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;
  RemoteCacheBackend Client(clientConfig(Server));

  const std::string Blob(10000, 'p');
  ASSERT_TRUE(Client.put("fgbs-meas-0000000000000001.v1", Blob));
  ASSERT_TRUE(Client.put("fgbs-meas-0000000100000002.v1", Blob));
  ASSERT_TRUE(Client.put("fgbs-meas-0000000200000003.v1", Blob));

  std::uint64_t Entries = 0, Removed = 0;
  ASSERT_TRUE(Client.pruneRemote(/*MaxBytes=*/1, /*MaxAgeSeconds=*/0,
                                 &Entries, &Removed));
  EXPECT_EQ(Entries, 3u);
  EXPECT_EQ(Removed, 3u);
  EXPECT_TRUE(Client.scan("fgbs-meas-", ".v1").empty());
}

TEST(CacheServer, SurvivesDamagedFramesFromOtherClients) {
  TempDir Dir("damage");
  net::CacheServer Server(loopbackConfig(Dir, 1));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;

  // A raw client sends garbage; the server answers an error and drops
  // only that connection.
  {
    net::Socket Bad =
        net::Socket::connectTo("127.0.0.1", Server.port(), 1000, &Error);
    ASSERT_TRUE(Bad.valid()) << Error;
    const char Garbage[32] = "this is not a cachewire frame.";
    ASSERT_TRUE(Bad.sendAll(Garbage, sizeof(Garbage), 1000));
  }

  // A well-formed client is unaffected.
  RemoteCacheBackend Client(clientConfig(Server));
  EXPECT_TRUE(Client.ping());
  EXPECT_TRUE(Client.put("fgbs-meas-00000000000000aa.v1", "fine"));
}

TEST(CacheServer, StopReturnsPromptlyAfterAcceptRace) {
  // Every idle worker polls the listener, so one arriving client wakes
  // all four and only one accept succeeds.  The others must return to
  // their stop-flag check instead of sleeping in accept(2), where
  // stop() would join them forever (the ctest timeout catches that).
  TempDir Dir("stop");
  std::string Error;
  for (int Round = 0; Round < 50; ++Round) {
    net::CacheServerConfig Config = loopbackConfig(Dir, 1);
    Config.Threads = 4;
    net::CacheServer Server(Config);
    ASSERT_TRUE(Server.start(&Error)) << Error;
    {
      RemoteCacheBackend Client(clientConfig(Server));
      ASSERT_TRUE(Client.ping()) << "round " << Round;
    }
    auto Start = std::chrono::steady_clock::now();
    Server.stop();
    EXPECT_LT(std::chrono::steady_clock::now() - Start,
              std::chrono::seconds(5))
        << "round " << Round;
  }
}

TEST(CacheServer, StatsReportsShardFootprintAndCounters) {
  TempDir Dir("stats");
  net::CacheServer Server(loopbackConfig(Dir, 3));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;
  RemoteCacheBackend Backend(clientConfig(Server));

  ASSERT_TRUE(Backend.put("fgbs-meas-0000000000000001.v1", "0123456789"));
  ASSERT_TRUE(Backend.put("fgbs-meas-0000000100000000.v1", "01234"));
  // Hit/miss accounting is Get-only (Exists probes are free).
  std::string Bytes;
  EXPECT_TRUE(Backend.get("fgbs-meas-0000000000000001.v1", Bytes));  // hit
  EXPECT_FALSE(Backend.get("fgbs-meas-00000000000000ff.v1", Bytes)); // miss
  EXPECT_TRUE(Backend.exists("fgbs-meas-0000000000000001.v1"));
  EXPECT_FALSE(Backend.exists("fgbs-meas-00000000000000ff.v1"));
  bool Granted = false;
  ASSERT_TRUE(Backend.lockAcquire("fgbs-meas-0000000000000002.v1", 7, Granted));
  EXPECT_TRUE(Granted);
  ASSERT_TRUE(Backend.lockAcquire("fgbs-meas-0000000000000002.v1", 8, Granted));
  EXPECT_FALSE(Granted);

  RemoteCacheStats Stats;
  ASSERT_TRUE(Backend.statsRemote(Stats));
  ASSERT_EQ(Stats.Shards.size(), 3u);
  std::uint64_t Entries = 0, Footprint = 0;
  for (const RemoteShardStats &Shard : Stats.Shards) {
    Entries += Shard.Entries;
    Footprint += Shard.Bytes;
  }
  EXPECT_EQ(Entries, 2u);
  EXPECT_EQ(Footprint, 15u);
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.LeasesGranted, 1u);
  EXPECT_EQ(Stats.LeasesDenied, 1u);

  // The reply keeps the v1 byte layout, with the eight retired
  // work-queue counters as zeros, so a client that still parses them
  // reads the model extension at the same offset.
  net::Socket Raw =
      net::Socket::connectTo("127.0.0.1", Server.port(), 2000, &Error);
  ASSERT_TRUE(Raw.valid()) << Error;
  ASSERT_TRUE(net::writeFrame(Raw, net::Opcode::Stats, "", 2000));
  net::Frame Reply;
  ASSERT_EQ(net::readFrame(Raw, Reply, 2000), net::WireError::None);
  ASSERT_EQ(Reply.Op, net::Opcode::Ok);
  const std::size_t Shards = 3;
  EXPECT_EQ(Reply.Payload.size(),
            4 + Shards * 16 + 4 * 8 + 8 * 8 + 4 + Shards * 16 + 4 * 8);
  binio::ByteReader In(Reply.Payload);
  In.u32();
  for (std::size_t I = 0; I < Shards * 2 + 4; ++I)
    In.u64();
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(In.u64(), 0u) << "retired slot " << I;
  EXPECT_EQ(In.u32(), Shards) << "model shard count follows the zeros";
  Server.stop();
}

//===----------------------------------------------------------------------===//
// Jittered retry backoff
//===----------------------------------------------------------------------===//

TEST(RetryBackoff, StaysInsideTheEqualJitterWindow) {
  const std::uint64_t Initial = 50, Max = 1000;
  for (std::uint64_t Seed : {1ull, 0xDEADBEEFull, 0x5EED5EED5EED5EEDull}) {
    for (unsigned Attempt = 0; Attempt < 16; ++Attempt) {
      std::uint64_t Base = Max;
      if (Attempt < 63 && (Max >> Attempt) >= Initial)
        Base = Initial << Attempt;
      const std::uint64_t V = retryBackoffMs(Attempt, Initial, Max, Seed);
      EXPECT_GE(V, Base - Base / 2) << "attempt " << Attempt;
      EXPECT_LE(V, Base) << "attempt " << Attempt;
    }
  }
}

TEST(RetryBackoff, DeterministicPerSeedDecorrelatedAcrossSeeds) {
  for (unsigned Attempt = 0; Attempt < 8; ++Attempt)
    EXPECT_EQ(retryBackoffMs(Attempt, 50, 1000, 42),
              retryBackoffMs(Attempt, 50, 1000, 42));
  // Two clients with different seeds must not share a schedule (the
  // whole point of the jitter): some attempt must differ.
  bool Differs = false;
  for (unsigned Attempt = 0; Attempt < 8 && !Differs; ++Attempt)
    Differs = retryBackoffMs(Attempt, 50, 1000, 1) !=
              retryBackoffMs(Attempt, 50, 1000, 2);
  EXPECT_TRUE(Differs);
}

TEST(RetryBackoff, NeverZeroAndSaturatesSanely) {
  EXPECT_GE(retryBackoffMs(0, 0, 0, 7), 1u);
  EXPECT_GE(retryBackoffMs(200, 50, 1000, 7), 500u); // huge attempt: capped
  EXPECT_LE(retryBackoffMs(200, 50, 1000, 7), 1000u);
  // Max below Initial: the cap lifts to Initial instead of underflowing.
  EXPECT_LE(retryBackoffMs(3, 100, 10, 7), 100u);
  EXPECT_GE(retryBackoffMs(3, 100, 10, 7), 50u);
}

//===----------------------------------------------------------------------===//
// Fleet-wide writer leases
//===----------------------------------------------------------------------===//

TEST(WriterLease, MutualExclusionAndRelease) {
  TempDir Dir("lease");
  net::CacheServer Server(loopbackConfig(Dir, 1));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;

  RemoteCacheBackend A(clientConfig(Server));
  RemoteCacheBackend B(clientConfig(Server));
  const std::string Name = "fgbs-meas-00000000000000cc.v1";

  bool Granted = false;
  ASSERT_TRUE(A.lockAcquire(Name, /*Token=*/111, Granted));
  EXPECT_TRUE(Granted);
  // Renewal by the same token re-grants.
  ASSERT_TRUE(A.lockAcquire(Name, /*Token=*/111, Granted));
  EXPECT_TRUE(Granted);
  // A different token is denied while the lease is live.
  ASSERT_TRUE(B.lockAcquire(Name, /*Token=*/222, Granted));
  EXPECT_FALSE(Granted);
  // Releasing with the wrong token is refused; the right one works.
  ASSERT_TRUE(B.lockRelease(Name, /*Token=*/222));
  ASSERT_TRUE(B.lockAcquire(Name, /*Token=*/222, Granted));
  EXPECT_FALSE(Granted);
  ASSERT_TRUE(A.lockRelease(Name, /*Token=*/111));
  ASSERT_TRUE(B.lockAcquire(Name, /*Token=*/222, Granted));
  EXPECT_TRUE(Granted);
  ASSERT_TRUE(B.lockRelease(Name, /*Token=*/222));
}

TEST(WriterLease, ExpiresAfterTtl) {
  TempDir Dir("ttl");
  net::CacheServer Server(loopbackConfig(Dir, 1));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;

  RemoteCacheConfig Config = clientConfig(Server);
  Config.LeaseTtlMs = 100; // A crashed holder delays others 100ms, max.
  RemoteCacheBackend Crashed(std::move(Config));
  RemoteCacheBackend Waiter(clientConfig(Server));

  bool Granted = false;
  ASSERT_TRUE(Crashed.lockAcquire("fgbs-meas-00000000000000cd.v1", 333,
                                  Granted));
  ASSERT_TRUE(Granted);
  // "Crashed" never releases.  Within the TTL the lease holds...
  ASSERT_TRUE(
      Waiter.lockAcquire("fgbs-meas-00000000000000cd.v1", 444, Granted));
  EXPECT_FALSE(Granted);
  // ...and after it, the name is free again.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_TRUE(
      Waiter.lockAcquire("fgbs-meas-00000000000000cd.v1", 444, Granted));
  EXPECT_TRUE(Granted);
}

TEST(WriterLease, WriterLockBlocksUntilPeerReleases) {
  TempDir Dir("lockwait");
  net::CacheServer Server(loopbackConfig(Dir, 1));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;

  RemoteCacheBackend A(clientConfig(Server));
  RemoteCacheBackend B(clientConfig(Server));
  const std::string Name = "fgbs-meas-00000000000000ce.v1";

  std::unique_ptr<WriterLock> LockA = A.writerLock(Name);
  FileLock::Options Fast;
  Fast.TimeoutMs = 5000;
  ASSERT_TRUE(static_cast<bool>(LockA->acquire(Fast)));

  std::atomic<bool> PeerAcquired{false};
  std::thread Peer([&] {
    std::unique_ptr<WriterLock> LockB = B.writerLock(Name);
    WriterLock::Result R = LockB->acquire(Fast);
    EXPECT_TRUE(static_cast<bool>(R)) << R.Message;
    PeerAcquired.store(true);
    LockB->release();
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(PeerAcquired.load()) << "peer acquired a held lease";
  LockA->release();
  Peer.join();
  EXPECT_TRUE(PeerAcquired.load());
}

//===----------------------------------------------------------------------===//
// Degradation: a dead server never fails an operation
//===----------------------------------------------------------------------===//

TEST(Degradation, DeadServerDegradesWithCounters) {
  obs::MetricsRegistry::global().reset();
  obs::setEnabled(true);
  RemoteCacheBackend Client(deadServerConfig());
  std::string Bytes;
  EXPECT_FALSE(Client.exists("fgbs-meas-00000000000000d0.v1"));
  EXPECT_FALSE(Client.get("fgbs-meas-00000000000000d0.v1", Bytes));
  EXPECT_FALSE(Client.put("fgbs-meas-00000000000000d0.v1", "bytes"));
  EXPECT_TRUE(Client.scan("fgbs-meas-", ".v1").empty());
  EXPECT_GE(obs::counterTotal("db.cache.remote.errors"), 4u);
  obs::setEnabled(false);
}

TEST(Degradation, WriterLockAcquiresUnleasedWhenServerDead) {
  // The writer election degrades to "go ahead" — a dead coordination
  // server must never stall every training run in the fleet.
  RemoteCacheBackend Client(deadServerConfig());
  std::unique_ptr<WriterLock> Lock =
      Client.writerLock("fgbs-meas-00000000000000d1.v1");
  FileLock::Options Fast;
  Fast.TimeoutMs = 2000;
  WriterLock::Result R = Lock->acquire(Fast);
  EXPECT_TRUE(static_cast<bool>(R));
  EXPECT_NE(R.Message.find("unleased"), std::string::npos);
  Lock->release();
}

//===----------------------------------------------------------------------===//
// Tiered semantics
//===----------------------------------------------------------------------===//

TEST(Tiered, RemoteHitPopulatesLocalTier) {
  TempDir Dir("readthrough");
  net::CacheServer Server(loopbackConfig(Dir, 2));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;

  // Seed the server directly, as if another host published the entry.
  RemoteCacheBackend Seeder(clientConfig(Server));
  const std::string Name = "fgbs-meas-00000000000000e0.v1";
  ASSERT_TRUE(Seeder.put(Name, "fleet-shared bytes"));

  const std::string LocalDir = (Dir.Path / "local").string();
  TieredCacheBackend Tiered(
      std::make_unique<LocalDirBackend>(LocalDir),
      std::make_unique<RemoteCacheBackend>(clientConfig(Server)));

  obs::MetricsRegistry::global().reset();
  obs::setEnabled(true);
  std::string Bytes;
  ASSERT_TRUE(Tiered.get(Name, Bytes));
  EXPECT_EQ(Bytes, "fleet-shared bytes");
  EXPECT_EQ(obs::counterTotal("db.cache.tier.remote_hits"), 1u);
  EXPECT_TRUE(fs::exists(fs::path(LocalDir) / Name))
      << "a remote hit must back-fill the local tier";

  // The second read is local.
  ASSERT_TRUE(Tiered.get(Name, Bytes));
  EXPECT_EQ(obs::counterTotal("db.cache.tier.local_hits"), 1u);
  obs::setEnabled(false);
}

TEST(Tiered, PutWritesBackToRemoteAsynchronously) {
  TempDir Dir("writeback");
  net::CacheServer Server(loopbackConfig(Dir, 2));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;

  const std::string Name = "fgbs-meas-00000000000000e1.v1";
  {
    TieredCacheBackend Tiered(
        std::make_unique<LocalDirBackend>((Dir.Path / "local").string()),
        std::make_unique<RemoteCacheBackend>(clientConfig(Server)));
    ASSERT_TRUE(Tiered.put(Name, "published locally"));
    Tiered.flushWriteBacks();
  }

  RemoteCacheBackend Checker(clientConfig(Server));
  std::string Bytes;
  ASSERT_TRUE(Checker.get(Name, Bytes));
  EXPECT_EQ(Bytes, "published locally");
}

TEST(Tiered, ManifestNeverCrossesTheNetwork) {
  TempDir Dir("manifest");
  net::CacheServer Server(loopbackConfig(Dir, 2));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;

  TieredCacheBackend Tiered(
      std::make_unique<LocalDirBackend>((Dir.Path / "local").string()),
      std::make_unique<RemoteCacheBackend>(clientConfig(Server)));
  ASSERT_TRUE(Tiered.put(kMeasurementIndexName, "local manifest"));
  Tiered.flushWriteBacks();

  RemoteCacheBackend Checker(clientConfig(Server));
  EXPECT_FALSE(Checker.exists(kMeasurementIndexName));
}

//===----------------------------------------------------------------------===//
// End to end through buildMeasurementDatabase
//===----------------------------------------------------------------------===//

class RemoteBuildTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    TheSuite = new Suite(makeSyntheticSuite(tinyConfig()));
    Targets = {makeAtom()};
  }
  static void TearDownTestSuite() {
    delete TheSuite;
    TheSuite = nullptr;
  }
  static Suite *TheSuite;
  static std::vector<Machine> Targets;
};

Suite *RemoteBuildTest::TheSuite = nullptr;
std::vector<Machine> RemoteBuildTest::Targets;

TEST_F(RemoteBuildTest, SecondHostLoadsWithZeroSimulation) {
  TempDir Dir("e2e");
  net::CacheServer Server(loopbackConfig(Dir, 4));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;
  const std::string Address = "127.0.0.1:" + std::to_string(Server.port());

  DatabaseBuildOptions HostA;
  HostA.Threads = 2;
  HostA.CacheDir = (Dir.Path / "hostA").string();
  HostA.CacheRemote = Address;

  obs::MetricsRegistry::global().reset();
  obs::setEnabled(true);
  auto DbA = buildMeasurementDatabase(*TheSuite, makeNehalem(), Targets,
                                      HostA);
  ASSERT_NE(DbA, nullptr);
  EXPECT_GT(obs::counterTotal("sim.execute"), 0u);
  EXPECT_EQ(obs::counterTotal("db.cache.stores"), 1u);

  // "Host B": a different local directory, warm only through the
  // server.  The paper's simulation cost is paid exactly once.
  DatabaseBuildOptions HostB = HostA;
  HostB.CacheDir = (Dir.Path / "hostB").string();
  obs::MetricsRegistry::global().reset();
  auto DbB = buildMeasurementDatabase(*TheSuite, makeNehalem(), Targets,
                                      HostB);
  ASSERT_NE(DbB, nullptr);
  EXPECT_EQ(obs::counterTotal("sim.execute"), 0u)
      << "host B re-simulated despite the shared server";
  EXPECT_EQ(obs::counterTotal("db.cache.hits"), 1u);
  EXPECT_EQ(obs::counterTotal("db.cache.tier.remote_hits"), 1u);
  obs::setEnabled(false);

  // Byte-identical results, not merely equivalent ones.
  const std::uint64_t Key =
      measurementKey(*TheSuite, makeNehalem(), Targets, {});
  EXPECT_EQ(serializeMeasurements(*DbA, Key), serializeMeasurements(*DbB, Key));
}

TEST_F(RemoteBuildTest, RemoteOnlyCacheWorksWithoutLocalDir) {
  TempDir Dir("remoteonly");
  net::CacheServer Server(loopbackConfig(Dir, 2));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;

  DatabaseBuildOptions Options;
  Options.Threads = 2;
  Options.CacheRemote = "127.0.0.1:" + std::to_string(Server.port());

  obs::MetricsRegistry::global().reset();
  obs::setEnabled(true);
  auto First = buildMeasurementDatabase(*TheSuite, makeNehalem(), Targets,
                                        Options);
  ASSERT_NE(First, nullptr);
  EXPECT_GT(obs::counterTotal("sim.execute"), 0u);

  obs::MetricsRegistry::global().reset();
  auto Second = buildMeasurementDatabase(*TheSuite, makeNehalem(), Targets,
                                         Options);
  ASSERT_NE(Second, nullptr);
  EXPECT_EQ(obs::counterTotal("sim.execute"), 0u);
  EXPECT_EQ(obs::counterTotal("db.cache.hits"), 1u);
  obs::setEnabled(false);
}

TEST_F(RemoteBuildTest, DeadServerDegradesToLocalRun) {
  TempDir Dir("deadsrv");
  DatabaseBuildOptions Options;
  Options.Threads = 2;
  Options.CacheDir = (Dir.Path / "local").string();
  Options.CacheRemote = "127.0.0.1:1"; // Nothing listens here.

  obs::MetricsRegistry::global().reset();
  obs::setEnabled(true);
  auto Db = buildMeasurementDatabase(*TheSuite, makeNehalem(), Targets,
                                     Options);
  ASSERT_NE(Db, nullptr) << "a dead cache server must never fail a run";
  EXPECT_GT(obs::counterTotal("sim.execute"), 0u);
  EXPECT_GT(obs::counterTotal("db.cache.remote.errors"), 0u);
  // The local tier still works: a second run on the same directory is
  // a local hit even with the server still dead.
  obs::MetricsRegistry::global().reset();
  auto Again = buildMeasurementDatabase(*TheSuite, makeNehalem(), Targets,
                                        Options);
  ASSERT_NE(Again, nullptr);
  EXPECT_EQ(obs::counterTotal("sim.execute"), 0u);
  EXPECT_EQ(obs::counterTotal("db.cache.hits"), 1u);
  obs::setEnabled(false);
}

//===----------------------------------------------------------------------===//
// Satellite: crashed-writer temp files are invisible to scans
//===----------------------------------------------------------------------===//

TEST(TempFileHygiene, ScanSkipsFreshAndUnlinksStaleTempFiles) {
  TempDir Dir("tempfiles");
  LocalDirBackend Backend((Dir.Path / "cache").string());
  ASSERT_TRUE(Backend.put("fgbs-meas-00000000000000f0.v1", "real entry"));

  // A "crashed writer" leftover matching the scan filters by name.  One
  // fresh (a live writer may be about to rename it) and one stale.
  const fs::path Fresh =
      fs::path(Backend.dir()) / "fgbs-meas-00000000000000f1.v1.tmp.999.0";
  const fs::path Stale =
      fs::path(Backend.dir()) / "fgbs-meas-00000000000000f2.v1.tmp.999.1";
  { std::ofstream(Fresh.string()) << "partial"; }
  { std::ofstream(Stale.string()) << "partial"; }
  fs::last_write_time(Stale, fs::file_time_type::clock::now() -
                                 std::chrono::seconds(2 * 3600));

  std::vector<CacheEntry> Entries = Backend.scan("fgbs-meas-", "");
  ASSERT_EQ(Entries.size(), 1u) << "temp files leaked into the scan";
  EXPECT_EQ(Entries[0].Name, "fgbs-meas-00000000000000f0.v1");

  EXPECT_TRUE(fs::exists(Fresh)) << "a fresh temp file must be left alone";
  EXPECT_FALSE(fs::exists(Stale)) << "a stale temp file must be swept";
}

TEST(TempFileHygiene, ManifestRescanIgnoresTempFiles) {
  TempDir Dir("temprescan");
  const std::string CacheDir = (Dir.Path / "cache").string();
  MeasurementCache Cache(CacheDir);
  LocalDirBackend Direct(CacheDir);
  ASSERT_TRUE(Direct.put("fgbs-meas-00000000000000f3.v1", "entry"));
  const fs::path Temp =
      fs::path(CacheDir) / "fgbs-meas-00000000000000f4.v1.tmp.12.7";
  { std::ofstream(Temp.string()) << "partial write"; }

  // No manifest exists, so prune rebuilds from a scan — which must not
  // adopt the temp file as an entry.
  CachePruneStats Stats = Cache.prune(/*MaxBytes=*/0, /*MaxAgeSeconds=*/0);
  EXPECT_TRUE(Stats.RebuiltFromScan);
  EXPECT_EQ(Stats.Entries, 1u);
  EXPECT_EQ(Stats.Removed, 0u);
}

//===----------------------------------------------------------------------===//
// fgbs.cachestats.v1: the machine-readable stats surface
//===----------------------------------------------------------------------===//

TEST(StatsJson, SchemaCoversBothNamespaces) {
  TempDir Dir("stats_json");
  net::CacheServer Server(loopbackConfig(Dir, 2));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;
  RemoteCacheBackend Client(clientConfig(Server));

  // Populate both namespaces and tick the scan counter so every JSON
  // field below is exercised with a non-trivial value.
  ASSERT_TRUE(Client.put("fgbs-meas-00000000000000f0.v1", "meas bytes"));
  const std::string Sha = "model/stats-model/sha/" + std::string(64, 'f');
  ASSERT_TRUE(Client.put(Sha, "model bytes"));
  ASSERT_TRUE(Client.put("model/stats-model/ref/latest", "ref bytes"));
  ASSERT_TRUE(static_cast<bool>(Client.scanPrefix("model/")));

  RemoteCacheStats Stats;
  ASSERT_TRUE(Client.statsRemote(Stats));
  ASSERT_TRUE(Stats.HasModelStats);
  // ModelPuts counts every model-namespace store; ModelRefPuts is the
  // ref-only sub-count.
  EXPECT_EQ(Stats.ModelPuts, 2u);
  EXPECT_EQ(Stats.ModelRefPuts, 1u);
  EXPECT_EQ(Stats.ScanPrefixes, 1u);

  const std::string Json = renderStatsJson(Stats);
  std::optional<obs::JsonValue> Doc = obs::parseJson(Json);
  ASSERT_TRUE(Doc.has_value()) << "stats JSON must parse:\n" << Json;

  const obs::JsonValue *Schema = Doc->find("schema");
  ASSERT_NE(Schema, nullptr);
  EXPECT_EQ(Schema->string(), "fgbs.cachestats.v1");

  const obs::JsonValue *Meas = Doc->find("meas");
  ASSERT_NE(Meas, nullptr);
  for (const char *Key : {"shards", "entries", "bytes", "hits", "misses"})
    EXPECT_NE(Meas->find(Key), nullptr) << "meas." << Key;
  EXPECT_EQ(Meas->find("entries")->number(), 1.0);
  EXPECT_EQ(Meas->find("shards")->elements().size(), 2u);

  const obs::JsonValue *Leases = Doc->find("leases");
  ASSERT_NE(Leases, nullptr);
  EXPECT_NE(Leases->find("granted"), nullptr);
  EXPECT_NE(Leases->find("denied"), nullptr);

  const obs::JsonValue *Model = Doc->find("model");
  ASSERT_NE(Model, nullptr);
  ASSERT_FALSE(Model->isNull());
  for (const char *Key :
       {"shards", "entries", "bytes", "gets", "puts", "ref_puts",
        "scan_prefixes"})
    EXPECT_NE(Model->find(Key), nullptr) << "model." << Key;
  EXPECT_EQ(Model->find("entries")->number(), 2.0) << "sha blob + ref";
  EXPECT_EQ(Model->find("puts")->number(), 2.0);
  EXPECT_EQ(Model->find("ref_puts")->number(), 1.0);
  EXPECT_EQ(Model->find("scan_prefixes")->number(), 1.0);

  Server.stop();
}

TEST(StatsJson, PreNamespaceServerRendersModelNull) {
  // A stats reply without the namespace extension (an old server) must
  // render "model": null — distinguishable from "zero models" — while
  // the measurement half stays fully populated.
  RemoteCacheStats Stats;
  Stats.Shards.resize(1);
  Stats.Shards[0].Entries = 7;
  Stats.Shards[0].Bytes = 4096;
  Stats.Hits = 3;
  ASSERT_FALSE(Stats.HasModelStats);
  const std::string Json = renderStatsJson(Stats);
  std::optional<obs::JsonValue> Doc = obs::parseJson(Json);
  ASSERT_TRUE(Doc.has_value()) << Json;
  const obs::JsonValue *Model = Doc->find("model");
  ASSERT_NE(Model, nullptr);
  EXPECT_TRUE(Model->isNull());
  EXPECT_EQ(Doc->find("meas")->find("entries")->number(), 7.0);
}

} // namespace
