// Online remedy through the daemon (docs/REMEDY.md): SubmitRemedy plans
// against a pinned epoch and commits through the same WAL group-commit path
// as ingest. The suite pins the headline contracts:
//
//   parity     the post-remedy epoch's leaf census is digest-identical to
//              batch-rebuilding the remedy over the canonical
//              materialization of the pinned counts;
//   staleness  a plan pinned behind a later ingest commit is rejected
//              (kResourceExhausted), never blindly applied;
//   autonomy   the monitor-triggered auto-remedy loop commits a
//              deterministic, replayable sequence of plans and quiesces;
//   crash      a kill at ANY byte of a remedy commit recovers to the
//              pre-remedy or post-remedy digest — never between.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "core/hierarchy.h"
#include "core/remedy_backend.h"
#include "serve/daemon.h"
#include "test_util.h"

namespace remedy {
namespace {

using remedy::testing::SmallSchema;

std::string TempPath(const std::string& name) {
  // Keyed by pid so the plain/TSan/ASan twins never collide when ctest
  // schedules the same case from all three binaries concurrently.
  return ::testing::TempDir() + name + "_" + std::to_string(::getpid());
}

std::string FreshDir(const std::string& name) {
  static int counter = 0;
  const std::string dir =
      TempPath("remedy_" + name + "_" + std::to_string(counter++));
  std::remove((dir + "/" + ServeDaemon::kWalFileName).c_str());
  std::remove((dir + "/" + ServeDaemon::kCheckpointFileName).c_str());
  ::rmdir(dir.c_str());
  return dir;
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteBytes(const std::string& path, const uint8_t* data, size_t size) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (size > 0) {
    ASSERT_EQ(std::fwrite(data, 1, size, f), size);
  }
  std::fclose(f);
}

int64_t FileSize(const std::string& path) {
  struct stat info;
  if (::stat(path.c_str(), &info) != 0) return -1;
  return static_cast<int64_t>(info.st_size);
}

// SmallSchema leaf keys: a (3 values) then b (2 values), key = a * 2 + b.
Hierarchy::LeafDelta Delta(int a, int b, int64_t dp, int64_t dn) {
  return {static_cast<uint64_t>(a * 2 + b), dp, dn};
}

// A skewed census: strong per-cell class imbalance so the epoch audit finds
// a non-empty IBS at the thresholds below.
std::vector<Hierarchy::LeafDelta> SkewedDeltas() {
  return {Delta(0, 0, 30, 2),  Delta(0, 1, 4, 28), Delta(1, 0, 16, 16),
          Delta(1, 1, 16, 16), Delta(2, 0, 2, 30), Delta(2, 1, 28, 4)};
}

ServeOptions RemedyOptions(const std::string& dir) {
  ServeOptions options;
  options.state_dir = dir;
  options.ibs.min_region_size = 5;
  options.ibs.imbalance_threshold = 0.2;
  options.enable_remedy = true;
  options.remedy.technique = RemedyTechnique::kMassaging;
  options.remedy.seed = 23;
  // Keep the remedy's own identification aligned with the monitor's (Start
  // copies options.ibs over options.remedy.ibs; mirror that for oracles).
  options.remedy.ibs = options.ibs;
  return options;
}

uint64_t SnapshotLeafDigest(const ServeDaemon& daemon) {
  std::shared_ptr<const EpochSnapshot> snapshot = daemon.Snapshot();
  EXPECT_NE(snapshot->leaf_counts, nullptr);
  return LeafCountsDigest(*snapshot->leaf_counts);
}

// Applies a delta plan to a copy of `base` (the parity oracle's left side).
NodeTable Applied(const NodeTable& base,
                  const std::vector<Hierarchy::LeafDelta>& deltas) {
  NodeTable out = base;
  for (const Hierarchy::LeafDelta& delta : deltas) {
    out.UpsertDelta(delta.leaf_key, delta.delta_positives,
                    delta.delta_negatives);
  }
  return out;
}

TEST(ServeRemedyTest, CommitMatchesBatchRebuildOnTheMaterializedCut) {
  const DataSchema schema = SmallSchema();
  auto daemon =
      ServeDaemon::Start(schema, RemedyOptions(FreshDir("parity")));
  ASSERT_TRUE(daemon.ok()) << daemon.status();
  ASSERT_TRUE(daemon.value()->Submit(SkewedDeltas()).ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());

  std::shared_ptr<const EpochSnapshot> pinned = daemon.value()->Snapshot();
  ASSERT_NE(pinned->leaf_counts, nullptr);
  const NodeTable pre_counts = *pinned->leaf_counts;

  RemedyParams params = RemedyOptions("unused").remedy;
  StatusOr<RemedyCommitResult> result =
      daemon.value()->SubmitRemedy(params);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result.value().committed) << "skewed census planned nothing";
  EXPECT_EQ(result.value().planned_epoch, pinned->epoch);
  EXPECT_GT(result.value().applied_epoch, pinned->epoch);
  EXPECT_GT(result.value().deltas, 0u);
  EXPECT_EQ(daemon.value()->remedy_commits(), 1);

  // The remedy is visible at the new epoch and nowhere earlier.
  std::shared_ptr<const EpochSnapshot> post = daemon.value()->Snapshot();
  EXPECT_EQ(post->epoch, result.value().applied_epoch);

  // Golden-output parity: the daemon's post-remedy census must equal the
  // batch rebuild engine run over the canonical materialization of the
  // pinned counts — byte-identical, by FNV-1a digest.
  Dataset materialized = MaterializeLeafCounts(schema, pre_counts).value();
  RemedyParams rebuild = params;
  rebuild.engine = RemedyEngine::kRebuild;
  StatusOr<Dataset> oracle = RemedyDataset(materialized, rebuild);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_EQ(LeafCountsDigest(*post->leaf_counts),
            LeafCountsDigest(LeafCountsOf(oracle.value())))
      << "streaming commit diverged from the batch rebuild oracle";
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

TEST(ServeRemedyTest, RequiresRemedyEnabledOptions) {
  const DataSchema schema = SmallSchema();
  ServeOptions options = RemedyOptions(FreshDir("disabled"));
  options.enable_remedy = false;
  auto daemon = ServeDaemon::Start(schema, options);
  ASSERT_TRUE(daemon.ok());
  // No leaf census rides the snapshots, and SubmitRemedy refuses.
  EXPECT_EQ(daemon.value()->Snapshot()->leaf_counts, nullptr);
  EXPECT_EQ(daemon.value()->SubmitRemedy(RemedyParams()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_NE(daemon.value()->HealthJson().find("\"remedy_backend\":\"disabled\""),
            std::string::npos);
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

TEST(ServeRemedyTest, PlanPinnedBehindIngestIsRejectedStale) {
  const DataSchema schema = SmallSchema();
  auto daemon = ServeDaemon::Start(schema, RemedyOptions(FreshDir("stale")));
  ASSERT_TRUE(daemon.ok());
  ASSERT_TRUE(daemon.value()->Submit(SkewedDeltas()).ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());
  std::shared_ptr<const EpochSnapshot> old_cut = daemon.value()->Snapshot();

  // Ingest advances the committed sequence past the pin.
  ASSERT_TRUE(daemon.value()->Submit({Delta(1, 0, 3, 0)}).ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());
  const uint64_t digest_before = SnapshotLeafDigest(*daemon.value());

  RemedyParams params = RemedyOptions("unused").remedy;
  StatusOr<RemedyCommitResult> result =
      daemon.value()->SubmitRemedy(params, old_cut);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("stale"), std::string::npos)
      << result.status();
  // The stale plan must not have leaked into the lattice.
  ASSERT_TRUE(daemon.value()->Flush().ok());
  EXPECT_EQ(SnapshotLeafDigest(*daemon.value()), digest_before);
  // Re-planning against the fresh cut succeeds — the documented retry.
  StatusOr<RemedyCommitResult> retried = daemon.value()->SubmitRemedy(params);
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_TRUE(retried.value().committed);
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

TEST(ServeRemedyTest, AutoRemedyCommitsAReplayableSequenceAndQuiesces) {
  const DataSchema schema = SmallSchema();
  ServeOptions options = RemedyOptions(FreshDir("auto"));
  options.auto_remedy = true;
  options.auto_remedy_max_rounds = 8;
  auto daemon = ServeDaemon::Start(schema, options);
  ASSERT_TRUE(daemon.ok()) << daemon.status();

  std::shared_ptr<const EpochSnapshot> start = daemon.value()->Snapshot();
  ASSERT_NE(start->leaf_counts, nullptr);

  ASSERT_TRUE(daemon.value()->Submit(SkewedDeltas()).ok());
  ASSERT_TRUE(daemon.value()->Flush().ok());
  // One flushed ingest epoch: its census is the auto loop's starting cut.
  // (Capture before quiescing — the loop may already be committing.)
  NodeTable cut = Applied(*start->leaf_counts, SkewedDeltas());

  daemon.value()->WaitRemedyIdle();
  ASSERT_TRUE(daemon.value()->Flush().ok());
  const int64_t commits = daemon.value()->remedy_commits();
  ASSERT_GE(commits, 1) << "the monitor never triggered a remedy round";
  ASSERT_LE(commits, options.auto_remedy_max_rounds);

  // Replay the committed sequence offline: each round plans with the same
  // params against the previous round's census. The daemon's final
  // census must match the replay digest-exactly, and every replayed round
  // must have had work to do (the daemon never commits an empty plan).
  RemedyParams params = options.remedy;
  for (int64_t round = 0; round < commits; ++round) {
    StatusOr<RemedyDeltaPlan> plan = PlanRemedyDeltas(schema, cut, params);
    ASSERT_TRUE(plan.ok()) << plan.status();
    ASSERT_FALSE(plan.value().deltas.empty())
        << "round " << round << " replayed empty; the daemon committed "
        << commits << " rounds";
    cut = Applied(cut, plan.value().deltas);
  }
  EXPECT_EQ(SnapshotLeafDigest(*daemon.value()), LeafCountsDigest(cut))
      << "auto-remedy diverged from its offline replay";

  // Quiesced means quiesced: no further commits sneak in.
  daemon.value()->WaitRemedyIdle();
  EXPECT_EQ(daemon.value()->remedy_commits(), commits);
  const std::string health = daemon.value()->HealthJson();
  EXPECT_NE(health.find("\"auto_remedy\":true"), std::string::npos);
  EXPECT_NE(health.find("\"remedy_backend\":\"streaming\""),
            std::string::npos);
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

TEST(ServeRemedyTest, RemedySurvivesRestartLikeAnyCommittedBatch) {
  const DataSchema schema = SmallSchema();
  const std::string dir = FreshDir("durable");
  uint64_t post_digest = 0;
  {
    auto daemon = ServeDaemon::Start(schema, RemedyOptions(dir));
    ASSERT_TRUE(daemon.ok());
    ASSERT_TRUE(daemon.value()->Submit(SkewedDeltas()).ok());
    ASSERT_TRUE(daemon.value()->Flush().ok());
    StatusOr<RemedyCommitResult> result =
        daemon.value()->SubmitRemedy(RemedyOptions("unused").remedy);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result.value().committed);
    post_digest = daemon.value()->Snapshot()->counts_digest;
    // Kill: the failing shutdown checkpoint leaves the WAL for replay.
    FaultInjector injector;
    injector.FailAlways("wal/fsync");
    EXPECT_FALSE(daemon.value()->Stop().ok());
  }
  auto daemon = ServeDaemon::Start(schema, RemedyOptions(dir));
  ASSERT_TRUE(daemon.ok()) << daemon.status();
  EXPECT_EQ(daemon.value()->Snapshot()->counts_digest, post_digest)
      << "a WAL-committed remedy failed to replay";
  EXPECT_TRUE(daemon.value()->Stop().ok());
}

// The chaos half of the headline claim: simulate a kill at EVERY byte
// offset of the remedy's WAL record. Recovery must land on the pre-remedy
// digest (record torn away) or the post-remedy digest (record complete) —
// never on anything in between.
TEST(ServeRemedyTest, KillMidRemedyCommitRecoversToPreOrPostNeverBetween) {
  const DataSchema schema = SmallSchema();
  const std::string dir = FreshDir("chaos");
  const std::string wal_path =
      dir + "/" + std::string(ServeDaemon::kWalFileName);
  const std::string checkpoint_path =
      dir + "/" + std::string(ServeDaemon::kCheckpointFileName);

  uint64_t pre_digest = 0, post_digest = 0;
  int64_t record_begin = 0, record_end = 0;
  std::vector<uint8_t> wal_bytes;
  {
    auto daemon = ServeDaemon::Start(schema, RemedyOptions(dir));
    ASSERT_TRUE(daemon.ok());
    ASSERT_TRUE(daemon.value()->Submit(SkewedDeltas()).ok());
    ASSERT_TRUE(daemon.value()->Flush().ok());
    pre_digest = daemon.value()->Snapshot()->counts_digest;
    record_begin = FileSize(wal_path);
    ASSERT_GT(record_begin, 0);

    StatusOr<RemedyCommitResult> result =
        daemon.value()->SubmitRemedy(RemedyOptions("unused").remedy);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result.value().committed);
    post_digest = daemon.value()->Snapshot()->counts_digest;
    record_end = FileSize(wal_path);
    ASSERT_GT(record_end, record_begin);
    wal_bytes = ReadBytes(wal_path);
    ASSERT_EQ(static_cast<int64_t>(wal_bytes.size()), record_end);
    // Kill the daemon (failed shutdown checkpoint leaves the WAL intact).
    FaultInjector injector;
    injector.FailAlways("wal/fsync");
    EXPECT_FALSE(daemon.value()->Stop().ok());
  }
  ASSERT_NE(pre_digest, post_digest) << "the remedy changed nothing";

#ifdef REMEDY_TSAN_BUILD
  const int64_t stride = 7;  // same sweep shape, ~10x cheaper under TSan
#else
  const int64_t stride = 1;
#endif
  std::vector<int64_t> cuts;
  for (int64_t cut = record_begin; cut < record_end; cut += stride) {
    cuts.push_back(cut);
  }
  cuts.push_back(record_end);
  for (int64_t cut : cuts) {
    std::remove(checkpoint_path.c_str());
    WriteBytes(wal_path, wal_bytes.data(), static_cast<size_t>(cut));
    auto daemon = ServeDaemon::Start(schema, RemedyOptions(dir));
    ASSERT_TRUE(daemon.ok()) << "cut at " << cut << ": " << daemon.status();
    const uint64_t digest = daemon.value()->Snapshot()->counts_digest;
    if (cut == record_end) {
      EXPECT_EQ(digest, post_digest) << "complete record lost at " << cut;
    } else {
      EXPECT_EQ(digest, pre_digest)
          << "torn remedy record partially applied at cut " << cut;
    }
    EXPECT_TRUE(daemon.value()->Stop().ok());
  }
}

}  // namespace
}  // namespace remedy
