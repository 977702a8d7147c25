// Corruption-resistance tests for the v2 checkpoint format: every class of
// file damage (truncation, wrong magic/version, flipped payload bit, size
// lies, architecture mismatch) must be rejected with the documented Status
// code, must never FW_CHECK-abort, and must leave the module untouched.
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "nn/checkpoint.h"
#include "nn/gnn.h"
#include "test_util.h"

namespace fairwos::nn {
namespace {

using ::fairwos::testing::TempPath;

GnnClassifier MakeModel(uint64_t seed, int64_t hidden = 4) {
  common::Rng rng(seed);
  graph::Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  GnnConfig config;
  config.in_features = 3;
  config.hidden = hidden;
  return GnnClassifier(config, g, &rng);
}

int64_t FileSize(const std::string& path) {
  return static_cast<int64_t>(std::filesystem::file_size(path));
}

class CheckpointRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // PID-qualified so concurrently running test processes (ctest -j) never
    // clobber each other's checkpoint file.
    path_ = TempPath("fw_ckpt_robust_test." +
                     std::to_string(::getpid()) + ".bin");
    std::filesystem::remove(path_);
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".tmp");
  }

  /// Saves `model`, applies `corrupt`, then asserts the load fails with
  /// `expected_code` and that `model`'s parameters are bit-identical to
  /// before the load attempt.
  void ExpectRejected(const std::function<void(const std::string&)>& corrupt,
                      common::StatusCode expected_code) {
    auto model = MakeModel(1);
    ASSERT_TRUE(SaveCheckpoint(path_, model).ok());
    corrupt(path_);
    auto snapshot = SnapshotParameters(model);
    const common::Status status = LoadCheckpoint(path_, model);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), expected_code) << status.ToString();
    for (size_t i = 0; i < snapshot.size(); ++i) {
      const auto& got = model.parameters()[i].data();
      EXPECT_EQ(std::vector<float>(got.begin(), got.end()), snapshot[i])
          << "parameter " << i << " was modified by a failed load";
    }
  }

  std::string path_;
};

TEST_F(CheckpointRobustnessTest, RoundTripStillWorks) {
  auto a = MakeModel(1);
  auto b = MakeModel(2);
  ASSERT_TRUE(SaveCheckpoint(path_, a).ok());
  ASSERT_TRUE(LoadCheckpoint(path_, b).ok());
  for (size_t i = 0; i < a.parameters().size(); ++i) {
    EXPECT_EQ(a.parameters()[i].data(), b.parameters()[i].data());
  }
  // Atomic write: no stale temp file is left behind.
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(CheckpointRobustnessTest, TruncatedFileIsIoError) {
  ExpectRejected(
      [](const std::string& p) {
        ASSERT_TRUE(
            testing::FaultInjector::Truncate(p, FileSize(p) / 2).ok());
      },
      common::StatusCode::kIoError);
}

TEST_F(CheckpointRobustnessTest, TruncatedInsideHeaderIsIoError) {
  ExpectRejected(
      [](const std::string& p) {
        ASSERT_TRUE(testing::FaultInjector::Truncate(p, 10).ok());
      },
      common::StatusCode::kIoError);
}

TEST_F(CheckpointRobustnessTest, WrongMagicIsInvalidArgument) {
  ExpectRejected(
      [](const std::string& p) {
        // The magic lives in the high half of the first u64 (little-endian:
        // bytes 4-7).
        ASSERT_TRUE(testing::FaultInjector::FlipByte(p, 5, 0xFF).ok());
      },
      common::StatusCode::kInvalidArgument);
}

TEST_F(CheckpointRobustnessTest, WrongVersionIsInvalidArgument) {
  ExpectRejected(
      [](const std::string& p) {
        // The version lives in the low half of the first u64 (bytes 0-3).
        ASSERT_TRUE(testing::FaultInjector::FlipByte(p, 0, 0x40).ok());
      },
      common::StatusCode::kInvalidArgument);
}

TEST_F(CheckpointRobustnessTest, FlippedPayloadByteIsIoError) {
  ExpectRejected(
      [](const std::string& p) {
        // Deep inside the payload: a float of some parameter tensor.
        ASSERT_TRUE(
            testing::FaultInjector::FlipByte(p, FileSize(p) - 3, 0x10).ok());
      },
      common::StatusCode::kIoError);
}

TEST_F(CheckpointRobustnessTest, FlippedSizeFieldIsIoErrorNotHugeAlloc) {
  ExpectRejected(
      [](const std::string& p) {
        // High byte of the payload-size field (bytes 8-15): the header now
        // promises an absurd payload. Load must reject it from the file
        // size alone, not attempt the allocation.
        ASSERT_TRUE(testing::FaultInjector::FlipByte(p, 14, 0x80).ok());
      },
      common::StatusCode::kIoError);
}

TEST_F(CheckpointRobustnessTest, ShapeMismatchIsFailedPrecondition) {
  auto small = MakeModel(1, /*hidden=*/4);
  auto big = MakeModel(2, /*hidden=*/8);
  ASSERT_TRUE(SaveCheckpoint(path_, small).ok());
  auto snapshot = SnapshotParameters(big);
  const common::Status status = LoadCheckpoint(path_, big);
  EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition)
      << status.ToString();
  for (size_t i = 0; i < snapshot.size(); ++i) {
    const auto& got = big.parameters()[i].data();
    EXPECT_EQ(std::vector<float>(got.begin(), got.end()), snapshot[i]);
  }
}

TEST_F(CheckpointRobustnessTest, GarbageFileIsRejectedWithoutAbort) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "definitely not a checkpoint, but long enough for a header";
  }
  auto model = MakeModel(3);
  const common::Status status = LoadCheckpoint(path_, model);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
}

TEST_F(CheckpointRobustnessTest, FaultInjectedBitFlipDuringSaveIsCaught) {
  auto model = MakeModel(1);
  ::fairwos::testing::FaultInjector injector(7);
  injector.Arm(::fairwos::testing::FaultSite::kCheckpointFlip, 0);
  {
    ::fairwos::testing::ScopedFaultInjector scoped(&injector);
    ASSERT_TRUE(SaveCheckpoint(path_, model).ok());
  }
  EXPECT_EQ(injector.fires(::fairwos::testing::FaultSite::kCheckpointFlip), 1);
  // The save wrote corrupt bytes; the CRC computed from the intended bytes
  // must expose that at load time.
  auto status = LoadCheckpoint(path_, model);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kIoError) << status.ToString();
}

TEST_F(CheckpointRobustnessTest, FaultInjectedTruncationDuringSaveIsCaught) {
  auto model = MakeModel(1);
  ::fairwos::testing::FaultInjector injector(7);
  injector.Arm(::fairwos::testing::FaultSite::kCheckpointTruncate, 0);
  {
    ::fairwos::testing::ScopedFaultInjector scoped(&injector);
    ASSERT_TRUE(SaveCheckpoint(path_, model).ok());
  }
  auto status = LoadCheckpoint(path_, model);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kIoError) << status.ToString();
}

TEST_F(CheckpointRobustnessTest, EveryByteFlipIsRejectedOrRoundTrips) {
  // Exhaustive single-bit-flip sweep over a small checkpoint: no flip may
  // crash the loader or silently load wrong weights without at least one of
  // (a) a non-OK status, or (b) a byte-identical round trip (flips in
  // ignored padding don't exist in this format, so (b) never happens — but
  // the property we enforce is "no silent corruption", not "all rejected").
  auto model = MakeModel(1);
  ASSERT_TRUE(SaveCheckpoint(path_, model).ok());
  const int64_t size = FileSize(path_);
  auto reference = SnapshotParameters(model);
  for (int64_t offset = 0; offset < size; ++offset) {
    ASSERT_TRUE(testing::FaultInjector::FlipByte(path_, offset, 0x04).ok());
    auto victim = MakeModel(9);
    const common::Status status = LoadCheckpoint(path_, victim);
    if (status.ok()) {
      for (size_t i = 0; i < reference.size(); ++i) {
        const auto& got = victim.parameters()[i].data();
        EXPECT_EQ(std::vector<float>(got.begin(), got.end()), reference[i])
            << "flip at " << offset << " loaded silently-corrupt weights";
      }
    }
    // Restore the original byte for the next iteration.
    ASSERT_TRUE(testing::FaultInjector::FlipByte(path_, offset, 0x04).ok());
  }
}

TEST_F(CheckpointRobustnessTest, UnwritableDirectoryIsIoError) {
  auto model = MakeModel(1);
  auto status = SaveCheckpoint("/nonexistent-dir/ckpt.bin", model);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kIoError);
}

}  // namespace
}  // namespace fairwos::nn
