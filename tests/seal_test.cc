// Unit tests: SimDevice seal bits ("unchanged since stamped") and the
// shared read-and-verify path that skips the checksum on sealed blocks
// (storage/verified_read.h), plus the sparse batch read the FaCE group
// dequeue uses. The rules under test:
//   - WriteSealed / WriteBatchSealed seal what they persist whole, and a
//     checksum verification that passes seals the block;
//   - every other write clears the seal over its whole request range, cut
//     and dropped writes included, and so do Erase, TrimBefore,
//     LoadContents and CloneContentsFrom;
//   - a sealed read returns the same status and bytes as a verified one,
//     and every policy still reports a frame that rotted after it was read;
//   - a sparse batch read charges exactly what the full read charges.
// ctest runs this binary twice: with FACE_PARANOID_CHECKSUMS=1 (as every
// test) and with the mode off.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/exadata_cache.h"
#include "core/face_cache.h"
#include "core/lc_cache.h"
#include "core/tac_cache.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "sim/scheduler.h"
#include "sim/sim_device.h"
#include "storage/db_storage.h"
#include "storage/page.h"
#include "storage/verified_read.h"
#include "tests/test_util.h"

namespace face {
namespace {

constexpr uint64_t kChunk = 1024;  // SimDevice's allocation chunk, in pages

/// A stamped page image of `page_id` with a recognizable payload.
std::string StampedPage(PageId page_id, char fill) {
  std::string page(kPageSize, '\0');
  PageView v(page.data());
  v.Format(page_id);
  memset(v.payload(), fill, 200);
  v.StampChecksum();
  return page;
}

/// `n` stamped pages for blocks [first, first + n), back to back.
std::string StampedPages(PageId first, uint32_t n, char fill) {
  std::string pages;
  for (uint32_t k = 0; k < n; ++k) pages += StampedPage(first + k, fill);
  return pages;
}

TEST(SealTest, SealedWritesSealAndPlainWritesClear) {
  SimDevice dev("flash", DeviceProfile::MlcSamsung470(), 4 * kChunk);
  EXPECT_FALSE(dev.sealed(3));  // never written
  const std::string page = StampedPage(3, 'a');
  FACE_ASSERT_OK(dev.WriteSealed(3, page.data()));
  EXPECT_TRUE(dev.sealed(3));
  EXPECT_FALSE(dev.sealed(4));
  FACE_ASSERT_OK(dev.Write(3, page.data()));  // same bytes, still a write
  EXPECT_FALSE(dev.sealed(3));

  // Batches seal and clear their exact range, across a chunk boundary too.
  const uint64_t first = kChunk - 2;
  const std::string batch = StampedPages(first, 4, 'b');
  FACE_ASSERT_OK(dev.WriteBatchSealed(first, 4, batch.data()));
  for (uint64_t b = first; b < first + 4; ++b) EXPECT_TRUE(dev.sealed(b)) << b;
  EXPECT_FALSE(dev.sealed(first + 4));
  FACE_ASSERT_OK(dev.WriteBatch(first + 1, 2, batch.data()));
  EXPECT_TRUE(dev.sealed(first));
  EXPECT_FALSE(dev.sealed(first + 1));
  EXPECT_FALSE(dev.sealed(first + 2));
  EXPECT_TRUE(dev.sealed(first + 3));

  // Seal() is what a passing verification calls; a virgin block cannot be
  // sealed (it has no chunk and no checksum).
  dev.Seal(first + 1);
  EXPECT_TRUE(dev.sealed(first + 1));
  dev.Seal(3 * kChunk + 5);
  EXPECT_FALSE(dev.sealed(3 * kChunk + 5));
}

TEST(SealTest, ContentOperationsDropSeals) {
  const std::string page = StampedPage(0, 'c');
  SimDevice dev("flash", DeviceProfile::MlcSamsung470(), 4 * kChunk);
  FACE_ASSERT_OK(dev.WriteSealed(5, page.data()));
  dev.Erase();
  EXPECT_FALSE(dev.sealed(5));

  // TrimBefore frees whole chunks only; a kept chunk keeps its seals.
  FACE_ASSERT_OK(dev.WriteSealed(5, page.data()));
  FACE_ASSERT_OK(dev.WriteSealed(kChunk + 5, page.data()));
  FACE_ASSERT_OK(dev.WriteSealed(2 * kChunk + 5, page.data()));
  dev.TrimBefore(2 * kChunk + 10, /*keep_below=*/1);
  EXPECT_TRUE(dev.sealed(5));            // chunk 0 is protected
  EXPECT_FALSE(dev.sealed(kChunk + 5));  // chunk 1 freed
  EXPECT_TRUE(dev.sealed(2 * kChunk + 5));  // chunk 2 only partly covered

  // A clone copies bytes, not seals — and drops the destination's own.
  SimDevice clone("flash2", DeviceProfile::MlcSamsung470(), 4 * kChunk);
  FACE_ASSERT_OK(clone.WriteSealed(7, page.data()));
  FACE_ASSERT_OK(clone.CloneContentsFrom(dev));
  EXPECT_FALSE(clone.sealed(5));
  EXPECT_FALSE(clone.sealed(7));

  // Loading an image replaces every chunk: nothing loaded is sealed.
  // Per process: ctest runs this binary twice, possibly concurrently.
  const std::string path = ::testing::TempDir() + "seal_test_image." +
                           std::to_string(getpid()) + ".img";
  FACE_ASSERT_OK(dev.SaveContents(path));
  FACE_ASSERT_OK(dev.LoadContents(path));
  EXPECT_FALSE(dev.sealed(5));
  EXPECT_FALSE(dev.sealed(2 * kChunk + 5));
  remove(path.c_str());
}

TEST(SealTest, CutAndDroppedWritesClearTheWholeRequest) {
  SimDevice dev("flash", DeviceProfile::MlcSamsung470(), 2 * kChunk);
  const std::string old_pages = StampedPages(0, 8, 'o');
  FACE_ASSERT_OK(dev.WriteBatchSealed(0, 8, old_pages.data()));
  FACE_ASSERT_OK(dev.WriteSealed(20, old_pages.data()));

  // The crash cuts this sealed batch at its third page: pages before the
  // cut persist whole, but no page of the request may stay sealed.
  FaultInjector fault;
  dev.set_fault_injector(&fault);
  fault.ArmAfterWrites(3, /*seed=*/11);
  const std::string new_pages = StampedPages(0, 8, 'n');
  EXPECT_FALSE(dev.WriteBatchSealed(0, 8, new_pages.data()).ok());
  ASSERT_TRUE(fault.tripped());
  for (uint64_t b = 0; b < 8; ++b) EXPECT_FALSE(dev.sealed(b)) << b;

  // The device is dead: a dropped write leaves the bytes but not the seal.
  EXPECT_FALSE(dev.WriteSealed(20, new_pages.data()).ok());
  EXPECT_FALSE(dev.sealed(20));
  fault.Disarm();

  // A write that exhausts its retries on transient faults moves nothing
  // and still clears the seal.
  FACE_ASSERT_OK(dev.WriteSealed(30, old_pages.data()));
  TransientFaultProfile always_fail;
  always_fail.write_fail_permille = 1000;
  fault.ArmTransient("flash", always_fail);
  EXPECT_FALSE(dev.Write(30, new_pages.data()).ok());
  EXPECT_FALSE(dev.sealed(30));
  fault.DisarmDevice("flash");
  dev.set_fault_injector(nullptr);
  dev.ResetHealth();

  // Every aftermath-surgery primitive goes through a plain write.
  for (uint64_t b = 40; b < 44; ++b) {
    FACE_ASSERT_OK(dev.WriteSealed(b, old_pages.data()));
  }
  FACE_ASSERT_OK(FaultInjector::TearBlockBytes(&dev, 40, 100, 'j'));
  FACE_ASSERT_OK(FaultInjector::TearBlockSectors(&dev, 41, 2, 'j'));
  FACE_ASSERT_OK(FaultInjector::GarbleBlocks(&dev, 42, 1, 'j'));
  FACE_ASSERT_OK(FaultInjector::FlipBitsInBlock(&dev, 43, 3, /*seed=*/5));
  for (uint64_t b = 40; b < 44; ++b) EXPECT_FALSE(dev.sealed(b)) << b;
}

/// Restores the process-wide paranoid switch on scope exit.
class ParanoidScope {
 public:
  explicit ParanoidScope(bool on) : saved_(ParanoidChecksums()) {
    SetParanoidChecksums(on);
  }
  ~ParanoidScope() { SetParanoidChecksums(saved_); }

 private:
  bool saved_;
};

TEST(SealTest, SealedReadSkipsOnlyTheChecksum) {
  obs::SetEnabled(true);
  auto& reg = obs::MetricsRegistry::Instance();
  obs::Counter* verified = reg.GetCounter("storage.checksum.verified");
  obs::Counter* skipped = reg.GetCounter("storage.checksum.skipped");
  for (const bool paranoid : {false, true}) {
    SCOPED_TRACE(paranoid ? "paranoid" : "fast");
    ParanoidScope mode(paranoid);
    SimDevice dev("flash", DeviceProfile::MlcSamsung470(), kChunk);
    const std::string page = StampedPage(9, 'v');
    FACE_ASSERT_OK(dev.Write(9, page.data()));
    ASSERT_FALSE(dev.sealed(9));

    // First read verifies and seals; the second is served sealed. Both
    // return the same verdict and bytes.
    const uint64_t v0 = verified->value, s0 = skipped->value;
    std::string first(kPageSize, '\0'), second(kPageSize, '\0');
    PageCheck check1, check2;
    FACE_ASSERT_OK(ReadVerifiedPage(&dev, 9, 9, first.data(), &check1));
    EXPECT_EQ(check1, PageCheck::kOk);
    EXPECT_TRUE(dev.sealed(9));
    FACE_ASSERT_OK(ReadVerifiedPage(&dev, 9, 9, second.data(), &check2));
    EXPECT_EQ(check2, PageCheck::kOk);
    EXPECT_EQ(first, page);
    EXPECT_EQ(second, page);
    if (obs::Enabled()) {  // counters are stubs in a FACE_OBS=OFF build
      EXPECT_EQ(verified->value - v0, 1u);
      EXPECT_EQ(skipped->value - s0, 1u);
    }

    // The page-id check still runs on a sealed block.
    PageCheck wrong;
    FACE_ASSERT_OK(ReadVerifiedPage(&dev, 9, 10, second.data(), &wrong));
    EXPECT_EQ(wrong, PageCheck::kWrongPageId);

    // A block that fails verification is reported and stays unsealed.
    std::string rotten = page;
    rotten[kPageSize - 1] ^= 1;
    FACE_ASSERT_OK(dev.Write(11, rotten.data()));
    PageCheck bad;
    FACE_ASSERT_OK(ReadVerifiedPage(&dev, 11, 11, second.data(), &bad));
    EXPECT_EQ(bad, PageCheck::kBadChecksum);
    EXPECT_FALSE(dev.sealed(11));
    EXPECT_EQ(second, rotten);
  }
  obs::SetEnabled(false);
}

TEST(SealTest, DbStorageSealsItsWritesAndStillCatchesRot) {
  SimDevice dev("db", DeviceProfile::Seagate15k(), 256);
  DbStorage storage(&dev);
  std::string page(kPageSize, '\0');
  PageView(page.data()).Format(4);
  memset(page.data() + kPageHeaderSize, 'q', 100);
  FACE_ASSERT_OK(storage.WritePage(4, page.data()));
  EXPECT_TRUE(dev.sealed(4));

  std::string out(kPageSize, '\0');
  FACE_ASSERT_OK(storage.ReadPage(4, out.data()));
  EXPECT_EQ(out, page);
  EXPECT_TRUE(storage.ReadPage(5, out.data()).IsNotFound());

  FACE_ASSERT_OK(FaultInjector::FlipBitsInBlock(&dev, 4, 2, /*seed=*/3));
  EXPECT_FALSE(dev.sealed(4));
  EXPECT_TRUE(storage.ReadPage(4, out.data()).IsCorruption());
}

TEST(SealTest, EveryPolicyReportsAFrameThatRottedAfterARead) {
  // A frame is sealed once written (or read and verified); bit rot planted
  // afterwards must unseal it, so the next read verifies and reports it.
  constexpr uint64_t kFrames = 16;
  constexpr PageId kPage = 7;
  for (const bool paranoid : {false, true}) {
    ParanoidScope mode(paranoid);
    for (int policy = 0; policy < 4; ++policy) {
      SimDevice db("db", DeviceProfile::Seagate15k(), 256);
      DbStorage storage(&db);
      SimDevice flash("flash", DeviceProfile::MlcSamsung470(),
                      FlashLayout::Compute(kFrames, 64).total_blocks);
      std::unique_ptr<CacheExtension> cache;
      std::string page = StampedPage(kPage, 'r');
      if (policy == 0) {
        FaceOptions o = FaceOptions::Base(kFrames);
        o.seg_entries = 64;
        auto face = std::make_unique<FaceCache>(o, &flash, &storage);
        FACE_ASSERT_OK(face->Format());
        cache = std::move(face);
      } else if (policy == 1) {
        LcOptions o;
        o.n_frames = kFrames;
        cache = std::make_unique<LcCache>(o, &flash, &storage);
      } else if (policy == 2) {
        TacOptions o;
        o.n_frames = kFrames;
        auto tac = std::make_unique<TacCache>(o, &flash, &storage);
        FACE_ASSERT_OK(tac->Format());
        cache = std::move(tac);
      } else {
        cache = std::make_unique<ExadataCache>(kFrames, &flash, &storage);
      }
      SCOPED_TRACE(std::string(cache->name()) +
                   (paranoid ? " paranoid" : " fast"));
      if (policy < 2) {
        FACE_ASSERT_OK(cache->OnDramEvict(kPage, page.data(), true, true, 10));
      } else {
        FACE_ASSERT_OK(cache->OnFetchFromDisk(kPage, page.data()));
      }
      ASSERT_TRUE(cache->Contains(kPage));

      // Find the frame by its contents: each policy lays flash out its way.
      uint64_t frame = UINT64_MAX;
      std::string probe(kPageSize, '\0');
      for (uint64_t b = 0; b < flash.capacity_pages(); ++b) {
        FACE_ASSERT_OK(flash.Read(b, probe.data()));
        const ConstPageView v(probe.data());
        if (v.VerifyChecksum() && v.page_id() == kPage) frame = b;
      }
      ASSERT_NE(frame, UINT64_MAX);

      std::string out(kPageSize, '\0');
      FACE_ASSERT_OK(cache->ReadPage(kPage, out.data()).status());
      EXPECT_TRUE(flash.sealed(frame));
      FACE_ASSERT_OK(FaultInjector::FlipBitsInBlock(&flash, frame, 3, 17));
      EXPECT_TRUE(cache->ReadPage(kPage, out.data()).status().IsCorruption());
    }
  }
}

/// Charges of one device, compared field by field.
void ExpectSameCharges(const DeviceStats& a, const DeviceStats& b) {
  EXPECT_EQ(a.read_reqs, b.read_reqs);
  EXPECT_EQ(a.write_reqs, b.write_reqs);
  EXPECT_EQ(a.seq_read_reqs, b.seq_read_reqs);
  EXPECT_EQ(a.seq_write_reqs, b.seq_write_reqs);
  EXPECT_EQ(a.pages_read, b.pages_read);
  EXPECT_EQ(a.pages_written, b.pages_written);
  EXPECT_EQ(a.busy_ns, b.busy_ns);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.backoff_ns, b.backoff_ns);
}

TEST(SealTest, SparseReadChargesExactlyLikeFullRead) {
  // A striped array (per-spindle sequentiality, stripe splits) and a run of
  // reads that crosses a chunk boundary and an unallocated chunk.
  for (const DeviceProfile& profile :
       {DeviceProfile::MlcSamsung470(), DeviceProfile::Raid0Seagate(4)}) {
    SCOPED_TRACE(profile.name);
    IoScheduler full_sched(2), sparse_sched(2);
    SimDevice full("d", profile, 4 * kChunk, &full_sched);
    SimDevice sparse("d", profile, 4 * kChunk, &sparse_sched);
    const std::string pages = StampedPages(0, 96, 'r');
    for (SimDevice* dev : {&full, &sparse}) {
      FACE_ASSERT_OK(dev->WriteBatch(kChunk - 40, 96, pages.data()));
    }
    struct Req {
      uint64_t block;
      uint32_t n;
    };
    const Req reqs[] = {{kChunk - 40, 64}, {kChunk + 24, 32}, {7, 5},
                        {2 * kChunk + 3, 10}};
    uint32_t salt = 0;
    for (const Req& r : reqs) {
      std::vector<uint8_t> want(r.n);
      for (uint32_t k = 0; k < r.n; ++k) want[k] = (k + salt) % 3 == 0;
      ++salt;
      std::string a(static_cast<size_t>(r.n) * kPageSize, 'Z');
      std::string b(static_cast<size_t>(r.n) * kPageSize, 'Z');
      full_sched.BeginTxn();
      sparse_sched.BeginTxn();
      FACE_ASSERT_OK(full.ReadBatch(r.block, r.n, a.data()));
      FACE_ASSERT_OK(sparse.ReadBatchSparse(r.block, r.n, b.data(),
                                            want.data()));
      EXPECT_EQ(full_sched.EndTxn(), sparse_sched.EndTxn());
      for (uint32_t k = 0; k < r.n; ++k) {
        const std::string got = b.substr(k * kPageSize, kPageSize);
        if (want[k]) {
          EXPECT_EQ(got, a.substr(k * kPageSize, kPageSize)) << k;
        } else {
          EXPECT_EQ(got, std::string(kPageSize, 'Z')) << k;  // untouched
        }
      }
    }
    ExpectSameCharges(full.stats(), sparse.stats());
    EXPECT_EQ(full_sched.makespan(), sparse_sched.makespan());
  }
}

}  // namespace
}  // namespace face
