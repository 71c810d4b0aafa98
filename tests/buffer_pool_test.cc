// Unit tests: buffer pool LRU behavior, pin discipline, dirty/fdirty flag
// protocol, WAL-before-data, eviction through the cache extension, victim
// pulling (including victims lent to FaCE+GSC straight from their frames).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "core/face_cache.h"
#include "tests/test_util.h"

namespace face {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_dev_ = std::make_unique<SimDevice>("db", DeviceProfile::Seagate15k(),
                                          4096);
    log_dev_ = std::make_unique<SimDevice>("log", DeviceProfile::Seagate15k(),
                                           1 << 16);
    storage_ = std::make_unique<DbStorage>(db_dev_.get());
    log_ = std::make_unique<LogManager>(log_dev_.get());
    FACE_ASSERT_OK(log_->Format());
    cache_ = std::make_unique<NullCache>(storage_.get());
    pool_ = std::make_unique<BufferPool>(8, storage_.get(), log_.get(),
                                         cache_.get());
  }

  std::unique_ptr<SimDevice> db_dev_, log_dev_;
  std::unique_ptr<DbStorage> storage_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<CacheExtension> cache_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(BufferPoolTest, NewPageIsFormattedAndPinned) {
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, pool_->NewPage());
  EXPECT_EQ(page.page_id(), 0u);
  EXPECT_EQ(page.view().page_id(), 0u);
  EXPECT_EQ(pool_->pinned_frames(), 1u);
  page.Release();
  EXPECT_EQ(pool_->pinned_frames(), 0u);
}

TEST_F(BufferPoolTest, FetchHitsAfterFirstFetch) {
  {
    FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, pool_->NewPage());
    memcpy(page.data() + kPageHeaderSize, "data", 4);
    page.MarkDirty(kInvalidLsn);
  }
  FACE_ASSERT_OK(pool_->FlushAllToDisk());
  const uint64_t hits = pool_->stats().hits;
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle again, pool_->FetchPage(0));
  EXPECT_EQ(pool_->stats().hits, hits + 1);
  EXPECT_EQ(memcmp(again.data() + kPageHeaderSize, "data", 4), 0);
}

TEST_F(BufferPoolTest, VirginFetchIsNotFound) {
  EXPECT_TRUE(pool_->FetchPage(99).status().IsNotFound());
}

TEST_F(BufferPoolTest, EvictionWritesDirtyPagesToDisk) {
  // Dirty one page, then flood the pool to force its eviction.
  {
    FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, pool_->NewPage());
    memcpy(page.data() + kPageHeaderSize, "persist me", 10);
    page.MarkDirty(kInvalidLsn);
  }
  for (int i = 0; i < 10; ++i) {
    FACE_ASSERT_OK(pool_->NewPage().status());
  }
  EXPECT_GT(pool_->stats().dirty_evictions, 0u);
  // The page must come back from disk with its content.
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle back, pool_->FetchPage(0));
  EXPECT_EQ(memcmp(back.data() + kPageHeaderSize, "persist me", 10), 0);
}

TEST_F(BufferPoolTest, PinnedPagesSurviveEvictionPressure) {
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle pinned, pool_->NewPage());
  memcpy(pinned.data() + kPageHeaderSize, "pinned", 6);
  for (int i = 0; i < 20; ++i) {
    FACE_ASSERT_OK(pool_->NewPage().status());
  }
  // Still valid and untouched.
  EXPECT_EQ(memcmp(pinned.data() + kPageHeaderSize, "pinned", 6), 0);
}

TEST_F(BufferPoolTest, AllPinnedReportsBusy) {
  std::vector<PageHandle> pins;
  for (int i = 0; i < 8; ++i) {
    FACE_ASSERT_OK_AND_ASSIGN(PageHandle p, pool_->NewPage());
    pins.push_back(std::move(p));
  }
  EXPECT_TRUE(pool_->NewPage().status().IsBusy());
}

TEST_F(BufferPoolTest, WalForcedBeforeDirtyPageLeaves) {
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, pool_->NewPage());
  // Simulate a logged update at LSN 9000 without flushing the WAL.
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.txn_id = 1;
  rec.page_id = page.page_id();
  rec.before = "b";
  rec.after = "a";
  const Lsn lsn = log_->Append(&rec);
  page.MarkDirty(lsn);
  EXPECT_EQ(page.view().lsn(), lsn);
  page.Release();
  EXPECT_LE(log_->durable_lsn(), lsn);  // record not yet durable
  // Eviction must force the WAL through the pageLSN first.
  for (int i = 0; i < 10; ++i) FACE_ASSERT_OK(pool_->NewPage().status());
  EXPECT_GT(log_->durable_lsn(), lsn);
}

TEST_F(BufferPoolTest, MarkDirtySetsFlagsAndRecLsn) {
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, pool_->NewPage());
  page.MarkDirty(500);
  // recLSN = first dirtying LSN; later updates do not move it.
  page.MarkDirty(900);
  auto dpt = pool_->CollectDirtyPages();
  ASSERT_EQ(dpt.size(), 1u);
  EXPECT_EQ(dpt[0].page_id, page.page_id());
  EXPECT_EQ(dpt[0].rec_lsn, 500u);
  EXPECT_EQ(page.view().lsn(), 900u);
}

TEST_F(BufferPoolTest, PullVictimSurrendersLruTail) {
  std::vector<PageId> created;
  for (int i = 0; i < 4; ++i) {
    FACE_ASSERT_OK_AND_ASSIGN(PageHandle p, pool_->NewPage());
    p.MarkDirty(kInvalidLsn);
    created.push_back(p.page_id());
  }
  char* lent = nullptr;
  bool dirty = false, fdirty = false;
  Lsn rec_lsn = kInvalidLsn;
  const PageId victim = pool_->PullVictim(&lent, &dirty, &fdirty, &rec_lsn);
  EXPECT_EQ(victim, created[0]);  // LRU order
  EXPECT_TRUE(dirty);
  ASSERT_NE(lent, nullptr);
  EXPECT_EQ(PageView(lent).page_id(), victim);
  EXPECT_EQ(pool_->pages_in_pool(), 3u);
}

/// Stamp page `id`'s payload with a pattern unique to (id, version).
void WriteVersion(PageHandle* h, uint32_t version) {
  char* payload = h->view().payload();
  memset(payload, static_cast<char>('a' + (h->page_id() + version) % 26),
         kPagePayloadSize);
  EncodeFixed64(payload, h->page_id());
  EncodeFixed32(payload + 8, version);
  h->MarkDirty(kInvalidLsn);
}

TEST(BufferPoolLendTest, LentVictimsReachFlashAndDiskIntact) {
  // FaCE+GSC pulls extra victims off the pool's LRU tail to fill a write
  // batch, and the pool lends it each victim's freed frame instead of a
  // copy. Every pulled page must land on flash (or, with cache_dirty off,
  // on disk) with exactly the bytes its frame held: the lent frame must
  // not be handed out again before the cache has consumed it.
  for (const bool cache_dirty : {true, false}) {
    SCOPED_TRACE(cache_dirty ? "cache_dirty" : "dirty pages bypass flash");
    SimDevice db_dev("db", DeviceProfile::Seagate15k(), 4096);
    SimDevice log_dev("log", DeviceProfile::Seagate15k(), 1 << 16);
    FaceOptions o = FaceOptions::GroupSecondChance(16);
    o.group_size = 8;
    o.seg_entries = 64;
    o.cache_dirty = cache_dirty;
    SimDevice flash_dev(
        "flash", DeviceProfile::MlcSamsung470(),
        FlashLayout::Compute(o.n_frames, o.seg_entries).total_blocks);
    DbStorage storage(&db_dev);
    LogManager log(&log_dev);
    FACE_ASSERT_OK(log.Format());
    FaceCache cache(o, &flash_dev, &storage);
    FACE_ASSERT_OK(cache.Format());
    BufferPool pool(8, &storage, &log, &cache);

    constexpr uint32_t kPages = 64;
    std::vector<uint32_t> version(kPages, 0);
    for (uint32_t i = 0; i < kPages; ++i) {
      FACE_ASSERT_OK_AND_ASSIGN(PageHandle h, pool.NewPage());
      ASSERT_EQ(h.page_id(), i);
      WriteVersion(&h, 0);
    }
    // Re-read the pages round-robin, dirtying every third one: clean
    // evictions keep the cache full, so each replacement pulls victims,
    // dirty ones among them.
    for (uint32_t round = 1; round <= 6; ++round) {
      for (uint32_t i = 0; i < kPages; ++i) {
        FACE_ASSERT_OK_AND_ASSIGN(PageHandle h, pool.FetchPage(i));
        if ((i + round) % 3 == 0) WriteVersion(&h, version[i] = round);
      }
    }
    EXPECT_GT(pool.stats().pulls, 0u);
    EXPECT_EQ(cache.stats().pulled_from_dram, pool.stats().pulls);

    FACE_ASSERT_OK(pool.EvictAll());
    FACE_ASSERT_OK(cache.AuditFrames().status());
    for (uint32_t i = 0; i < kPages; ++i) {
      FACE_ASSERT_OK_AND_ASSIGN(PageHandle h, pool.FetchPage(i));
      const char* payload = h.view().payload();
      EXPECT_EQ(DecodeFixed64(payload), i);
      EXPECT_EQ(DecodeFixed32(payload + 8), version[i]) << "page " << i;
      const std::string fill(kPagePayloadSize - 12,
                             static_cast<char>('a' + (i + version[i]) % 26));
      EXPECT_EQ(std::string(payload + 12, fill.size()), fill) << "page " << i;
    }
  }
}

TEST_F(BufferPoolTest, EvictAllEmptiesUnpinnedFrames) {
  for (int i = 0; i < 5; ++i) FACE_ASSERT_OK(pool_->NewPage().status());
  FACE_ASSERT_OK(pool_->EvictAll());
  EXPECT_EQ(pool_->pages_in_pool(), 0u);
}

TEST_F(BufferPoolTest, MoveSemanticsOfHandles) {
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle a, pool_->NewPage());
  EXPECT_EQ(pool_->pinned_frames(), 1u);
  PageHandle b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing it
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(pool_->pinned_frames(), 1u);
  b.Release();
  EXPECT_EQ(pool_->pinned_frames(), 0u);
}

}  // namespace
}  // namespace face
