#include "core/lc_cache.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>

#include "obs/trace.h"
#include "storage/page.h"
#include "storage/verified_read.h"

namespace face {

LcCache::LcCache(const LcOptions& options, SimDevice* flash,
                 DbStorage* storage)
    : options_(options),
      flash_(flash),
      storage_(storage),
      delta_(DeltaRingOptions{
                 options.n_frames,
                 static_cast<uint32_t>(
                     FlashLayout::DeltaBlocksFor(options.n_frames))},
             flash) {
  assert(options_.n_frames >= 2);
  assert(options_.clean_target <= options_.clean_threshold);
  assert(flash_->capacity_pages() >= DeviceBlocksFor(options_.n_frames));
  index_.Reserve(options_.n_frames);  // steady state never rehashes
  free_frames_.reserve(options_.n_frames);
  for (uint64_t i = 0; i < options_.n_frames; ++i) {
    free_frames_.push_back(options_.n_frames - 1 - i);
  }
  scratch_.resize(kPageSize);
  consolidate_buf_.resize(kPageSize);
  delta_.SetConsolidateFn([this](const std::vector<PageId>& pids) {
    return ConsolidateDeltaPages(pids);
  });
}

void LcCache::Touch(PageId page_id, Entry& e) {
  // The old key goes stale in place; PeekMin/MaybeCompact discard it later.
  e.penult_ref = e.last_ref;
  e.last_ref = ++clock_;
  victim_order_.Push(KeyOf(page_id, e));
  victim_order_.MaybeCompact(
      index_.size(), [this](const VictimKey& k) { return IsCurrentKey(k); });
}

Status LcCache::WriteFrame(uint64_t frame, const char* page, PageId page_id) {
  memcpy(scratch_.data(), page, kPageSize);
  PageView view(scratch_.data());
  view.set_page_id(page_id);
  view.StampChecksum();
  ++stats_.flash_writes;
  return flash_->WriteSealed(frame, scratch_.data());
}

StatusOr<FlashReadResult> LcCache::ReadPage(PageId page_id, char* out) {
  Entry* found = index_.Find(page_id);
  if (found == nullptr) return Status::NotFound("page not in LC cache");
  Entry& e = *found;
  PageCheck check;
  FACE_RETURN_IF_ERROR(ReadVerifiedPage(flash_, e.frame, page_id, out, &check));
  ++stats_.flash_reads;
  if (check != PageCheck::kOk) {
    return Status::Corruption("LC cache frame failed validation");
  }
  // The frame is the chain base; patch delta refreshes on top and hand the
  // caller the tip version so it can delta against this copy later.
  delta_.ApplyChain(page_id, out);
  Touch(page_id, e);
  FlashReadResult result{e.dirty, e.rec_lsn};
  DeltaRing::ChainView cv;
  if (delta_.GetChain(page_id, &cv)) result.flash_version = cv.tip_version;
  return result;
}

Status LcCache::CleanEntry(PageId page_id, Entry& e) {
  assert(e.dirty);
  FACE_RETURN_IF_ERROR(flash_->Read(e.frame, scratch_.data()));
  ++stats_.flash_reads;
  // Stage out the chain *tip*, not the stale base.
  delta_.ApplyChain(page_id, scratch_.data());
  FACE_RETURN_IF_ERROR(storage_->WritePage(page_id, scratch_.data()));
  ++stats_.disk_writes;
  e.dirty = false;
  e.rec_lsn = kInvalidLsn;
  assert(dirty_count_ > 0);
  --dirty_count_;
  return Status::OK();
}

Status LcCache::EvictVictim() {
  VictimKey key;
  const bool found = victim_order_.PeekMin(
      [this](const VictimKey& k) { return IsCurrentKey(k); }, &key);
  if (!found) return Status::Internal("LC victim order empty");
  const PageId victim = std::get<2>(key);
  Entry* e = index_.Find(victim);
  if (e->dirty) {
    // CleanEntry flips dirty/recLSN only — the reference-history key stays
    // current, so the heap top is still this victim afterwards.
    FACE_RETURN_IF_ERROR(CleanEntry(victim, *e));
  }
  victim_order_.PopMin();
  free_frames_.push_back(e->frame);
  index_.Erase(victim);
  delta_.Drop(victim);
  ++stats_.invalidations;
  return Status::OK();
}

Status LcCache::ConsolidateDeltaPages(const std::vector<PageId>& pids) {
  for (PageId pid : pids) {
    Entry* e = index_.Find(pid);
    if (e == nullptr) continue;
    DeltaRing::ChainView cv;
    if (!delta_.GetChain(pid, &cv) || cv.len == 0 || cv.base_tag != e->frame) {
      continue;
    }
    // Rebuild the tip image and rewrite it into the page's frame in place;
    // the full write re-bases the chain, freeing the doomed records.
    FACE_RETURN_IF_ERROR(flash_->Read(e->frame, consolidate_buf_.data()));
    ++stats_.flash_reads;
    delta_.ApplyChain(pid, consolidate_buf_.data());
    FACE_RETURN_IF_ERROR(WriteFrame(e->frame, consolidate_buf_.data(), pid));
    delta_.BeginFull(pid, e->frame);
  }
  return Status::OK();
}

void LcCache::SyncDeltaStats() {
  const DeltaRingStats& d = delta_.stats();
  stats_.delta_records = d.records;
  stats_.delta_record_bytes = d.record_bytes;
  stats_.delta_block_writes = d.block_writes;
  stats_.delta_consolidations = d.consolidations;
}

Status LcCache::OnDramEvict(PageId page_id, char* page, bool dirty,
                            bool fdirty, Lsn rec_lsn, DeltaWriteHint* hint) {
  if (dirty) ++stats_.dirty_evictions;

  if (Entry* found = index_.Find(page_id)) {
    Entry& e = *found;
    // Single-copy discipline: overwrite the existing frame in place — but
    // only when the DRAM copy is actually newer (fdirty); otherwise the
    // flash copy is identical and no write is needed.
    if (fdirty) {
      // Page-differential fast path: a small refresh whose chain tip
      // matches the frame's version becomes a delta record instead of an
      // in-place (random) full-frame rewrite.
      bool refreshed = false;
      if (hint != nullptr && hint->tracker != nullptr &&
          !hint->tracker->whole_page() &&
          hint->tracker->region_count() > 0) {
        const uint32_t size =
            PageDeltaRecord::EncodedSizeFor(*hint->tracker);
        if (delta_.CanAppend(page_id, hint->flash_version, size)) {
          auto version =
              delta_.Append(page_id, hint->flash_version, *hint->tracker,
                            ConstPageView(page).lsn(), dirty, page);
          if (!version.ok()) return version.status();
          if (*version != kNoFlashVersion) {
            hint->new_version = *version;
            refreshed = true;
          }
        }
      }
      if (!refreshed) {
        FACE_RETURN_IF_ERROR(WriteFrame(e.frame, page, page_id));
        delta_.BeginFull(page_id, e.frame);  // full image re-bases the chain
      }
      if (dirty && !e.dirty) {
        e.dirty = true;
        ++dirty_count_;
      }
      if (dirty) {
        // Keep the most conservative (oldest) recLSN across overwrites.
        if (e.rec_lsn == kInvalidLsn ||
            (rec_lsn != kInvalidLsn && rec_lsn < e.rec_lsn)) {
          e.rec_lsn = rec_lsn;
        }
      }
      SyncDeltaStats();
    }
    Touch(page_id, e);
    return Status::OK();
  }

  // Admission of a new page: free frame, else replace the LRU-2 victim.
  if (free_frames_.empty()) {
    FACE_RETURN_IF_ERROR(EvictVictim());
  }
  const uint64_t frame = free_frames_.back();
  free_frames_.pop_back();
  FACE_RETURN_IF_ERROR(WriteFrame(frame, page, page_id));
  delta_.BeginFull(page_id, frame);

  Entry e;
  e.frame = frame;
  e.dirty = dirty;
  e.rec_lsn = dirty ? rec_lsn : kInvalidLsn;
  e.penult_ref = 0;  // first visit: -inf history, prime eviction candidate
  e.last_ref = ++clock_;
  if (dirty) ++dirty_count_;
  victim_order_.Push(KeyOf(page_id, e));
  index_.TryEmplace(page_id, e);
  ++stats_.enqueues;
  return Status::OK();
}

Status LcCache::PrepareCheckpoint() {
  // Ascending-page order: the checkpoint flush is deterministic in the
  // cached set alone (not the directory's hash layout), and adjacent dirty
  // pages coalesce into sequential disk writes.
  std::vector<PageId> dirty;
  dirty.reserve(dirty_count_);
  index_.ForEach([&dirty](PageId page_id, const Entry& e) {
    if (e.dirty) dirty.push_back(page_id);
  });
  std::sort(dirty.begin(), dirty.end());
  for (PageId page_id : dirty) {
    FACE_RETURN_IF_ERROR(CleanEntry(page_id, *index_.Find(page_id)));
  }
  return Status::OK();
}

void LcCache::OnPageWrittenToDisk(PageId page_id) {
  // The disk copy just became current; a cached copy is stale now. Drop it
  // (an in-memory invalidation — no flash I/O).
  Entry* e = index_.Find(page_id);
  if (e == nullptr) return;
  if (e->dirty) --dirty_count_;
  free_frames_.push_back(e->frame);
  index_.Erase(page_id);  // the heap key goes stale with the entry
  delta_.Drop(page_id);
  ++stats_.invalidations;
}

Status LcCache::RecoverAfterCrash() {
  // Directory was DRAM-only: all cached state is unreachable after a crash.
  index_.Clear();
  victim_order_.Clear();
  free_frames_.clear();
  for (uint64_t i = 0; i < options_.n_frames; ++i) {
    free_frames_.push_back(options_.n_frames - 1 - i);
  }
  dirty_count_ = 0;
  cleaning_ = false;
  scrub_frame_ = 0;
  // Delta chains died with the directory; re-format the ring so stale media
  // records can never be confused with the new life's.
  FACE_RETURN_IF_ERROR(delta_.Reset());
  SyncDeltaStats();
  return Status::OK();
}

bool LcCache::HasBackgroundWork() const {
  if (degraded_) return false;
  const double dirty = DirtyFraction();
  if (cleaning_) return dirty > options_.clean_target;
  return dirty > options_.clean_threshold;
}

Status LcCache::EnterDegraded() {
  // The flash device is gone: drop the DRAM directory without touching it.
  // Callers needing the exposure set must CollectFlashOnlyDirty first.
  degraded_ = true;
  index_.Clear();
  victim_order_.Clear();
  free_frames_.clear();
  for (uint64_t i = 0; i < options_.n_frames; ++i) {
    free_frames_.push_back(options_.n_frames - 1 - i);
  }
  dirty_count_ = 0;
  cleaning_ = false;
  scrub_frame_ = 0;
  std::vector<PageId> chained;
  delta_.ForEachChain(
      [&](PageId pid, const DeltaRing::ChainView&) { chained.push_back(pid); });
  for (PageId pid : chained) delta_.Drop(pid);
  return Status::OK();
}

void LcCache::CollectFlashOnlyDirty(std::vector<FlashOnlyPage>* out) const {
  const size_t base = out->size();
  index_.ForEach([&](PageId pid, const Entry& e) {
    if (e.dirty) out->push_back(FlashOnlyPage{pid, e.rec_lsn});
  });
  std::sort(out->begin() + base, out->end(),
            [](const FlashOnlyPage& a, const FlashOnlyPage& b) {
              return a.page_id < b.page_id;
            });
}

Lsn LcCache::FlashRedoFloor() const {
  Lsn floor = kInvalidLsn;
  index_.ForEach([&](PageId, const Entry& e) {
    if (e.dirty && e.rec_lsn != kInvalidLsn &&
        (floor == kInvalidLsn || e.rec_lsn < floor)) {
      floor = e.rec_lsn;
    }
  });
  return floor;
}

Status LcCache::ReattachFlash() {
  // A healthy erased device: cold start (which also re-formats the delta
  // ring on the new media) and resume admissions.
  degraded_ = false;
  return RecoverAfterCrash();
}

Status LcCache::ScrubSome(uint64_t max_frames, ScrubResult* out) {
  if (degraded_ || max_frames == 0 || index_.empty()) return Status::OK();
  // No frame -> page reverse map exists; snapshot the occupancy sorted by
  // frame index and resume the rotation from scrub_frame_.
  std::vector<std::pair<uint64_t, PageId>> occupied;
  occupied.reserve(index_.size());
  index_.ForEach([&](PageId pid, const Entry& e) {
    occupied.emplace_back(e.frame, pid);
  });
  std::sort(occupied.begin(), occupied.end());
  size_t start = 0;
  while (start < occupied.size() && occupied[start].first < scrub_frame_) {
    ++start;
  }
  std::string frame(kPageSize, '\0');
  for (uint64_t done = 0; done < occupied.size() && out->frames_scanned <
       max_frames; ++done) {
    const auto& [frame_no, pid] = occupied[(start + done) % occupied.size()];
    Entry* e = index_.Find(pid);
    if (e == nullptr || e->frame != frame_no) continue;  // churned meanwhile
    scrub_frame_ = frame_no + 1;
    FACE_RETURN_IF_ERROR(flash_->Read(frame_no, frame.data()));
    ++stats_.flash_reads;
    ++out->frames_scanned;
    ConstPageView view(frame.data());
    if (view.VerifyChecksum() && view.page_id() == pid) continue;

    if (!e->dirty) {
      // Clean frame: the disk copy is the chain tip (LC cleans through
      // disk), so rewriting it as the new base keeps ApplyChain correct.
      FACE_RETURN_IF_ERROR(storage_->ReadPage(pid, frame.data()));
      ++stats_.disk_reads;
      FACE_RETURN_IF_ERROR(WriteFrame(frame_no, frame.data(), pid));
      ++out->clean_repaired;
      continue;
    }

    // Dirty frame: the rotten base held the only up-to-date copy. Drop the
    // entry and report the page for WAL-driven rebuild.
    out->lost_dirty.push_back(FlashOnlyPage{pid, e->rec_lsn});
    --dirty_count_;
    free_frames_.push_back(e->frame);
    index_.Erase(pid);
    delta_.Drop(pid);
    ++stats_.invalidations;
  }
  if (scrub_frame_ >= options_.n_frames) scrub_frame_ = 0;
  return Status::OK();
}

Status LcCache::RunBackgroundWork() {
  if (!HasBackgroundWork()) return Status::OK();
  obs::ScopedSpan span("core.lc", "clean_batch");
  cleaning_ = true;
  // Clean coldest-first so pages likely to be re-dirtied soon stay dirty in
  // flash and keep absorbing writes. Ascending traversal over a heapified
  // snapshot of the victim keys (cleaning flips dirty bits, never keys, so
  // current keys stay current while we walk).
  cleaner_keys_.assign(victim_order_.keys().begin(),
                       victim_order_.keys().end());
  std::make_heap(cleaner_keys_.begin(), cleaner_keys_.end(),
                 std::greater<VictimKey>());
  uint32_t flushed = 0;
  while (!cleaner_keys_.empty() && flushed < options_.clean_batch &&
         DirtyFraction() > options_.clean_target) {
    std::pop_heap(cleaner_keys_.begin(), cleaner_keys_.end(),
                  std::greater<VictimKey>());
    const VictimKey key = cleaner_keys_.back();
    cleaner_keys_.pop_back();
    if (!IsCurrentKey(key)) continue;
    const PageId page_id = std::get<2>(key);
    Entry& e = *index_.Find(page_id);
    if (!e.dirty) continue;
    FACE_RETURN_IF_ERROR(CleanEntry(page_id, e));
    ++flushed;
  }
  if (DirtyFraction() <= options_.clean_target) cleaning_ = false;
  if (obs::Enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    thread_local obs::Counter* runs = reg.GetCounter("core.lc.cleaner_runs");
    thread_local obs::Hist* pages = reg.GetHistogram("core.lc.clean_batch_pages");
    runs->Increment();
    pages->Add(flushed);
  }
  return Status::OK();
}

Status LcCache::CheckInvariants() const {
  if (index_.size() + free_frames_.size() != options_.n_frames) {
    return Status::Internal("LC frame accounting broken");
  }
  // Exactly index_.size() heap keys must be current, and every entry's
  // current key must be among them (stale keys are expected and ignored).
  std::vector<VictimKey> keys(victim_order_.keys());
  std::sort(keys.begin(), keys.end());
  uint64_t current = 0;
  for (const VictimKey& k : keys) {
    if (IsCurrentKey(k)) ++current;
  }
  if (current != index_.size()) {
    return Status::Internal("LC victim order out of sync with index");
  }
  uint64_t dirty = 0;
  Status audit = Status::OK();
  index_.ForEach([this, &dirty, &audit, &keys](PageId page_id,
                                               const Entry& e) {
    if (!std::binary_search(keys.begin(), keys.end(), KeyOf(page_id, e))) {
      audit = Status::Internal("LC entry missing from victim order");
    }
    if (e.dirty) ++dirty;
    if (e.penult_ref > e.last_ref) {
      audit = Status::Internal("LC reference history out of order");
    }
  });
  FACE_RETURN_IF_ERROR(audit);
  if (dirty != dirty_count_) {
    return Status::Internal("LC dirty count out of sync");
  }
  FACE_RETURN_IF_ERROR(delta_.CheckInvariants());
  Status chains = Status::OK();
  delta_.ForEachChain([&](PageId pid, const DeltaRing::ChainView& cv) {
    if (!chains.ok()) return;
    const Entry* e = index_.Find(pid);
    if (e == nullptr || cv.base_tag != e->frame) {
      chains = Status::Internal("LC delta chain base is not the page's frame");
    }
  });
  return chains;
}

}  // namespace face
