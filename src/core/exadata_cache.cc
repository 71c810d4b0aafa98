#include "core/exadata_cache.h"

#include <cassert>
#include <cstring>

#include "obs/metrics.h"
#include "storage/page.h"
#include "storage/verified_read.h"

namespace face {

namespace {

/// "core.exadata.*" handles: clean-only admission and invalidation churn.
struct ExaObs {
  obs::Counter* admissions;
  obs::Counter* invalidations;
  obs::Counter* dirty_evictions;
};

ExaObs& GetExaObs() {
  thread_local ExaObs o = [] {
    auto& reg = obs::MetricsRegistry::Instance();
    ExaObs e;
    e.admissions = reg.GetCounter("core.exadata.admissions");
    e.invalidations = reg.GetCounter("core.exadata.invalidations");
    e.dirty_evictions = reg.GetCounter("core.exadata.dirty_evictions");
    return e;
  }();
  return o;
}

}  // namespace

ExadataCache::ExadataCache(uint64_t n_frames, SimDevice* flash,
                           DbStorage* storage)
    : n_frames_(n_frames),
      flash_(flash),
      storage_(storage),
      delta_(DeltaRingOptions{
                 n_frames,
                 static_cast<uint32_t>(FlashLayout::DeltaBlocksFor(n_frames))},
             flash) {
  assert(n_frames_ >= 2);
  assert(n_frames_ <= static_cast<uint64_t>(INT32_MAX));  // int32 LRU links
  assert(flash_->capacity_pages() >= DeviceBlocksFor(n_frames_));
  index_.Reserve(n_frames_);  // steady state never rehashes
  frame_page_.assign(n_frames_, kInvalidPageId);
  links_.assign(n_frames_, IntrusiveLinks());
  free_frames_.reserve(n_frames_);
  for (uint64_t i = 0; i < n_frames_; ++i) {
    free_frames_.push_back(static_cast<uint32_t>(n_frames_ - 1 - i));
  }
  scratch_.resize(kPageSize);
  consolidate_buf_.resize(kPageSize);
  delta_.SetConsolidateFn([this](const std::vector<PageId>& pids) {
    return ConsolidateDeltaPages(pids);
  });
}

StatusOr<FlashReadResult> ExadataCache::ReadPage(PageId page_id, char* out) {
  const uint32_t* found = index_.Find(page_id);
  if (found == nullptr) {
    return Status::NotFound("page not in Exadata cache");
  }
  const uint32_t frame = *found;
  PageCheck check;
  FACE_RETURN_IF_ERROR(ReadVerifiedPage(flash_, frame, page_id, out, &check));
  ++stats_.flash_reads;
  if (check != PageCheck::kOk) {
    return Status::Corruption("Exadata cache frame failed validation");
  }
  // The frame is the chain base; patch delta refreshes on top and hand the
  // caller the tip version so it can delta against this copy later.
  delta_.ApplyChain(page_id, out);
  lru_.MoveToFront(FrameLinks(), frame);
  FlashReadResult result{false, kInvalidLsn};  // clean-only cache
  DeltaRing::ChainView cv;
  if (delta_.GetChain(page_id, &cv)) result.flash_version = cv.tip_version;
  return result;
}

Status ExadataCache::OnFetchFromDisk(PageId page_id, const char* page,
                                     uint64_t* admitted_version) {
  if (Contains(page_id)) return Status::OK();

  uint32_t frame;
  if (!free_frames_.empty()) {
    frame = free_frames_.back();
    free_frames_.pop_back();
  } else {
    // LRU replacement: victims are always clean, so they are just dropped.
    frame = static_cast<uint32_t>(lru_.tail());
    lru_.Remove(FrameLinks(), frame);
    delta_.Drop(frame_page_[frame]);
    index_.Erase(frame_page_[frame]);
    frame_page_[frame] = kInvalidPageId;
    ++stats_.invalidations;
    if (obs::Enabled()) GetExaObs().invalidations->Increment();
  }

  memcpy(scratch_.data(), page, kPageSize);
  PageView view(scratch_.data());
  view.set_page_id(page_id);
  view.StampChecksum();
  FACE_RETURN_IF_ERROR(flash_->WriteSealed(frame, scratch_.data()));
  ++stats_.flash_writes;
  const uint64_t version = delta_.BeginFull(page_id, frame);
  if (admitted_version != nullptr) *admitted_version = version;

  frame_page_[frame] = page_id;
  lru_.PushFront(FrameLinks(), frame);
  index_.TryEmplace(page_id, frame);
  ++stats_.enqueues;
  if (obs::Enabled()) GetExaObs().admissions->Increment();
  return Status::OK();
}

Status ExadataCache::OnDramEvict(PageId page_id, char* page, bool dirty,
                                 bool fdirty, Lsn rec_lsn,
                                 DeltaWriteHint* hint) {
  (void)fdirty;
  (void)rec_lsn;
  if (!dirty) return Status::OK();
  ++stats_.dirty_evictions;
  if (obs::Enabled()) GetExaObs().dirty_evictions->Increment();
  FACE_RETURN_IF_ERROR(storage_->WritePage(page_id, page));
  ++stats_.disk_writes;
  const uint32_t* frame = index_.Find(page_id);
  if (frame == nullptr) return Status::OK();
  // Page-differential path: a small update whose chain tip matches the
  // cached copy becomes a delta record (dirty = false — disk stays
  // current) and the page keeps serving read hits. Otherwise fall back to
  // the classic clean-only behavior: invalidate rather than update.
  if (hint != nullptr && hint->tracker != nullptr &&
      !hint->tracker->whole_page() && hint->tracker->region_count() > 0) {
    const uint32_t size = PageDeltaRecord::EncodedSizeFor(*hint->tracker);
    if (delta_.CanAppend(page_id, hint->flash_version, size)) {
      auto version = delta_.Append(page_id, hint->flash_version,
                                   *hint->tracker, ConstPageView(page).lsn(),
                                   /*dirty=*/false, page);
      if (!version.ok()) return version.status();
      if (*version != kNoFlashVersion) {
        hint->new_version = *version;
        SyncDeltaStats();
        return Status::OK();
      }
      // Append consolidated this chain away; the frame now holds a stale
      // base with no chain. Re-find: consolidation never moves frames, but
      // stay defensive about index mutation.
      SyncDeltaStats();
      frame = index_.Find(page_id);
      if (frame == nullptr) return Status::OK();
    }
  }
  DropFrame(*frame);
  return Status::OK();
}

void ExadataCache::OnPageWrittenToDisk(PageId page_id) {
  if (const uint32_t* frame = index_.Find(page_id)) DropFrame(*frame);
}

void ExadataCache::DropFrame(uint32_t frame) {
  free_frames_.push_back(frame);
  lru_.Remove(FrameLinks(), frame);
  delta_.Drop(frame_page_[frame]);
  index_.Erase(frame_page_[frame]);
  frame_page_[frame] = kInvalidPageId;
  ++stats_.invalidations;
  if (obs::Enabled()) GetExaObs().invalidations->Increment();
}

Status ExadataCache::ConsolidateDeltaPages(const std::vector<PageId>& pids) {
  for (PageId pid : pids) {
    const uint32_t* frame = index_.Find(pid);
    if (frame == nullptr) continue;
    DeltaRing::ChainView cv;
    if (!delta_.GetChain(pid, &cv) || cv.len == 0 || cv.base_tag != *frame) {
      continue;
    }
    // Rebuild the tip image and rewrite it into the page's frame in place;
    // the full write re-bases the chain, freeing the doomed records.
    FACE_RETURN_IF_ERROR(flash_->Read(*frame, consolidate_buf_.data()));
    ++stats_.flash_reads;
    delta_.ApplyChain(pid, consolidate_buf_.data());
    PageView view(consolidate_buf_.data());
    view.StampChecksum();
    FACE_RETURN_IF_ERROR(flash_->WriteSealed(*frame, consolidate_buf_.data()));
    ++stats_.flash_writes;
    delta_.BeginFull(pid, *frame);
  }
  return Status::OK();
}

void ExadataCache::SyncDeltaStats() {
  const DeltaRingStats& d = delta_.stats();
  stats_.delta_records = d.records;
  stats_.delta_record_bytes = d.record_bytes;
  stats_.delta_block_writes = d.block_writes;
  stats_.delta_consolidations = d.consolidations;
}

Status ExadataCache::RecoverAfterCrash() {
  index_.Clear();
  lru_.Clear();
  frame_page_.assign(n_frames_, kInvalidPageId);
  links_.assign(n_frames_, IntrusiveLinks());
  free_frames_.clear();
  for (uint64_t i = 0; i < n_frames_; ++i) {
    free_frames_.push_back(static_cast<uint32_t>(n_frames_ - 1 - i));
  }
  scrub_frame_ = 0;
  // The DRAM directory is gone, and delta chains are part of it.
  FACE_RETURN_IF_ERROR(delta_.Reset());
  SyncDeltaStats();
  return Status::OK();
}

Status ExadataCache::EnterDegraded() {
  // The device is dead: drop the DRAM directory without touching it.
  degraded_ = true;
  index_.Clear();
  lru_.Clear();
  frame_page_.assign(n_frames_, kInvalidPageId);
  links_.assign(n_frames_, IntrusiveLinks());
  free_frames_.clear();
  for (uint64_t i = 0; i < n_frames_; ++i) {
    free_frames_.push_back(static_cast<uint32_t>(n_frames_ - 1 - i));
  }
  scrub_frame_ = 0;
  std::vector<PageId> chained;
  delta_.ForEachChain(
      [&](PageId pid, const DeltaRing::ChainView&) { chained.push_back(pid); });
  for (PageId pid : chained) delta_.Drop(pid);
  return Status::OK();
}

Status ExadataCache::ReattachFlash() {
  // A healthy erased device: cold start (re-formats the delta ring).
  degraded_ = false;
  return RecoverAfterCrash();
}

Status ExadataCache::ScrubSome(uint64_t max_frames, ScrubResult* out) {
  if (degraded_ || max_frames == 0 || index_.empty()) return Status::OK();
  std::string frame(kPageSize, '\0');
  // frame_page_ is a direct reverse map: rotate over it.
  uint64_t walked = 0;
  while (walked < n_frames_ && out->frames_scanned < max_frames) {
    const uint64_t f = scrub_frame_;
    ++walked;
    scrub_frame_ = (scrub_frame_ + 1) % n_frames_;
    const PageId pid = frame_page_[f];
    if (pid == kInvalidPageId) continue;
    FACE_RETURN_IF_ERROR(flash_->Read(f, frame.data()));
    ++stats_.flash_reads;
    ++out->frames_scanned;
    ConstPageView view(frame.data());
    if (view.VerifyChecksum() && view.page_id() == pid) continue;
    // Clean-only cache: disk holds the chain tip, so the repaired frame is
    // a correct new base for any delta records still attached.
    FACE_RETURN_IF_ERROR(storage_->ReadPage(pid, frame.data()));
    ++stats_.disk_reads;
    memcpy(scratch_.data(), frame.data(), kPageSize);
    PageView repaired(scratch_.data());
    repaired.set_page_id(pid);
    repaired.StampChecksum();
    FACE_RETURN_IF_ERROR(flash_->WriteSealed(f, scratch_.data()));
    ++stats_.flash_writes;
    ++out->clean_repaired;
  }
  return Status::OK();
}

Status ExadataCache::CheckInvariants() const {
  uint64_t chained = 0;
  for (int32_t i = lru_.head(); i >= 0; i = links_[i].next) {
    ++chained;
    const PageId page_id = frame_page_[i];
    const uint32_t* frame = index_.Find(page_id);
    if (frame == nullptr || *frame != static_cast<uint32_t>(i)) {
      return Status::Internal("Exadata LRU frame missing from index");
    }
    if (chained > n_frames_) {
      return Status::Internal("Exadata LRU chain cycles");
    }
  }
  if (index_.size() != chained) {
    return Status::Internal("Exadata index / LRU size mismatch");
  }
  if (index_.size() + free_frames_.size() != n_frames_) {
    return Status::Internal("Exadata frame accounting broken");
  }
  FACE_RETURN_IF_ERROR(delta_.CheckInvariants());
  Status delta_audit = Status::OK();
  delta_.ForEachChain(
      [this, &delta_audit](PageId page_id, const DeltaRing::ChainView& cv) {
        const uint32_t* frame = index_.Find(page_id);
        if (frame == nullptr) {
          delta_audit =
              Status::Internal("Exadata delta chain for uncached page");
        } else if (cv.base_tag != *frame) {
          delta_audit =
              Status::Internal("Exadata delta chain base/frame mismatch");
        }
      });
  return delta_audit;
}

}  // namespace face
