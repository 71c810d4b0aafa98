#include "core/tac_cache.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "obs/metrics.h"
#include "storage/page.h"
#include "storage/verified_read.h"

namespace face {

namespace {

/// "core.tac.*" handles: temperature-gated admission and victim churn.
struct TacObs {
  obs::Counter* admissions;
  obs::Counter* invalidations;
  obs::Counter* dirty_evictions;
};

TacObs& GetTacObs() {
  thread_local TacObs o = [] {
    auto& reg = obs::MetricsRegistry::Instance();
    TacObs t;
    t.admissions = reg.GetCounter("core.tac.admissions");
    t.invalidations = reg.GetCounter("core.tac.invalidations");
    t.dirty_evictions = reg.GetCounter("core.tac.dirty_evictions");
    return t;
  }();
  return o;
}

}  // namespace

TacCache::TacCache(const TacOptions& options, SimDevice* flash,
                   DbStorage* storage)
    : options_(options),
      dir_blocks_(DirBlocksFor(options.n_frames)),
      flash_(flash),
      storage_(storage),
      delta_(DeltaRingOptions{
                 DirBlocksFor(options.n_frames) + options.n_frames,
                 static_cast<uint32_t>(
                     FlashLayout::DeltaBlocksFor(options.n_frames))},
             flash) {
  assert(options_.n_frames >= 2);
  assert(options_.extent_pages >= 1);
  assert(flash_->capacity_pages() >= DeviceBlocksFor(options_.n_frames));
  index_.Reserve(options_.n_frames);  // steady state never rehashes
  free_slots_.reserve(options_.n_frames);
  for (uint64_t i = 0; i < options_.n_frames; ++i) {
    free_slots_.push_back(options_.n_frames - 1 - i);
  }
  scratch_.resize(kPageSize);
  consolidate_buf_.resize(kPageSize);
  delta_.SetConsolidateFn([this](const std::vector<PageId>& pids) {
    return ConsolidateDeltaPages(pids);
  });
}

Status TacCache::Format() {
  index_.Clear();
  victim_order_.Clear();
  extent_temp_.Clear();
  free_slots_.clear();
  for (uint64_t i = 0; i < options_.n_frames; ++i) {
    free_slots_.push_back(options_.n_frames - 1 - i);
  }
  clock_ = 0;
  scrub_slot_ = 0;
  // Zero the whole directory region in one sequential write.
  std::string zeros(static_cast<size_t>(dir_blocks_) * kPageSize, '\0');
  FACE_RETURN_IF_ERROR(flash_->WriteBatch(
      0, static_cast<uint32_t>(dir_blocks_), zeros.data()));
  stats_.meta_flash_writes += dir_blocks_;
  FACE_RETURN_IF_ERROR(delta_.Reset());
  SyncDeltaStats();
  return Status::OK();
}

uint64_t TacCache::Heat(PageId page_id) {
  return ++extent_temp_[ExtentOf(page_id)];
}

uint64_t TacCache::ExtentTemperature(PageId page_id) const {
  const uint64_t* temp = extent_temp_.Find(ExtentOf(page_id));
  return temp == nullptr ? 0 : *temp;
}

Status TacCache::WriteDirEntry(uint64_t slot, PageId page_id, bool occupied) {
  // Persist the one entry by rewriting its 4 KB directory block — the
  // "update an entry in the slot directory" random write of paper §4.1.
  const uint64_t block = slot / kEntriesPerBlock;
  const uint64_t offset =
      (slot % kEntriesPerBlock) * FlashMetaEntry::kEncodedSize;
  FACE_RETURN_IF_ERROR(flash_->Read(block, scratch_.data()));
  ++stats_.flash_reads;
  FlashMetaEntry e;
  e.page_id = page_id;
  e.dirty = false;  // write-through: flash never holds dirty data
  e.occupied = occupied;
  e.EncodeTo(scratch_.data() + offset);
  ++stats_.meta_flash_writes;
  return flash_->Write(block, scratch_.data());
}

Status TacCache::WriteFrame(uint64_t slot, const char* page, PageId page_id) {
  memcpy(scratch_.data(), page, kPageSize);
  PageView view(scratch_.data());
  view.set_page_id(page_id);
  view.StampChecksum();
  ++stats_.flash_writes;
  return flash_->WriteSealed(FrameBlock(slot), scratch_.data());
}

StatusOr<FlashReadResult> TacCache::ReadPage(PageId page_id, char* out) {
  Entry* found = index_.Find(page_id);
  if (found == nullptr) return Status::NotFound("page not in TAC cache");
  Entry& e = *found;
  PageCheck check;
  FACE_RETURN_IF_ERROR(ReadVerifiedPage(flash_, FrameBlock(e.slot), page_id, out, &check));
  ++stats_.flash_reads;
  if (check != PageCheck::kOk) {
    return Status::Corruption("TAC cache frame failed validation");
  }
  // The frame is the chain base; patch delta refreshes on top and hand the
  // caller the tip version so it can delta against this copy later.
  delta_.ApplyChain(page_id, out);
  // Cache hits heat the extent and refresh this entry's standing; the old
  // key goes stale in place.
  e.temp_snapshot = Heat(page_id);
  e.tick = ++clock_;
  victim_order_.Push(KeyOf(page_id, e));
  victim_order_.MaybeCompact(
      index_.size(), [this](const VictimKey& k) { return IsCurrentKey(k); });
  FlashReadResult result{false, kInvalidLsn};  // write-through: never dirty
  DeltaRing::ChainView cv;
  if (delta_.GetChain(page_id, &cv)) result.flash_version = cv.tip_version;
  return result;
}

Status TacCache::OnFetchFromDisk(PageId page_id, const char* page,
                                 uint64_t* admitted_version) {
  const uint64_t temp = Heat(page_id);
  if (Contains(page_id)) return Status::OK();  // defensive; shouldn't happen

  uint64_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    // Temperature gate: replace the coldest cached page only if the
    // incoming page's extent is strictly hotter.
    VictimKey coldest;
    const bool found = victim_order_.PeekMin(
        [this](const VictimKey& k) { return IsCurrentKey(k); }, &coldest);
    if (!found) return Status::Internal("TAC victim order empty");
    if (temp <= std::get<0>(coldest)) return Status::OK();
    const PageId victim = std::get<2>(coldest);
    slot = index_.Find(victim)->slot;
    victim_order_.PopMin();
    FACE_RETURN_IF_ERROR(Invalidate(victim, slot));
  }

  FACE_RETURN_IF_ERROR(WriteFrame(slot, page, page_id));
  FACE_RETURN_IF_ERROR(WriteDirEntry(slot, page_id, true));  // validation
  const uint64_t version = delta_.BeginFull(page_id, slot);
  if (admitted_version != nullptr) *admitted_version = version;

  Entry e;
  e.slot = slot;
  e.temp_snapshot = temp;
  e.tick = ++clock_;
  victim_order_.Push(KeyOf(page_id, e));
  index_.TryEmplace(page_id, e);
  ++stats_.enqueues;
  if (obs::Enabled()) GetTacObs().admissions->Increment();
  return Status::OK();
}

Status TacCache::Invalidate(PageId page_id, uint64_t slot) {
  // No heap maintenance: the key goes stale when the entry leaves the
  // index (the replacement path already popped it; the checkpoint path
  // leaves it for lazy discard).
  index_.Erase(page_id);
  delta_.Drop(page_id);
  ++stats_.invalidations;
  if (obs::Enabled()) GetTacObs().invalidations->Increment();
  // Persist the invalidation — the first of the two random metadata writes
  // TAC pays per replacement.
  return WriteDirEntry(slot, kInvalidPageId, false);
}

Status TacCache::ConsolidateDeltaPages(const std::vector<PageId>& pids) {
  for (PageId pid : pids) {
    const Entry* e = index_.Find(pid);
    if (e == nullptr) continue;
    DeltaRing::ChainView cv;
    if (!delta_.GetChain(pid, &cv) || cv.len == 0 || cv.base_tag != e->slot) {
      continue;
    }
    // Rebuild the tip image and rewrite it into the page's frame in place;
    // the full write re-bases the chain, freeing the doomed records.
    FACE_RETURN_IF_ERROR(flash_->Read(FrameBlock(e->slot),
                                      consolidate_buf_.data()));
    ++stats_.flash_reads;
    delta_.ApplyChain(pid, consolidate_buf_.data());
    FACE_RETURN_IF_ERROR(WriteFrame(e->slot, consolidate_buf_.data(), pid));
    delta_.BeginFull(pid, e->slot);
  }
  return Status::OK();
}

void TacCache::SyncDeltaStats() {
  const DeltaRingStats& d = delta_.stats();
  stats_.delta_records = d.records;
  stats_.delta_record_bytes = d.record_bytes;
  stats_.delta_block_writes = d.block_writes;
  stats_.delta_consolidations = d.consolidations;
}

Status TacCache::OnDramEvict(PageId page_id, char* page, bool dirty,
                             bool fdirty, Lsn rec_lsn, DeltaWriteHint* hint) {
  (void)rec_lsn;
  if (!dirty) return Status::OK();  // clean pages were cached on entry
  ++stats_.dirty_evictions;
  if (obs::Enabled()) GetTacObs().dirty_evictions->Increment();
  // Write-through: disk first, then keep a cached copy coherent.
  FACE_RETURN_IF_ERROR(storage_->WritePage(page_id, page));
  ++stats_.disk_writes;
  const Entry* e = index_.Find(page_id);
  if (e != nullptr && fdirty) {
    // Page-differential fast path: a small refresh whose chain tip matches
    // the frame's version becomes a delta record (dirty = false: the disk
    // write above already made disk current) instead of an in-place
    // (random) full-frame rewrite.
    if (hint != nullptr && hint->tracker != nullptr &&
        !hint->tracker->whole_page() && hint->tracker->region_count() > 0) {
      const uint32_t size = PageDeltaRecord::EncodedSizeFor(*hint->tracker);
      if (delta_.CanAppend(page_id, hint->flash_version, size)) {
        auto version =
            delta_.Append(page_id, hint->flash_version, *hint->tracker,
                          ConstPageView(page).lsn(), /*dirty=*/false, page);
        if (!version.ok()) return version.status();
        if (*version != kNoFlashVersion) {
          hint->new_version = *version;
          SyncDeltaStats();
          return Status::OK();
        }
      }
    }
    FACE_RETURN_IF_ERROR(WriteFrame(e->slot, page, page_id));
    delta_.BeginFull(page_id, e->slot);  // full image re-bases the chain
    SyncDeltaStats();
  }
  return Status::OK();
}

Status TacCache::OnCheckpoint() {
  FACE_RETURN_IF_ERROR(delta_.Flush());
  SyncDeltaStats();
  return Status::OK();
}

void TacCache::OnPageWrittenToDisk(PageId page_id) {
  // Checkpoint wrote the page without handing us bytes: the flash copy is
  // stale, so it must be invalidated (persistently).
  const Entry* e = index_.Find(page_id);
  if (e == nullptr) return;
  const uint64_t slot = e->slot;
  // Invalidate() returns a Status for the metadata write; a failure here is
  // ignored deliberately — the in-memory drop already guarantees the stale
  // copy can never be served.
  (void)Invalidate(page_id, slot);
  free_slots_.push_back(slot);
}

Status TacCache::RecoverAfterCrash() {
  index_.Clear();
  victim_order_.Clear();
  extent_temp_.Clear();
  free_slots_.clear();
  clock_ = 0;

  // One sequential sweep over the slot directory rebuilds the map.
  std::string dir(static_cast<size_t>(dir_blocks_) * kPageSize, '\0');
  FACE_RETURN_IF_ERROR(flash_->ReadBatch(
      0, static_cast<uint32_t>(dir_blocks_), dir.data()));
  stats_.flash_reads += dir_blocks_;
  // A second sequential sweep validates the frames themselves: the
  // write-through in-place refresh (OnDramEvict) updates a frame without
  // touching its directory entry, so a crash can tear a frame that the
  // directory still advertises as valid. Dropping such a slot is always
  // safe — write-through means disk holds the current copy.
  constexpr uint32_t kSweepBatch = 64;
  std::string frames(static_cast<size_t>(kSweepBatch) * kPageSize, '\0');
  for (uint64_t base = 0; base < options_.n_frames; base += kSweepBatch) {
    const uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>(kSweepBatch, options_.n_frames - base));
    FACE_RETURN_IF_ERROR(
        flash_->ReadBatch(FrameBlock(base), chunk, frames.data()));
    stats_.flash_reads += chunk;
    for (uint32_t k = 0; k < chunk; ++k) {
      const uint64_t slot = base + k;
      const FlashMetaEntry e = FlashMetaEntry::DecodeFrom(
          dir.data() + (slot / kEntriesPerBlock) * kPageSize +
          (slot % kEntriesPerBlock) * FlashMetaEntry::kEncodedSize);
      if (!e.occupied || e.page_id == kInvalidPageId) {
        free_slots_.push_back(slot);
        continue;
      }
      ConstPageView view(frames.data() + static_cast<size_t>(k) * kPageSize);
      if (!view.VerifyChecksum() || view.page_id() != e.page_id) {
        free_slots_.push_back(slot);
        // Persist the invalidation so the next restart's sweep skips it.
        FACE_RETURN_IF_ERROR(WriteDirEntry(slot, kInvalidPageId, false));
        ++stats_.invalidations;
        continue;
      }
      Entry entry;
      entry.slot = slot;
      entry.temp_snapshot = 0;  // temperatures do not survive a crash
      entry.tick = ++clock_;
      victim_order_.Push(KeyOf(e.page_id, entry));
      index_.TryEmplace(e.page_id, entry);
    }
  }
  // Delta fencing: a frame with surviving media delta records is a *stale
  // base* — the crash-time tip lived in the delta chain, not the frame.
  // Reconstructing tips here would be wasted motion (write-through means
  // disk already holds every committed byte), so conservatively drop such
  // slots and let demand fetches repopulate them. Pre-checkpoint records
  // are guaranteed on media by OnCheckpoint's Flush; records lost after the
  // last checkpoint heal through restart redo plus the restart-end
  // checkpoint's OnPageWrittenToDisk invalidation — the same window TAC
  // already tolerates for torn in-place refreshes.
  auto recovered = delta_.RecoverScan();
  FACE_RETURN_IF_ERROR(recovered.status());
  for (const DeltaRing::RecoveredRecord& r : *recovered) {
    const Entry* e = index_.Find(r.rec.page_id);
    if (e == nullptr) continue;
    const uint64_t slot = e->slot;
    if (r.rec.base_version != slot) continue;  // record for an older tenancy
    FACE_RETURN_IF_ERROR(Invalidate(r.rec.page_id, slot));
    free_slots_.push_back(slot);
  }
  // Chains never outlive a restart; reclaim the ring wholesale.
  FACE_RETURN_IF_ERROR(delta_.Reset());
  SyncDeltaStats();
  return Status::OK();
}

Status TacCache::EnterDegraded() {
  // The device is dead: no invalidation writes, just forget everything.
  degraded_ = true;
  index_.Clear();
  victim_order_.Clear();
  extent_temp_.Clear();
  free_slots_.clear();
  for (uint64_t i = 0; i < options_.n_frames; ++i) {
    free_slots_.push_back(options_.n_frames - 1 - i);
  }
  clock_ = 0;
  scrub_slot_ = 0;
  std::vector<PageId> chained;
  delta_.ForEachChain(
      [&](PageId pid, const DeltaRing::ChainView&) { chained.push_back(pid); });
  for (PageId pid : chained) delta_.Drop(pid);
  return Status::OK();
}

Status TacCache::ReattachFlash() {
  // A healthy erased device: rewrite the persistent directory from scratch.
  degraded_ = false;
  return Format();
}

Status TacCache::ScrubSome(uint64_t max_frames, ScrubResult* out) {
  if (degraded_ || max_frames == 0 || index_.empty()) return Status::OK();
  // Snapshot occupancy sorted by slot and resume the rotation.
  std::vector<std::pair<uint64_t, PageId>> occupied;
  occupied.reserve(index_.size());
  index_.ForEach([&](PageId pid, const Entry& e) {
    occupied.emplace_back(e.slot, pid);
  });
  std::sort(occupied.begin(), occupied.end());
  size_t start = 0;
  while (start < occupied.size() && occupied[start].first < scrub_slot_) {
    ++start;
  }
  std::string frame(kPageSize, '\0');
  for (uint64_t done = 0;
       done < occupied.size() && out->frames_scanned < max_frames; ++done) {
    const auto& [slot, pid] = occupied[(start + done) % occupied.size()];
    const Entry* e = index_.Find(pid);
    if (e == nullptr || e->slot != slot) continue;  // churned meanwhile
    scrub_slot_ = slot + 1;
    FACE_RETURN_IF_ERROR(flash_->Read(FrameBlock(slot), frame.data()));
    ++stats_.flash_reads;
    ++out->frames_scanned;
    ConstPageView view(frame.data());
    if (view.VerifyChecksum() && view.page_id() == pid) continue;
    // Write-through: disk holds the chain tip, so the repaired frame is a
    // correct new base for any delta records still attached.
    FACE_RETURN_IF_ERROR(storage_->ReadPage(pid, frame.data()));
    ++stats_.disk_reads;
    FACE_RETURN_IF_ERROR(WriteFrame(slot, frame.data(), pid));
    ++out->clean_repaired;
  }
  if (scrub_slot_ >= options_.n_frames) scrub_slot_ = 0;
  return Status::OK();
}

Status TacCache::CheckInvariants() const {
  if (index_.size() + free_slots_.size() != options_.n_frames) {
    return Status::Internal("TAC slot accounting broken");
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
    return Status::Internal("TAC victim order out of sync with index");
  }
  Status audit = Status::OK();
  index_.ForEach([this, &audit, &keys](PageId page_id, const Entry& e) {
    if (!std::binary_search(keys.begin(), keys.end(), KeyOf(page_id, e))) {
      audit = Status::Internal("TAC entry missing from victim order");
    }
    if (e.slot >= options_.n_frames) {
      audit = Status::Internal("TAC slot out of range");
    }
  });
  if (!audit.ok()) return audit;
  FACE_RETURN_IF_ERROR(delta_.CheckInvariants());
  Status delta_audit = Status::OK();
  delta_.ForEachChain(
      [this, &delta_audit](PageId page_id, const DeltaRing::ChainView& cv) {
        const Entry* e = index_.Find(page_id);
        if (e == nullptr) {
          delta_audit = Status::Internal("TAC delta chain for uncached page");
        } else if (cv.base_tag != e->slot) {
          delta_audit = Status::Internal("TAC delta chain base/slot mismatch");
        }
      });
  return delta_audit;
}

}  // namespace face
