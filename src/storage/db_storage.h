// Maps the flat logical page space onto the database device and owns the
// page allocator. Checksums are stamped on write and verified on read.
#pragma once

#include <cstdint>

#include "common/status.h"
#include "common/types.h"
#include "sim/sim_device.h"

namespace face {

/// Persistent home of database pages (the disk array in the paper's setup,
/// or the SSD in the SSD-only configuration).
class DbStorage {
 public:
  /// `device` must outlive this object. Page ids map 1:1 to device blocks.
  explicit DbStorage(SimDevice* device);

  /// Read a page; verifies checksum (skipped on a sealed block, see
  /// verified_read.h) and page-id match unless the page has never been
  /// written (returns NotFound for virgin pages).
  Status ReadPage(PageId page_id, char* out);

  /// Write a page. Stamps the checksum into `buf` (buf is mutated) and
  /// seals the block.
  Status WritePage(PageId page_id, char* buf);

  /// Allocate the next page id (bump allocator; freed pages not recycled —
  /// TPC-C only grows, and recovery re-derives the high-water mark).
  StatusOr<PageId> AllocatePage();

  /// Allocator high-water mark: all allocated ids are < this value.
  PageId next_page_id() const { return next_page_id_; }

  /// Restore the allocator after a crash (from the checkpoint record, then
  /// bumped further by redo as it observes higher page ids).
  void RestoreAllocator(PageId next) { next_page_id_ = next; }
  /// Raise the high-water mark if `page_id` is at or beyond it.
  void ObservePage(PageId page_id) {
    if (page_id != kInvalidPageId && page_id >= next_page_id_) {
      next_page_id_ = page_id + 1;
    }
  }

  uint64_t capacity_pages() const { return device_->capacity_pages(); }
  SimDevice* device() { return device_; }

 private:
  SimDevice* device_;
  PageId next_page_id_ = 0;
};

}  // namespace face
