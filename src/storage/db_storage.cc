#include "storage/db_storage.h"

#include "storage/page.h"
#include "storage/verified_read.h"

namespace face {

DbStorage::DbStorage(SimDevice* device) : device_(device) {}

Status DbStorage::ReadPage(PageId page_id, char* out) {
  if (page_id >= device_->capacity_pages()) {
    return Status::InvalidArgument("page id beyond device capacity");
  }
  PageCheck check;
  FACE_RETURN_IF_ERROR(ReadVerifiedPage(device_, page_id, page_id, out,
                                        &check));
  if (check == PageCheck::kBadChecksum) {
    // Distinguish "never written" (all zero) from torn/corrupt data.
    bool all_zero = true;
    for (uint32_t i = 0; i < kPageSize; ++i) {
      if (out[i] != 0) {
        all_zero = false;
        break;
      }
    }
    if (all_zero) return Status::NotFound("page never written");
    return Status::Corruption("page checksum mismatch");
  }
  if (check == PageCheck::kWrongPageId) {
    return Status::Corruption("page id mismatch: misdirected write");
  }
  return Status::OK();
}

Status DbStorage::WritePage(PageId page_id, char* buf) {
  if (page_id >= device_->capacity_pages()) {
    return Status::InvalidArgument("page id beyond device capacity");
  }
  PageView view(buf);
  view.set_page_id(page_id);
  view.StampChecksum();
  return device_->WriteSealed(page_id, buf);
}

StatusOr<PageId> DbStorage::AllocatePage() {
  if (next_page_id_ >= device_->capacity_pages()) {
    return Status::OutOfSpace("database device full");
  }
  return next_page_id_++;
}

}  // namespace face
