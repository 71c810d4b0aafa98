// The one read-and-verify path for stamped pages: DbStorage and the four
// flash-cache policies read a page and validate it here. A block the device
// reports sealed ("unchanged since stamped", see SimDevice) skips the
// checksum; the page-id check always runs. A verification that passes seals
// the block, so each stamped image is checksummed at most once between
// writes.
//
// Paranoid mode verifies sealed blocks too and aborts (FACE_CHECK) if one
// fails: a seal that lied. It is on when the process starts with
// FACE_PARANOID_CHECKSUMS=1 (the test suite and the sanitizer and
// fault-matrix CI jobs), and tests may flip it. Simulated results are
// identical in both modes; only host work differs.
//
// Restart-time frame scans, scrubbers and audits do not come here: they
// always verify in full.
#pragma once

#include <cstdint>

#include "common/status.h"
#include "common/types.h"
#include "sim/sim_device.h"

namespace face {

/// Verdict of validating one page image read from a device block.
enum class PageCheck : uint8_t {
  kOk,
  kBadChecksum,  ///< stored checksum does not match the bytes
  kWrongPageId,  ///< checksum fine, but the page is not the one expected
};

/// True while paranoid checksum mode is on (see file comment).
bool ParanoidChecksums();
/// Switch paranoid mode (tests). Flip it before shard workers start.
void SetParanoidChecksums(bool on);

/// Read block `block` of `dev` into `out` and validate it as page
/// `page_id`. Returns the device status; on OK, `*check` holds the verdict.
Status ReadVerifiedPage(SimDevice* dev, uint64_t block, PageId page_id,
                        char* out, PageCheck* check);

}  // namespace face
