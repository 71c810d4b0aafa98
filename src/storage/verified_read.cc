#include "storage/verified_read.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "obs/metrics.h"
#include "storage/page.h"

namespace face {

namespace {

bool ParanoidFromEnv() {
  const char* v = std::getenv("FACE_PARANOID_CHECKSUMS");
  return v != nullptr && std::strcmp(v, "1") == 0;
}

std::atomic<bool> g_paranoid{ParanoidFromEnv()};

/// "storage.checksum.*" handles: page reads whose checksum ran vs. was
/// skipped on a sealed block.
struct ChecksumObs {
  obs::Counter* verified;
  obs::Counter* skipped;
};

ChecksumObs& GetChecksumObs() {
  thread_local ChecksumObs o = [] {
    auto& reg = obs::MetricsRegistry::Instance();
    return ChecksumObs{reg.GetCounter("storage.checksum.verified"),
                       reg.GetCounter("storage.checksum.skipped")};
  }();
  return o;
}

}  // namespace

bool ParanoidChecksums() { return g_paranoid.load(std::memory_order_relaxed); }

void SetParanoidChecksums(bool on) {
  g_paranoid.store(on, std::memory_order_relaxed);
}

Status ReadVerifiedPage(SimDevice* dev, uint64_t block, PageId page_id,
                        char* out, PageCheck* check) {
  FACE_RETURN_IF_ERROR(dev->Read(block, out));
  const ConstPageView view(out);
  if (dev->sealed(block)) {
    if (obs::Enabled()) GetChecksumObs().skipped->Increment();
    if (ParanoidChecksums()) {
      FACE_CHECK(view.VerifyChecksum(),
                 "sealed block failed checksum verification");
    }
  } else {
    if (obs::Enabled()) GetChecksumObs().verified->Increment();
    if (!view.VerifyChecksum()) {
      *check = PageCheck::kBadChecksum;
      return Status::OK();
    }
    dev->Seal(block);
  }
  *check = view.page_id() == page_id ? PageCheck::kOk
                                     : PageCheck::kWrongPageId;
  return Status::OK();
}

}  // namespace face
