#include "src/base/memory.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace musketeer {

void KeepFreedBlocksInHeap() {
#if defined(__GLIBC__)
  static const bool kept = [] {
    mallopt(M_MMAP_THRESHOLD, static_cast<int>(kHeapBlockLimit));
    mallopt(M_TRIM_THRESHOLD, static_cast<int>(2 * kHeapBlockLimit));
    mallopt(M_ARENA_MAX, 1);
    return true;
  }();
  (void)kept;
#endif
}

}  // namespace musketeer
