// Heap settings for the kernels' large, short-lived buffers (DESIGN.md,
// "Heap settings").
//
// A request builds and drops buffers of hundreds of KB to a few MB: hash
// tables, gathered join sides, the relations each WHILE iteration rebinds.
// glibc serves a block above its mmap threshold (128 KB at start, raised to
// the largest such block freed so far) with a fresh mapping, and hands the
// top of the heap back to the system once more than twice that threshold is
// free. Either way the next request faults the same pages in again, and how
// often depends on the blocks the process freed before.

#ifndef MUSKETEER_SRC_BASE_MEMORY_H_
#define MUSKETEER_SRC_BASE_MEMORY_H_

#include <cstddef>

namespace musketeer {

// Largest block the heap serves and keeps after it is freed; glibc accepts
// no higher mmap threshold on 64-bit targets.
inline constexpr size_t kHeapBlockLimit = size_t{32} << 20;

// Fixes glibc's mmap threshold at kHeapBlockLimit and its trim threshold at
// twice that, so freed blocks up to the limit stay in the process for the
// next request, and keeps every thread on the one main heap. With an arena
// per thread (glibc makes up to eight per core) each arena would keep its
// own freed blocks, and a service's workers would hold the sum of their
// peaks. Call it before the process starts threads: a thread that has
// allocated keeps the arena it has. src/engines/engine.cc calls it from a
// static initializer, so every program that executes jobs runs with these
// settings (tests/engines_test.cc checks). Only the first call changes
// anything. It has no effect where glibc's malloc is not the allocator:
// other C libraries, and sanitizer builds.
void KeepFreedBlocksInHeap();

}  // namespace musketeer

#endif  // MUSKETEER_SRC_BASE_MEMORY_H_
