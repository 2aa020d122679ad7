#include "flash/page_image.h"

#include <mutex>
#include <new>

// A free-listed image's bytes are poisoned under AddressSanitizer, so a read
// through a pointer into an image that went back to its pool fails there.
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace ipa::flash {

/// Shared by a pool and every image it made: `refs` counts the pool (while
/// open) plus each allocated image, on the free list or not.
struct PageImage::Home {
  std::mutex mu;
  Buf* free = nullptr;
  bool open = true;
  std::atomic<uint64_t> refs{1};

  void Unref() {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }
};

void PageImage::Release(Buf* buf) {
  Home* home = buf->home;
  {
    std::lock_guard<std::mutex> lock(home->mu);
    if (home->open) {
      ASAN_POISON_MEMORY_REGION(buf->bytes(), buf->size);
      buf->next = home->free;
      home->free = buf;
      return;
    }
  }
  buf->~Buf();
  ::operator delete(buf);
  home->Unref();
}

PageImagePool::PageImagePool(uint32_t page_size)
    : page_size_(page_size), home_(new PageImage::Home) {}

PageImagePool::~PageImagePool() {
  PageImage::Buf* free;
  {
    std::lock_guard<std::mutex> lock(home_->mu);
    home_->open = false;
    free = std::exchange(home_->free, nullptr);
  }
  while (free) {
    PageImage::Buf* next = free->next;
    ASAN_UNPOISON_MEMORY_REGION(free->bytes(), free->size);
    free->~Buf();
    ::operator delete(free);
    home_->Unref();
    free = next;
  }
  home_->Unref();
}

PageImage PageImagePool::Take() {
  PageImage::Buf* buf;
  {
    std::lock_guard<std::mutex> lock(home_->mu);
    buf = home_->free;
    if (buf) home_->free = buf->next;
  }
  if (buf) {
    ASAN_UNPOISON_MEMORY_REGION(buf->bytes(), buf->size);
  } else {
    // Plain operator new: the header's 16-byte alignment is the default.
    buf = new (::operator new(sizeof(PageImage::Buf) + page_size_)) PageImage::Buf;
    buf->size = page_size_;
    buf->home = home_;
    home_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  buf->refs.store(1, std::memory_order_relaxed);
  return PageImage(buf);
}

}  // namespace ipa::flash
