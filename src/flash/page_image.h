// PageImage: one page's bytes, shared by reference count between the flash
// array and the buffer frames that hold the page (docs/FLASH_MODEL.md).
//
// A programmed flash page and a buffer frame that fetched it hold the same
// image, so a clean miss copies nothing. An image is immutable while it is
// shared: a holder that wants to change bytes calls MakeWritable(), which
// copies the image first when another handle can still see it. The counts
// are atomic, so partition workers may hold and release images of one
// shared array concurrently.
//
// Every image comes from a PageImagePool, its home. When the last handle
// goes, the image returns to its home's free list, so a warm pool allocates
// nothing. A pool that is destroyed while some of its images are still held
// elsewhere frees those images when their last handle goes.

#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <utility>

namespace ipa::flash {

class PageImagePool;

class PageImage {
 public:
  PageImage() = default;
  PageImage(const PageImage& other) noexcept : buf_(other.buf_) {
    if (buf_) buf_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  PageImage(PageImage&& other) noexcept : buf_(std::exchange(other.buf_, nullptr)) {}
  PageImage& operator=(PageImage other) noexcept {
    std::swap(buf_, other.buf_);
    return *this;
  }
  ~PageImage() { reset(); }

  /// Drop this handle; the last one returns the image to its pool.
  void reset() {
    if (buf_ && buf_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) Release(buf_);
    buf_ = nullptr;
  }

  bool empty() const { return buf_ == nullptr; }
  explicit operator bool() const { return buf_ != nullptr; }
  const uint8_t* data() const { return buf_ ? buf_->bytes() : nullptr; }
  uint32_t size() const { return buf_ ? buf_->size : 0; }
  uint8_t operator[](uint32_t i) const { return data()[i]; }

  /// True when no other handle shares the image: its holder may change it.
  bool unique() const {
    return buf_ && buf_->refs.load(std::memory_order_acquire) == 1;
  }
  /// The bytes of an unshared image, for writing.
  uint8_t* mutable_data() {
    assert(unique());
    return buf_->bytes();
  }
  /// The bytes for writing: the image itself when unshared; otherwise a copy
  /// taken from `pool`, which this handle then holds instead.
  uint8_t* MakeWritable(PageImagePool& pool);

 private:
  friend class PageImagePool;
  struct Home;
  /// Header of one allocation; the page bytes follow it.
  struct alignas(16) Buf {
    std::atomic<uint32_t> refs;
    uint32_t size;
    Home* home;
    Buf* next;  ///< Free-list link.
    uint8_t* bytes() { return reinterpret_cast<uint8_t*>(this + 1); }
  };
  static void Release(Buf* buf);

  explicit PageImage(Buf* buf) : buf_(buf) {}
  Buf* buf_ = nullptr;
};

/// The home of a set of page-sized images and their free list.
class PageImagePool {
 public:
  explicit PageImagePool(uint32_t page_size);
  /// Frees the free list. Images still held elsewhere are freed when their
  /// last handle goes.
  ~PageImagePool();
  PageImagePool(const PageImagePool&) = delete;
  PageImagePool& operator=(const PageImagePool&) = delete;

  uint32_t page_size() const { return page_size_; }
  /// An unshared image with unspecified contents.
  PageImage Take();
  /// An unshared image holding page_size() bytes copied from `src`.
  /// Inline, like MakeWritable(), so a copy tally (scripts/copy_tally.sh)
  /// names the caller as the copy's site.
  PageImage Copy(const uint8_t* src) {
    PageImage image = Take();
    std::memcpy(image.mutable_data(), src, page_size_);
    return image;
  }

 private:
  uint32_t page_size_;
  PageImage::Home* home_;
};

inline uint8_t* PageImage::MakeWritable(PageImagePool& pool) {
  if (!unique()) *this = pool.Copy(data());
  return buf_->bytes();
}

}  // namespace ipa::flash
