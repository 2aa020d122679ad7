// Single-bit-correcting / double-bit-detecting ECC over 256-byte segments
// (the classic SmartMedia/NAND Hamming code: 3 ECC bytes per 256 data bytes).
//
// IPA requires ECC to be computed *incrementally* (Section 6.2 "Flash ECC and
// Page OOB Area"): the page body is covered by ECC_initial and every appended
// delta-record gets its own ECC_delta, both stored in the page's OOB area and
// themselves appended via ISPP. The segment code here is that building block.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "flash/page_image.h"

namespace ipa::flash {

/// Outcome of an ECC check over one segment.
enum class EccResult {
  kClean,          ///< No error.
  kCorrected,      ///< Single-bit error found and fixed in place.
  kUncorrectable,  ///< >=2 bit errors; data unreliable.
};

/// Number of data bytes covered by one ECC unit.
constexpr size_t kEccSegment = 256;
/// ECC bytes produced per segment.
constexpr size_t kEccBytesPerSegment = 3;

/// Compute the 3-byte Hamming ECC for a 256-byte segment. Shorter trailing
/// segments are treated as zero-padded to 256 bytes.
std::array<uint8_t, kEccBytesPerSegment> EccEncode(const uint8_t* data, size_t len);

/// Verify (and if possible repair) `data[0..len)` against a stored ECC.
/// On a single-bit error the data is fixed in place and kCorrected returned.
/// A syndrome that points past `len`, into the zero padding, is kUncorrectable.
EccResult EccCheckAndCorrect(uint8_t* data, size_t len,
                             const std::array<uint8_t, kEccBytesPerSegment>& stored);

/// ECC for an arbitrary-length region: one 3-byte unit per 256-byte segment,
/// concatenated. `EccRegionBytes(len)` gives the output size.
size_t EccRegionBytes(size_t data_len);

/// Write the region's ECC, EccRegionBytes(len) bytes, to `out`. Uses an AVX2
/// kernel when the CPU has one (detected on the first call) and
/// EccEncodeRegionPortable otherwise; both write the same bytes.
void EccEncodeRegion(const uint8_t* data, size_t len, uint8_t* out);

/// The portable per-segment loop (EccEncode) behind EccEncodeRegion on CPUs
/// without AVX2. Tests run it as the reference on any host.
void EccEncodeRegionPortable(const uint8_t* data, size_t len, uint8_t* out);

/// EccEncodeRegion into a new vector.
std::vector<uint8_t> EccEncodeRegion(const uint8_t* data, size_t len);

/// Check/repair a whole region; returns the worst per-segment result and
/// counts corrections via `corrected_bits` (may be nullptr). When
/// `stored_len` is short, the segments before the first one without stored
/// ECC are checked and the result is kUncorrectable. The region is encoded
/// at once and compared with the stored bytes; only a mismatching run of
/// segments goes through EccCheckAndCorrect.
EccResult EccCheckRegion(uint8_t* data, size_t len, const uint8_t* stored_ecc,
                         size_t stored_len, uint64_t* corrected_bits);

/// EccCheckRegion over bytes [offset, offset + len) of `image`, which may be
/// shared. The image is only read until a run of segments does not match its
/// stored ECC; the check then makes it writable (MakeWritable(pool), a copy
/// if shared) and repairs it there. A region that matches copies nothing.
EccResult EccCheckRegion(PageImage* image, PageImagePool& pool, size_t offset,
                         size_t len, const uint8_t* stored_ecc, size_t stored_len,
                         uint64_t* corrected_bits);

}  // namespace ipa::flash
