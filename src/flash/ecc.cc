#include "flash/ecc.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace ipa::flash {

// The encoder reads a segment as little-endian 64-bit words, the byte order
// common/bytes.h already assumes for every on-media integer.
static_assert(std::endian::native == std::endian::little,
              "EccEncode reads segments as little-endian words");

namespace {

inline uint32_t Parity(uint64_t x) { return static_cast<uint32_t>(std::popcount(x) & 1); }

/// Moves bit k of a 16-bit value to bit 2k.
inline uint32_t Spread(uint32_t v) {
  v = (v | (v << 8)) & 0x00FF00FF;
  v = (v | (v << 4)) & 0x0F0F0F0F;
  v = (v | (v << 2)) & 0x33333333;
  v = (v | (v << 1)) & 0x55555555;
  return v;
}

/// The 22 code bits of three ECC bytes: CP0..CP5, then LP0..LP15.
inline uint32_t CodeOf(const std::array<uint8_t, kEccBytesPerSegment>& ecc) {
  return (ecc[2] & 0x3Fu) | uint32_t{ecc[0]} << 6 | uint32_t{ecc[1]} << 14;
}

}  // namespace

std::array<uint8_t, kEccBytesPerSegment> EccEncode(const uint8_t* data, size_t len) {
  // Classic SmartMedia 22-bit Hamming code: 16 line-parity bits over the byte
  // address, 6 column-parity bits over the bit position. A set data bit at
  // 11-bit address byte << 3 | bit flips one bit of each of the 11 parity
  // pairs: the odd one (2k+1) if address bit k is 1, else the even one (2k).
  // The code is linear, so it depends only on z, the XOR of the addresses of
  // all set bits, and n, the parity of their count. In code order (CP0..CP5,
  // then LP0..LP15), the odd bits spell z, and the even bits spell z
  // complemented when n is 1.
  //
  // Read as 32 little-endian words, a bit's address is word << 6 | bit-in-word.
  // Folding the segment in half eleven times, first by word and then by bit,
  // yields z one bit per fold: the parity of the upper half is the address
  // bit that the fold removes. The bit left over is n. A short segment is
  // zero-padded; zero bytes add nothing.
  uint64_t w[kEccSegment / 8];
  if (len >= kEccSegment) {
    std::memcpy(w, data, kEccSegment);
  } else {
    std::memset(w, 0, sizeof w);
    if (len > 0) std::memcpy(w, data, len);
  }
  uint32_t z = 0;
  for (uint32_t half = 16, bit = 10; half > 0; half /= 2, bit--) {
    uint64_t upper = 0;
    for (uint32_t i = 0; i < half; i++) {
      upper ^= w[half + i];
      w[i] ^= w[half + i];
    }
    z |= Parity(upper) << bit;
  }
  uint64_t x = w[0];
  for (uint32_t half = 32, bit = 5; half > 0; half /= 2, bit--) {
    z |= Parity(x >> half) << bit;
    x = (x ^ (x >> half)) & ((uint64_t{1} << half) - 1);
  }
  uint32_t n = static_cast<uint32_t>(x);

  uint32_t code = Spread(z) << 1 | Spread(n ? z ^ 0x7FF : z);
  return {static_cast<uint8_t>(code >> 6), static_cast<uint8_t>(code >> 14),
          static_cast<uint8_t>((code & 0x3F) | 0xC0)};  // top two bits fixed to 1
}

EccResult EccCheckAndCorrect(uint8_t* data, size_t len,
                             const std::array<uint8_t, kEccBytesPerSegment>& stored) {
  uint32_t syndrome = CodeOf(stored) ^ CodeOf(EccEncode(data, len));
  if (syndrome == 0) return EccResult::kClean;

  // A single flipped data bit flips exactly one bit of each of the 11 pairs
  // (mask 0x155555 holds bit 2k of each), and the odd bits spell its address.
  if (((syndrome ^ (syndrome >> 1)) & 0x155555) == 0x155555) {
    uint32_t addr = 0;
    for (uint32_t k = 0; k < 11; k++) addr |= ((syndrome >> (2 * k + 1)) & 1) << k;
    size_t byte = addr >> 3;
    // No bit of the zero padding can flip, so a syndrome that points past
    // `len` takes three or more flipped bits: the data cannot be trusted.
    if (byte >= len) return EccResult::kUncorrectable;
    data[byte] ^= static_cast<uint8_t>(1u << (addr & 7));
    return EccResult::kCorrected;
  }

  if (std::popcount(syndrome) == 1) {
    // Single-bit error in the ECC bytes themselves; the data is intact.
    return EccResult::kCorrected;
  }
  return EccResult::kUncorrectable;
}

size_t EccRegionBytes(size_t data_len) {
  size_t segments = (data_len + kEccSegment - 1) / kEccSegment;
  return segments * kEccBytesPerSegment;
}

std::vector<uint8_t> EccEncodeRegion(const uint8_t* data, size_t len) {
  std::vector<uint8_t> out;
  out.reserve(EccRegionBytes(len));
  for (size_t off = 0; off < len; off += kEccSegment) {
    size_t seg = std::min(kEccSegment, len - off);
    auto ecc = EccEncode(data + off, seg);
    out.insert(out.end(), ecc.begin(), ecc.end());
  }
  return out;
}

EccResult EccCheckRegion(uint8_t* data, size_t len, const uint8_t* stored_ecc,
                         size_t stored_len, uint64_t* corrected_bits) {
  EccResult worst = EccResult::kClean;
  size_t seg_idx = 0;
  for (size_t off = 0; off < len; off += kEccSegment, seg_idx++) {
    if ((seg_idx + 1) * kEccBytesPerSegment > stored_len) {
      return EccResult::kUncorrectable;
    }
    size_t seg = std::min(kEccSegment, len - off);
    std::array<uint8_t, 3> stored;
    std::memcpy(stored.data(), stored_ecc + seg_idx * kEccBytesPerSegment, 3);
    EccResult r = EccCheckAndCorrect(data + off, seg, stored);
    if (r == EccResult::kCorrected && corrected_bits) (*corrected_bits)++;
    if (static_cast<int>(r) > static_cast<int>(worst)) worst = r;
  }
  return worst;
}

}  // namespace ipa::flash
