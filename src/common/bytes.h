// Little-endian byte encoding helpers for on-page structures.
//
// All on-media integers in this codebase are little-endian, encoded and
// decoded through these helpers so page layouts stay portable and
// alignment-safe (pages are raw byte arrays; direct pointer casts would be UB).

#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

namespace ipa {

static_assert(std::endian::native == std::endian::little,
              "the helpers copy native words as little-endian bytes");

inline void EncodeU16(uint8_t* dst, uint16_t v) { std::memcpy(dst, &v, 2); }
inline void EncodeU32(uint8_t* dst, uint32_t v) { std::memcpy(dst, &v, 4); }
inline void EncodeU64(uint8_t* dst, uint64_t v) { std::memcpy(dst, &v, 8); }

inline uint16_t DecodeU16(const uint8_t* src) {
  uint16_t v;
  std::memcpy(&v, src, 2);
  return v;
}
inline uint32_t DecodeU32(const uint8_t* src) {
  uint32_t v;
  std::memcpy(&v, src, 4);
  return v;
}
inline uint64_t DecodeU64(const uint8_t* src) {
  uint64_t v;
  std::memcpy(&v, src, 8);
  return v;
}

}  // namespace ipa
