#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace ipa {

namespace {
constexpr uint32_t kPoly = 0x82F63B78u;  // CRC32-C reflected polynomial

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int k = 0; k < 8; k++) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

using Kernel = uint32_t (*)(const uint8_t*, size_t, uint32_t);

#if defined(__x86_64__)
// The crc32 instruction folds whole little-endian words in the reflected
// bit order the table loop uses, so it returns the same value.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const uint8_t* data, size_t len,
                                                         uint32_t seed) {
  uint64_t crc = ~seed;
  for (; len >= 8; data += 8, len -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; len > 0; data++, len--) crc32 = _mm_crc32_u8(crc32, *data);
  return ~crc32;
}
#endif

Kernel ChooseKernel() {
#if defined(__x86_64__)
  // Crc32c may run before constructors do (static initialisers elsewhere),
  // so initialise the CPU model before asking it.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return Crc32cPortable;
}
}  // namespace

uint32_t Crc32cPortable(const uint8_t* data, size_t len, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; i++) {
    crc = kTable[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(const uint8_t* data, size_t len, uint32_t seed) {
  static const Kernel kernel = ChooseKernel();
  return kernel(data, len, seed);
}

}  // namespace ipa
