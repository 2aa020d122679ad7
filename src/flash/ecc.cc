#include "flash/ecc.h"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

/// The three ECC bytes of a segment whose set bits' addresses XOR to `z`
/// and whose set-bit count has parity `n` (see EccEncode). Spread is linear,
/// so Spread(z ^ 0x7FF) is Spread(z) with every even bit flipped; the flip
/// is masked in rather than branched on, since n is a coin toss on real
/// data.
inline void PutCode(uint32_t z, uint32_t n, uint8_t* out) {
  uint32_t spread = Spread(z);
  uint32_t code = spread << 1 | (spread ^ (0x155555u & (0u - n)));
  out[0] = static_cast<uint8_t>(code >> 6);
  out[1] = static_cast<uint8_t>(code >> 14);
  out[2] = static_cast<uint8_t>((code & 0x3F) | 0xC0);  // top two bits fixed to 1
}

using RegionKernel = void (*)(const uint8_t*, size_t, uint8_t*);

#if defined(__x86_64__)
#define IPA_AVX2 __attribute__((target("avx2")))

/// A vpshufb table, f(n) for each nibble value n, in both 128-bit halves.
template <typename F>
constexpr std::array<uint8_t, 32> NibbleTable(F f) {
  std::array<uint8_t, 32> t{};
  for (uint32_t n = 0; n < 32; n++) t[n] = static_cast<uint8_t>(f(n % 16));
  return t;
}
constexpr uint32_t NibbleParity(uint32_t n) { return std::popcount(n) & 1; }
constexpr uint32_t NibbleAddressXor(uint32_t n) {
  uint32_t x = 0;
  for (uint32_t i = 0; i < 4; i++) x ^= (n >> i & 1) * i;
  return x;
}
/// For a byte's low and high nibble: the XOR of the in-byte addresses of
/// its set bits in bits 0-2, their count's parity in bit 3. A set bit of
/// the high nibble adds 4 to its address.
constexpr auto kLowNibbleSummary =
    NibbleTable([](uint32_t n) { return NibbleAddressXor(n) | NibbleParity(n) << 3; });
constexpr auto kHighNibbleSummary = NibbleTable([](uint32_t n) {
  return NibbleAddressXor(n) | NibbleParity(n) << 2 | NibbleParity(n) << 3;
});
constexpr auto kNibbleParity = NibbleTable(NibbleParity);

IPA_AVX2 inline __m256i Table(const std::array<uint8_t, 32>& t) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t.data()));
}
IPA_AVX2 inline __m256i Splat(uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

/// Lane s of the result is the XOR of the four lanes of the s-th argument.
IPA_AVX2 inline __m256i XorLanesOfEach(__m256i a, __m256i b, __m256i c, __m256i d) {
  __m256i ab = _mm256_xor_si256(_mm256_unpacklo_epi64(a, b), _mm256_unpackhi_epi64(a, b));
  __m256i cd = _mm256_xor_si256(_mm256_unpacklo_epi64(c, d), _mm256_unpackhi_epi64(c, d));
  return _mm256_xor_si256(_mm256_permute2x128_si256(ab, cd, 0x20),
                          _mm256_permute2x128_si256(ab, cd, 0x31));
}

/// The parity of each byte of `v`, as 0 or 1.
IPA_AVX2 inline __m256i ByteParity(__m256i v) {
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  const __m256i table = Table(kNibbleParity);
  return _mm256_xor_si256(
      _mm256_shuffle_epi8(table, _mm256_and_si256(v, nibble)),
      _mm256_shuffle_epi8(table, _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble)));
}

/// The XORs of a segment's words that CodesOfFour reduces. Word w of the
/// segment is lane w % 4 of its vector w / 4: `all` XORs the eight vectors,
/// `odd`, `bit3` and `bit4` the vectors whose index has bit 0, 1 or 2 set.
struct SegmentXors {
  __m256i all, odd, bit3, bit4;
};

IPA_AVX2 inline SegmentXors XorsOf(const __m256i v[8]) {
  __m256i v01 = _mm256_xor_si256(v[0], v[1]), v23 = _mm256_xor_si256(v[2], v[3]);
  __m256i v45 = _mm256_xor_si256(v[4], v[5]), v67 = _mm256_xor_si256(v[6], v[7]);
  SegmentXors x;
  x.odd = _mm256_xor_si256(_mm256_xor_si256(v[1], v[3]), _mm256_xor_si256(v[5], v[7]));
  x.bit3 = _mm256_xor_si256(v23, v67);
  x.bit4 = _mm256_xor_si256(v45, v67);
  x.all = _mm256_xor_si256(_mm256_xor_si256(v01, v23), x.bit4);
  return x;
}

IPA_AVX2 inline SegmentXors XorsOfSegment(const uint8_t* seg) {
  __m256i v[8];
  for (int i = 0; i < 8; i++) {
    v[i] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(seg) + i);
  }
  return XorsOf(v);
}

/// XorsOfSegment of a `len`-byte segment, zero-padded to 256 bytes. Only the
/// vector that straddles the end goes through a copy.
IPA_AVX2 inline SegmentXors XorsOfShortSegment(const uint8_t* seg, size_t len) {
  __m256i v[8];
  size_t whole = len / 32;
  for (size_t i = 0; i < 8; i++) {
    v[i] = i < whole ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(seg) + i)
                     : _mm256_setzero_si256();
  }
  if (len % 32 != 0) {
    alignas(32) uint8_t tail[32] = {};
    std::memcpy(tail, seg + 32 * whole, len % 32);
    v[whole] = _mm256_load_si256(reinterpret_cast<const __m256i*>(tail));
  }
  return XorsOf(v);
}

/// The 12 code bytes of four segments, in order, from their XORs; lane s of
/// every vector below belongs to segment s.
///
/// Segment algebra (see EccEncode for z and n): address bit 6 + k of a set
/// bit is bit k of its word's index, so z's bit 6 + k is the parity of g_k,
/// the XOR of the words whose index has bit k set: lanes 1 and 3 of `all`
/// for k = 0, lanes 2 and 3 for k = 1, and `odd`, `bit3`, `bit4` for
/// k = 2..4. z's bits 0-5, the in-word address, and n come from x, the XOR
/// of all 32 words: per byte of x, nibble tables give the XOR of its set
/// bits' in-byte addresses and their parity, and three folds over the bytes
/// add the byte address.
[[gnu::always_inline]] IPA_AVX2 inline void CodesOfFour(const SegmentXors xs[4],
                                                        uint8_t* out) {
  // Transpose `all`: lane s of t_l is lane l of xs[s].all.
  __m256i lo01 = _mm256_unpacklo_epi64(xs[0].all, xs[1].all);
  __m256i hi01 = _mm256_unpackhi_epi64(xs[0].all, xs[1].all);
  __m256i lo23 = _mm256_unpacklo_epi64(xs[2].all, xs[3].all);
  __m256i hi23 = _mm256_unpackhi_epi64(xs[2].all, xs[3].all);
  __m256i t0 = _mm256_permute2x128_si256(lo01, lo23, 0x20);
  __m256i t2 = _mm256_permute2x128_si256(lo01, lo23, 0x31);
  __m256i t1 = _mm256_permute2x128_si256(hi01, hi23, 0x20);
  __m256i t3 = _mm256_permute2x128_si256(hi01, hi23, 0x31);
  const __m256i g[5] = {
      _mm256_xor_si256(t1, t3), _mm256_xor_si256(t2, t3),
      XorLanesOfEach(xs[0].odd, xs[1].odd, xs[2].odd, xs[3].odd),
      XorLanesOfEach(xs[0].bit3, xs[1].bit3, xs[2].bit3, xs[3].bit3),
      XorLanesOfEach(xs[0].bit4, xs[1].bit4, xs[2].bit4, xs[3].bit4)};
  __m256i x = _mm256_xor_si256(_mm256_xor_si256(t0, t2), g[0]);

  // Bit k of each byte of `parities` is that byte's parity in g_k; folding
  // the bytes leaves each g_k's parity in bit k.
  __m256i parities = ByteParity(g[0]);
  for (int k = 1; k < 5; k++) {
    parities = _mm256_xor_si256(parities, _mm256_slli_epi16(ByteParity(g[k]), k));
  }
  for (int shift = 32; shift >= 8; shift /= 2) {
    parities = _mm256_xor_si256(parities, _mm256_srli_epi64(parities, shift));
  }

  // Per byte of x: in-byte address XOR in bits 0-2, parity in bit 3. Each
  // fold XORs pairs of byte groups and appends the upper group's parity as
  // the next address bit: z3, z4, z5 land in bits 4, 5, 6.
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  __m256i sum = _mm256_xor_si256(
      _mm256_shuffle_epi8(Table(kLowNibbleSummary), _mm256_and_si256(x, nibble)),
      _mm256_shuffle_epi8(Table(kHighNibbleSummary),
                          _mm256_and_si256(_mm256_srli_epi16(x, 4), nibble)));
  for (int shift = 8, bits = 4; shift <= 32; shift *= 2, bits++) {
    __m256i upper = _mm256_srli_epi64(sum, shift);
    uint64_t per_group = 0;  // bit 0 of each group of 2 * shift bits
    for (int b = 0; b < 64; b += 2 * shift) per_group |= uint64_t{1} << b;
    sum = _mm256_or_si256(
        _mm256_and_si256(_mm256_xor_si256(sum, upper),
                         Splat(per_group * ((uint64_t{1} << bits) - 1))),
        _mm256_slli_epi64(_mm256_and_si256(upper, Splat(per_group << 3)), bits - 3));
  }
  __m256i n = _mm256_and_si256(_mm256_srli_epi64(sum, 3), Splat(1));
  __m256i z = _mm256_or_si256(
      _mm256_or_si256(_mm256_and_si256(sum, Splat(0x7)),
                      _mm256_and_si256(_mm256_srli_epi64(sum, 1), Splat(0x38))),
      _mm256_slli_epi64(_mm256_and_si256(parities, Splat(0x1F)), 6));

  // PutCode, per lane.
  __m256i spread = z;
  spread = _mm256_and_si256(_mm256_or_si256(spread, _mm256_slli_epi64(spread, 8)),
                            Splat(0x00FF00FF));
  spread = _mm256_and_si256(_mm256_or_si256(spread, _mm256_slli_epi64(spread, 4)),
                            Splat(0x0F0F0F0F));
  spread = _mm256_and_si256(_mm256_or_si256(spread, _mm256_slli_epi64(spread, 2)),
                            Splat(0x33333333));
  spread = _mm256_and_si256(_mm256_or_si256(spread, _mm256_slli_epi64(spread, 1)),
                            Splat(0x55555555));
  __m256i flip = _mm256_and_si256(_mm256_sub_epi64(_mm256_setzero_si256(), n),
                                  Splat(0x155555));
  __m256i code = _mm256_or_si256(_mm256_slli_epi64(spread, 1),
                                 _mm256_xor_si256(spread, flip));
  // Bytes code >> 6, code >> 14, (code & 0x3F) | 0xC0 in the low three bytes
  // of each lane, then packed to 12 bytes.
  __m256i bytes = _mm256_or_si256(
      _mm256_and_si256(_mm256_srli_epi64(code, 6), Splat(0xFFFF)),
      _mm256_slli_epi64(_mm256_or_si256(_mm256_and_si256(code, Splat(0x3F)), Splat(0xC0)),
                        16));
  __m128i dwords = _mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(bytes, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0)));
  __m128i packed = _mm_shuffle_epi8(
      dwords, _mm_setr_epi8(0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, -1, -1, -1, -1));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(out), packed);
  auto last = static_cast<uint32_t>(_mm_extract_epi32(packed, 2));
  std::memcpy(out + 8, &last, 4);
}

IPA_AVX2 void EncodeRegionAvx2(const uint8_t* data, size_t len, uint8_t* out) {
  constexpr size_t kFour = 4 * kEccSegment;
  for (; len >= kFour; data += kFour, len -= kFour, out += 4 * kEccBytesPerSegment) {
    const SegmentXors xs[4] = {
        XorsOfSegment(data), XorsOfSegment(data + kEccSegment),
        XorsOfSegment(data + 2 * kEccSegment), XorsOfSegment(data + 3 * kEccSegment)};
    CodesOfFour(xs, out);
  }
  if (len == 0) return;
  // One to four segments remain, the last maybe short; the codes of the
  // all-zero fillers are dropped.
  const __m256i zero = _mm256_setzero_si256();
  SegmentXors xs[4] = {{zero, zero, zero, zero}, {zero, zero, zero, zero},
                       {zero, zero, zero, zero}, {zero, zero, zero, zero}};
  size_t count = 0;
  for (; len > 0; count++) {
    size_t seg = std::min(len, kEccSegment);
    xs[count] = seg == kEccSegment ? XorsOfSegment(data) : XorsOfShortSegment(data, seg);
    data += seg;
    len -= seg;
  }
  uint8_t codes[4 * kEccBytesPerSegment];
  CodesOfFour(xs, codes);
  std::memcpy(out, codes, count * kEccBytesPerSegment);
}
#undef IPA_AVX2
#endif

RegionKernel ChooseKernel() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return EncodeRegionAvx2;
#endif
  return EccEncodeRegionPortable;
}

/// Check and correct one segment at a time; a segment without stored ECC
/// ends the check as kUncorrectable.
EccResult CheckBySegment(uint8_t* data, size_t len, const uint8_t* stored_ecc,
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

// EccCheckRegion's loop. It encodes up to 64 segments at a time into stack
// storage. A clean run matches its stored bytes exactly; a mismatch, in the
// code bits or in the two fixed bits the check ignores, is checked segment
// by segment. `data` is only read until the first mismatch; `writable()`
// then gives the bytes to repair (the same bytes, perhaps in a new copy),
// which the rest of the check reads.
template <class Writable>
EccResult CheckRuns(const uint8_t* data, size_t len, const uint8_t* stored_ecc,
                    size_t stored_len, uint64_t* corrected_bits, Writable writable) {
  if (stored_len < EccRegionBytes(len)) {
    return CheckBySegment(writable(), len, stored_ecc, stored_len, corrected_bits);
  }
  constexpr size_t kRunSegments = 64;
  uint8_t ecc[kRunSegments * kEccBytesPerSegment];
  uint8_t* repair = nullptr;
  EccResult worst = EccResult::kClean;
  for (size_t off = 0; off < len; off += kRunSegments * kEccSegment) {
    size_t run = std::min(kRunSegments * kEccSegment, len - off);
    size_t run_ecc = EccRegionBytes(run);
    const uint8_t* stored = stored_ecc + off / kEccSegment * kEccBytesPerSegment;
    EccEncodeRegion((repair ? repair : data) + off, run, ecc);
    if (std::memcmp(ecc, stored, run_ecc) == 0) continue;
    if (!repair) repair = writable();
    EccResult r = CheckBySegment(repair + off, run, stored, run_ecc, corrected_bits);
    if (static_cast<int>(r) > static_cast<int>(worst)) worst = r;
  }
  return worst;
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
  std::array<uint8_t, kEccBytesPerSegment> ecc;
  PutCode(z, static_cast<uint32_t>(x), ecc.data());
  return ecc;
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

void EccEncodeRegionPortable(const uint8_t* data, size_t len, uint8_t* out) {
  for (size_t off = 0; off < len; off += kEccSegment, out += kEccBytesPerSegment) {
    auto ecc = EccEncode(data + off, std::min(kEccSegment, len - off));
    std::memcpy(out, ecc.data(), kEccBytesPerSegment);
  }
}

void EccEncodeRegion(const uint8_t* data, size_t len, uint8_t* out) {
  static const RegionKernel kernel = ChooseKernel();
  kernel(data, len, out);
}

std::vector<uint8_t> EccEncodeRegion(const uint8_t* data, size_t len) {
  std::vector<uint8_t> out(EccRegionBytes(len));
  EccEncodeRegion(data, len, out.data());
  return out;
}

EccResult EccCheckRegion(uint8_t* data, size_t len, const uint8_t* stored_ecc,
                         size_t stored_len, uint64_t* corrected_bits) {
  return CheckRuns(data, len, stored_ecc, stored_len, corrected_bits,
                   [data] { return data; });
}

EccResult EccCheckRegion(PageImage* image, PageImagePool& pool, size_t offset,
                         size_t len, const uint8_t* stored_ecc, size_t stored_len,
                         uint64_t* corrected_bits) {
  return CheckRuns(image->data() + offset, len, stored_ecc, stored_len, corrected_bits,
                   [&] { return image->MakeWritable(pool) + offset; });
}

}  // namespace ipa::flash
