// Physical geometry of the emulated NAND flash device.
//
// A device is organized as channels x chips x blocks x pages (Section 3 of
// the paper). Cells on one wordline form one page (SLC) or an LSB/MSB page
// pair (MLC). The erase unit is the block; the program/read unit is the
// page; ISPP can additionally program still-erased regions *within* an
// already programmed page (the property IPA builds on).

#pragma once

#include <cstdint>
#include <string>

namespace ipa::flash {

/// NAND cell technology. Determines LSB/MSB pairing, timing class and wear
/// limits (Section 8.4: ~100k P/E for SLC, ~10k for MLC, ~4k for TLC).
enum class CellType {
  kSlc,
  kMlc,
  kTlc3d,  ///< 3D NAND modeled with MLC-style pairing but negligible interference.
};

const char* CellTypeName(CellType t);

/// Static shape of one emulated flash device.
struct Geometry {
  uint32_t channels = 4;          ///< Independent data buses.
  uint32_t chips_per_channel = 4; ///< Dies per channel (interleaving units).
  uint32_t blocks_per_chip = 256; ///< Erase units per chip.
  uint32_t pages_per_block = 64;  ///< Flash pages per erase unit (32-256 typical).
  uint32_t page_size = 4096;      ///< Data bytes per flash page.
  uint32_t oob_size = 128;        ///< Out-of-band bytes per page (ECC, mapping tag).
  CellType cell_type = CellType::kSlc;
  /// Maximum program operations per page between erases (initial program +
  /// in-place appends). Mirrors the [NxM] scheme's N+1; the paper uses N=2..3
  /// on MLC and higher on SLC.
  uint32_t max_programs_per_page = 8;
  /// P/E cycle endurance per block (wear model).
  uint32_t pe_cycle_limit = 100000;

  uint32_t total_chips() const { return channels * chips_per_channel; }
  uint64_t pages_per_chip() const {
    return static_cast<uint64_t>(blocks_per_chip) * pages_per_block;
  }
  uint64_t total_blocks() const {
    return static_cast<uint64_t>(total_chips()) * blocks_per_chip;
  }
  uint64_t total_pages() const {
    return static_cast<uint64_t>(total_chips()) * pages_per_chip();
  }
  uint64_t capacity_bytes() const { return total_pages() * page_size; }

  std::string ToString() const;
};

/// Physical page address, decomposed. Flat physical page numbers (Ppn) are
/// chip-major: ppn = ((chip * blocks_per_chip) + block) * pages_per_block + page.
struct PageAddress {
  uint32_t chip = 0;
  uint32_t block = 0;   ///< Block index within the chip.
  uint32_t page = 0;    ///< Page index within the block (0-based).

  bool operator==(const PageAddress&) const = default;
};

/// Flat physical page number.
using Ppn = uint64_t;
/// Flat physical block number (chip-major).
using Pbn = uint64_t;

constexpr Ppn kInvalidPpn = ~0ull;

inline Ppn ToPpn(const Geometry& g, const PageAddress& a) {
  return (static_cast<Ppn>(a.chip) * g.blocks_per_chip + a.block) * g.pages_per_block +
         a.page;
}

inline PageAddress FromPpn(const Geometry& g, Ppn ppn) {
  PageAddress a;
  a.page = static_cast<uint32_t>(ppn % g.pages_per_block);
  Ppn rest = ppn / g.pages_per_block;
  a.block = static_cast<uint32_t>(rest % g.blocks_per_chip);
  a.chip = static_cast<uint32_t>(rest / g.blocks_per_chip);
  return a;
}

inline Pbn BlockOf(const Geometry& g, Ppn ppn) { return ppn / g.pages_per_block; }

/// MLC wordline pairing (paper Appendix C, 0-based form): within a block,
/// *even* page indices are LSB pages and *odd* indices are MSB pages; the
/// LSB page on wordline w is page 2w, its MSB partner is page 2w+3 (the
/// staggered assignment that keeps program order interference bounded).
/// On SLC every page is its own wordline and counts as "LSB".
inline bool IsLsbPage(const Geometry& g, uint32_t page_in_block) {
  if (g.cell_type == CellType::kSlc) return true;
  return (page_in_block % 2) == 0;
}

/// Wordline index of a page within its block.
inline uint32_t WordlineOf(const Geometry& g, uint32_t page_in_block) {
  if (g.cell_type == CellType::kSlc) return page_in_block;
  return IsLsbPage(g, page_in_block) ? page_in_block / 2
                                     : (page_in_block >= 3 ? (page_in_block - 3) / 2
                                                           : 0);
}

/// The MSB partner of an LSB page (may exceed the block for the last
/// wordlines; callers must range-check). Returns page_in_block for SLC.
inline uint32_t MsbPartnerOf(const Geometry& g, uint32_t lsb_page_in_block) {
  if (g.cell_type == CellType::kSlc) return lsb_page_in_block;
  return lsb_page_in_block + 3;
}

/// Preset: geometry used for the paper's 16-chip SLC flash emulator runs.
Geometry EmulatorSlcGeometry(uint64_t capacity_mb);

}  // namespace ipa::flash
