// Wear-aware frontier promotion shared by the block managers (NoFtl regions
// and PageFtl): a new write frontier on a chip takes that chip's least-worn
// free block.

#pragma once

#include <cstdint>
#include <vector>

#include "flash/flash_array.h"

namespace ipa::ftl {

/// Position in `free_blocks` (indices into `blocks`, whose elements carry a
/// `pbn`) of the least-worn free block on `chip`; ties keep the earliest
/// listed. -1 when the chip has none, or when a host allocation
/// (`for_gc` false) would take the last free block, which stays reserved for
/// GC migrations.
template <typename BlockInfo>
int PromotableFreeBlock(const flash::FlashArray& device,
                        const std::vector<BlockInfo>& blocks,
                        const std::vector<uint32_t>& free_blocks,
                        uint32_t chip, bool for_gc) {
  if (!for_gc && free_blocks.size() <= 1) return -1;
  const uint32_t blocks_per_chip = device.geometry().blocks_per_chip;
  int best = -1;
  uint32_t best_wear = UINT32_MAX;
  for (size_t i = 0; i < free_blocks.size(); i++) {
    flash::Pbn pbn = blocks[free_blocks[i]].pbn;
    if (pbn / blocks_per_chip != chip) continue;
    uint32_t wear = device.EraseCount(pbn);
    if (wear < best_wear) {
      best_wear = wear;
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace ipa::ftl
