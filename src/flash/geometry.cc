#include "flash/geometry.h"

#include <sstream>

namespace ipa::flash {

const char* CellTypeName(CellType t) {
  switch (t) {
    case CellType::kSlc: return "SLC";
    case CellType::kMlc: return "MLC";
    case CellType::kTlc3d: return "3D-TLC";
  }
  return "?";
}

std::string Geometry::ToString() const {
  std::ostringstream os;
  os << CellTypeName(cell_type) << " flash: " << channels << " channels x "
     << chips_per_channel << " chips x " << blocks_per_chip << " blocks x "
     << pages_per_block << " pages x " << page_size << "B (+" << oob_size
     << "B OOB), " << capacity_bytes() / (1024 * 1024) << " MB";
  return os.str();
}

Geometry EmulatorSlcGeometry(uint64_t capacity_mb) {
  Geometry g;
  g.cell_type = CellType::kSlc;
  g.channels = 4;
  g.chips_per_channel = 4;  // 16 chips, as in the paper's emulator testbed
  g.pages_per_block = 64;
  g.page_size = 4096;
  g.oob_size = 128;
  g.max_programs_per_page = 8;
  g.pe_cycle_limit = 100000;
  uint64_t pages = capacity_mb * 1024 * 1024 / g.page_size;
  uint64_t blocks = pages / g.pages_per_block;
  g.blocks_per_chip = static_cast<uint32_t>(blocks / g.total_chips());
  if (g.blocks_per_chip == 0) g.blocks_per_chip = 1;
  return g;
}

}  // namespace ipa::flash
