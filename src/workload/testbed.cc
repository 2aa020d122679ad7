#include "workload/testbed.h"

#include <algorithm>
#include <cstdlib>

namespace ipa::workload {

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kNoFtl: return "noftl";
    case Backend::kPageFtlGreedy: return "pageftl-greedy";
    case Backend::kPageFtlCostBenefit: return "pageftl-cb";
    case Backend::kStreamFtl: return "streamftl";
  }
  return "?";
}

ftl::GcPolicy PageFtlPolicy(Backend b) {
  switch (b) {
    case Backend::kPageFtlGreedy: return ftl::GcPolicy::kGreedy;
    case Backend::kStreamFtl: return ftl::GcPolicy::kStreamWarmCold;
    default: return ftl::GcPolicy::kCostBenefit;
  }
}

Result<std::unique_ptr<Testbed>> MakeTestbed(const TestbedConfig& config) {
  if (config.db_pages == 0) {
    return Status::InvalidArgument("TestbedConfig.db_pages must be set");
  }
  bool openssd = config.profile != Profile::kEmulatorSlc;
  bool page_ftl = config.backend != Backend::kNoFtl;

  uint64_t logical_pages = static_cast<uint64_t>(
      static_cast<double>(config.db_pages) * config.growth_headroom);

  flash::Geometry g;
  g.page_size = config.page_size;
  g.oob_size = 128;
  if (openssd) {
    g.cell_type = flash::CellType::kMlc;
    g.channels = 1;            // Appendix D: effective parallelism of 1
    g.chips_per_channel = 1;
    g.pages_per_block = 128;
    g.max_programs_per_page = 4;  // MLC: initial + up to 3 appends
    g.pe_cycle_limit = 10000;
  } else {
    g.cell_type = flash::CellType::kSlc;
    g.channels = 4;            // 16 SLC chips, as in the paper's emulator
    g.chips_per_channel = 4;
    g.pages_per_block = 64;
    g.max_programs_per_page = 8;
    g.pe_cycle_limit = 100000;
  }
  // Physical blocks: logical capacity + over-provisioning + GC headroom,
  // doubled again for pSLC (only LSB pages usable).
  // pSLC uses only LSB pages (x2 raw flash per usable page) and gets the
  // unused MSB half as extra spare area (see the RegionConfig note below).
  double pslc_factor = config.profile == Profile::kOpenSsdPSlc ? 2.0 : 1.0;
  double op = config.over_provisioning +
              (config.profile == Profile::kOpenSsdPSlc ? 0.5 : 0.0);
  uint64_t physical_pages = static_cast<uint64_t>(
      static_cast<double>(logical_pages) * (1.0 + op) * pslc_factor * 1.10);
  uint64_t blocks = physical_pages / g.pages_per_block + 8 * g.total_chips();
  g.blocks_per_chip =
      static_cast<uint32_t>(blocks / g.total_chips() + 1);

  auto bed = std::make_unique<Testbed>();
  bed->dev = std::make_unique<flash::FlashArray>(g, flash::TimingFor(g.cell_type));

  engine::EngineConfig ec;
  ec.page_size = config.page_size;
  uint64_t buffer_pages = static_cast<uint64_t>(
      static_cast<double>(config.db_pages) * config.buffer_fraction);
  buffer_pages = std::max(buffer_pages, config.min_buffer_pages);
  ec.buffer_pages = static_cast<uint32_t>(buffer_pages);
  bed->buffer_pages = buffer_pages;
  ec.dirty_flush_threshold = config.dirty_flush_threshold;
  ec.log_reclaim_threshold = config.log_reclaim_threshold;
  ec.log_capacity_bytes = config.log_capacity_bytes;
  ec.record_update_sizes = config.record_update_sizes;
  ec.record_io_trace = config.record_io_trace;

  if (page_ftl) {
    // Cooked-device stack: the engine sees a plain logical block space with
    // no write_delta, so the [NxM] scheme is forced off — that asymmetry is
    // exactly what bench_table12_backend_compare measures.
    ftl::PageFtlConfig pc;
    pc.name = "db";
    pc.logical_pages = logical_pages;
    pc.over_provisioning = config.over_provisioning;
    pc.gc_policy = PageFtlPolicy(config.backend);
    IPA_ASSIGN_OR_RETURN(bed->pageftl, ftl::PageFtl::Create(bed->dev.get(), pc));
    bed->backend = bed->pageftl.get();
    bed->db = std::make_unique<engine::Database>(nullptr, ec,
                                                 &bed->dev->clock());
    auto ts = bed->db->CreateTablespaceOn("db", bed->backend, {});
    IPA_RETURN_NOT_OK(ts.status());
    bed->ts = ts.value();
    return bed;
  }

  bed->noftl = std::make_unique<ftl::NoFtl>(bed->dev.get());

  ftl::RegionConfig rc;
  rc.name = "db";
  rc.logical_pages = logical_pages;
  rc.over_provisioning = config.over_provisioning;
  // pSLC mode claims the whole flash but exposes only LSB pages; the unused
  // MSB half becomes generous spare area (on the Jasmine board the pSLC
  // experiments ran with far more headroom than the 10% baseline OP), which
  // is where much of pSLC's GC advantage in Tables 6/8 comes from.
  if (config.profile == Profile::kOpenSsdPSlc) {
    rc.over_provisioning = config.over_provisioning + 0.5;
  }
  switch (config.profile) {
    case Profile::kEmulatorSlc:
      rc.ipa_mode = config.scheme.enabled() ? ftl::IpaMode::kSlc
                                            : ftl::IpaMode::kOff;
      break;
    case Profile::kOpenSsdPSlc:
      rc.ipa_mode = ftl::IpaMode::kPSlc;
      break;
    case Profile::kOpenSsdOddMlc:
      rc.ipa_mode = ftl::IpaMode::kOddMlc;
      break;
    case Profile::kOpenSsdNoIpa:
      rc.ipa_mode = ftl::IpaMode::kOff;
      break;
  }
  if (!config.scheme.enabled()) rc.ipa_mode = ftl::IpaMode::kOff;
  rc.delta_area_offset = rc.ipa_mode == ftl::IpaMode::kOff
                             ? 0
                             : config.page_size - config.scheme.AreaBytes();
  auto region = bed->noftl->CreateRegion(rc);
  IPA_RETURN_NOT_OK(region.status());
  bed->region = region.value();
  bed->backend = bed->noftl->region_device(bed->region);
  bed->db = std::make_unique<engine::Database>(bed->noftl.get(), ec);

  auto ts = bed->db->CreateTablespace("db", bed->region, config.scheme);
  IPA_RETURN_NOT_OK(ts.status());
  bed->ts = ts.value();
  return bed;
}

Result<std::unique_ptr<ShardedTestbed>> MakeShardedTestbed(
    const ShardedTestbedConfig& config) {
  const TestbedConfig& base = config.base;
  if (base.db_pages == 0) {
    return Status::InvalidArgument("ShardedTestbedConfig.base.db_pages must be set");
  }
  if (base.profile != Profile::kEmulatorSlc || base.backend != Backend::kNoFtl) {
    return Status::InvalidArgument(
        "sharding requires the emulator profile on the NoFTL backend");
  }

  flash::Geometry g;
  g.page_size = base.page_size;
  g.oob_size = 128;
  g.cell_type = flash::CellType::kSlc;
  g.channels = 4;
  g.chips_per_channel = 4;
  g.pages_per_block = 64;
  g.max_programs_per_page = 8;
  g.pe_cycle_limit = 100000;

  uint32_t workers = config.workers;
  if (workers == 0 || g.total_chips() % workers != 0) {
    return Status::InvalidArgument("workers must divide the 16 emulator chips");
  }
  uint32_t chips_per_part = g.total_chips() / workers;

  uint64_t logical_pages = static_cast<uint64_t>(
      static_cast<double>(base.db_pages) * base.growth_headroom);
  uint64_t physical_pages = static_cast<uint64_t>(
      static_cast<double>(logical_pages) * (1.0 + base.over_provisioning) * 1.10);
  uint64_t blocks = physical_pages / g.pages_per_block + 8 * g.total_chips();
  g.blocks_per_chip = static_cast<uint32_t>(blocks / g.total_chips() + 1);

  auto bed = std::make_unique<ShardedTestbed>();
  bed->dev = std::make_unique<flash::FlashArray>(g, flash::TimingFor(g.cell_type));
  bed->noftl = std::make_unique<ftl::NoFtl>(bed->dev.get());

  engine::EngineConfig ec;
  ec.page_size = base.page_size;
  uint64_t part_pages = base.db_pages / workers;
  uint64_t buffer_pages = static_cast<uint64_t>(
      static_cast<double>(part_pages) * base.buffer_fraction);
  buffer_pages = std::max(buffer_pages, base.min_buffer_pages);
  ec.buffer_pages = static_cast<uint32_t>(buffer_pages);
  bed->buffer_pages_per_part = buffer_pages;
  ec.dirty_flush_threshold = base.dirty_flush_threshold;
  ec.log_reclaim_threshold = base.log_reclaim_threshold;
  ec.log_capacity_bytes = base.log_capacity_bytes;
  ec.record_update_sizes = base.record_update_sizes;
  ec.record_io_trace = base.record_io_trace;
  ec.group_commit_ops = config.group_commit_ops;
  ec.group_commit_window_us = config.group_commit_window_us;
  ec.log_force_us = config.log_force_us;

  std::vector<engine::ShardedDatabase::Partition> sparts;
  for (uint32_t p = 0; p < workers; ++p) {
    // Contiguous chip range: with chips numbered channel-major, whole
    // channels land in one partition whenever workers <= channels.
    std::vector<uint32_t> chips;
    for (uint32_t c = 0; c < chips_per_part; ++c) {
      chips.push_back(p * chips_per_part + c);
    }
    flash::FlashLane* lane = bed->dev->CreateLane();
    bed->dev->BindLaneToChips(lane, chips);

    ftl::RegionConfig rc;
    rc.name = "db" + std::to_string(p);
    rc.logical_pages = logical_pages / workers;
    rc.over_provisioning = base.over_provisioning;
    rc.ipa_mode = base.scheme.enabled() ? ftl::IpaMode::kSlc : ftl::IpaMode::kOff;
    rc.delta_area_offset = rc.ipa_mode == ftl::IpaMode::kOff
                               ? 0
                               : base.page_size - base.scheme.AreaBytes();
    rc.chips = chips;
    auto region = bed->noftl->CreateRegion(rc);
    IPA_RETURN_NOT_OK(region.status());

    ShardedTestbed::Part part;
    part.lane = lane;
    part.region = region.value();
    // Each partition's Database measures time on its lane's clock, so
    // worker-local work advances only worker-local time between barriers.
    part.db = std::make_unique<engine::Database>(bed->noftl.get(), ec,
                                                 &lane->clock());
    auto ts = part.db->CreateTablespace("db", part.region, base.scheme);
    IPA_RETURN_NOT_OK(ts.status());
    part.ts = ts.value();
    bed->parts.push_back(std::move(part));
    sparts.push_back({bed->parts.back().db.get(), lane});
  }

  engine::ShardedDatabase::Config sc;
  sc.threaded = config.threaded;
  bed->sharded = std::make_unique<engine::ShardedDatabase>(
      std::move(sparts), bed->dev.get(), sc);
  return bed;
}

double BenchScale() {
  const char* s = std::getenv("IPA_SCALE");
  if (!s) return 1.0;
  double v = std::atof(s);
  return v > 0 ? v : 1.0;
}

double DatasetScale() {
  const char* s = std::getenv("IPA_DATASET");
  if (!s) return 1.0;
  double v = std::atof(s);
  return v > 0 ? v : 1.0;
}

}  // namespace ipa::workload
