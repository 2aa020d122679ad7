#include "workload/testbed.h"

#include <algorithm>
#include <cstdlib>

namespace ipa::workload {

ftl::GcPolicy PageFtlPolicy(Backend b) {
  switch (b) {
    case Backend::kPageFtlGreedy: return ftl::GcPolicy::kGreedy;
    case Backend::kStreamFtl: return ftl::GcPolicy::kStreamWarmCold;
    default: return ftl::GcPolicy::kCostBenefit;
  }
}

Result<std::unique_ptr<Stack>> Build(const StackSpec& spec) {
  if (spec.regions.empty()) {
    return Status::InvalidArgument("stack spec has no regions");
  }
  for (const RegionSpec& r : spec.regions) {
    if (std::holds_alternative<ftl::PageFtlConfig>(r.ftl) &&
        (spec.regions.size() > 1 || spec.lanes)) {
      return Status::InvalidArgument(
          "a page-mapping FTL must be the only region, without lanes");
    }
  }
  const flash::Geometry& g = spec.geometry;
  engine::EngineConfig ec = spec.engine;
  ec.page_size = g.page_size;
  auto s = std::make_unique<Stack>();
  s->dev = std::make_unique<flash::FlashArray>(g, flash::TimingFor(g.cell_type));
  if (std::holds_alternative<ftl::RegionConfig>(spec.regions[0].ftl)) {
    s->noftl = std::make_unique<ftl::NoFtl>(s->dev.get());
  }
  s->buffer_pages = s->buffer_pages_per_part = ec.buffer_pages;

  for (const RegionSpec& r : spec.regions) {
    Stack::Part part;
    if (const auto* pc = std::get_if<ftl::PageFtlConfig>(&r.ftl)) {
      IPA_ASSIGN_OR_RETURN(s->pageftl, ftl::PageFtl::Create(s->dev.get(), *pc));
      part.backend = s->pageftl.get();
    } else {
      ftl::RegionConfig rc = std::get<ftl::RegionConfig>(r.ftl);
      if (spec.lanes) {
        part.lane = s->dev->CreateLane();
        s->dev->BindLaneToChips(part.lane, rc.chips);
      }
      rc.delta_area_offset = rc.ipa_mode == ftl::IpaMode::kOff
                                 ? 0
                                 : g.page_size - r.scheme.AreaBytes();
      IPA_ASSIGN_OR_RETURN(part.region, s->noftl->CreateRegion(rc));
      part.backend = s->noftl->region_device(part.region);
    }
    if (!r.tablespace.empty()) {
      std::unique_ptr<engine::Database>& db = spec.sharded ? part.db : s->db;
      if (!db) {
        SimClock* clock = part.lane ? &part.lane->clock() : &s->dev->clock();
        db = std::make_unique<engine::Database>(s->noftl.get(), ec, clock);
      }
      IPA_ASSIGN_OR_RETURN(
          part.ts, s->noftl ? db->CreateTablespace(r.tablespace, part.region,
                                                   r.scheme)
                            : db->CreateTablespaceOn(r.tablespace,
                                                     part.backend, r.scheme));
      for (const std::string& name : r.tables) {
        IPA_ASSIGN_OR_RETURN(engine::TableId t, db->CreateTable(name, part.ts));
        part.tables.push_back(t);
      }
    }
    s->parts.push_back(std::move(part));
  }

  if (spec.sharded) {
    std::vector<engine::ShardedDatabase::Partition> sparts;
    for (Stack::Part& part : s->parts) sparts.push_back({part.db.get(), part.lane});
    s->sharded = std::make_unique<engine::ShardedDatabase>(
        std::move(sparts), s->dev.get(),
        engine::ShardedDatabase::Config{.threaded = spec.threaded});
  }
  s->backend = s->parts[0].backend;
  s->region = s->parts[0].region;
  s->ts = s->parts[0].ts;
  return s;
}

namespace {

/// Every testbed Database's WAL capacity.
constexpr uint64_t kTestbedLogBytes = 24ull << 20;

/// The engine config of a testbed Database holding `db_pages` data pages.
engine::EngineConfig TestbedEngine(const TestbedConfig& config,
                                   uint64_t db_pages) {
  engine::EngineConfig ec;
  uint64_t buffer_pages = static_cast<uint64_t>(
      static_cast<double>(db_pages) * config.buffer_fraction);
  ec.buffer_pages =
      static_cast<uint32_t>(std::max(buffer_pages, config.min_buffer_pages));
  ec.dirty_flush_threshold = config.dirty_flush_threshold;
  ec.log_reclaim_threshold = config.log_reclaim_threshold;
  ec.log_capacity_bytes = kTestbedLogBytes;
  ec.record_update_sizes = config.record_update_sizes;
  ec.record_io_trace = config.record_io_trace;
  return ec;
}

}  // namespace

StackSpec TestbedSpec(const TestbedConfig& config) {
  bool openssd = config.profile != Profile::kEmulatorSlc;
  bool pslc = config.profile == Profile::kOpenSsdPSlc;
  uint64_t logical_pages = static_cast<uint64_t>(
      static_cast<double>(config.db_pages) * config.growth_headroom);

  StackSpec spec;
  flash::Geometry& g = spec.geometry;
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
  // Physical blocks: logical capacity + over-provisioning + GC headroom.
  // pSLC uses only LSB pages (x2 raw flash per usable page) and gets the
  // unused MSB half as extra spare area (see the region note below).
  double pslc_factor = pslc ? 2.0 : 1.0;
  double op = config.over_provisioning + (pslc ? 0.5 : 0.0);
  uint64_t physical_pages = static_cast<uint64_t>(
      static_cast<double>(logical_pages) * (1.0 + op) * pslc_factor * 1.10);
  uint64_t blocks = physical_pages / g.pages_per_block + 8 * g.total_chips();
  g.blocks_per_chip =
      static_cast<uint32_t>(blocks / g.total_chips() + 1);

  spec.engine = TestbedEngine(config, config.db_pages);

  RegionSpec region{.tablespace = "db", .scheme = config.scheme};
  if (config.backend != Backend::kNoFtl) {
    // Cooked-device stack: the engine sees a plain logical block space with
    // no write_delta, so the [NxM] scheme is forced off — that asymmetry is
    // exactly what bench_table12_backend_compare measures.
    region.ftl = ftl::PageFtlConfig{.name = "db",
                                    .logical_pages = logical_pages,
                                    .over_provisioning = config.over_provisioning,
                                    .gc_policy = PageFtlPolicy(config.backend)};
    region.scheme = {};
    spec.regions.push_back(std::move(region));
    return spec;
  }

  // pSLC mode claims the whole flash but exposes only LSB pages; the unused
  // MSB half becomes generous spare area (on the Jasmine board the pSLC
  // experiments ran with far more headroom than the 10% baseline OP), which
  // is where much of pSLC's GC advantage in Tables 6/8 comes from.
  ftl::RegionConfig rc{.name = "db",
                       .logical_pages = logical_pages,
                       .over_provisioning = op};
  switch (config.profile) {
    case Profile::kEmulatorSlc: rc.ipa_mode = ftl::IpaMode::kSlc; break;
    case Profile::kOpenSsdPSlc: rc.ipa_mode = ftl::IpaMode::kPSlc; break;
    case Profile::kOpenSsdOddMlc: rc.ipa_mode = ftl::IpaMode::kOddMlc; break;
    case Profile::kOpenSsdNoIpa: rc.ipa_mode = ftl::IpaMode::kOff; break;
  }
  if (!config.scheme.enabled()) rc.ipa_mode = ftl::IpaMode::kOff;
  region.ftl = rc;
  spec.regions.push_back(std::move(region));
  return spec;
}

StackSpec ShardedSpec(const ShardedTestbedConfig& config) {
  const TestbedConfig& base = config.base;
  StackSpec spec = TestbedSpec(base);
  uint32_t workers = config.workers;
  uint32_t chips = spec.geometry.total_chips();
  if (base.profile != Profile::kEmulatorSlc ||
      base.backend != Backend::kNoFtl || workers == 0 ||
      chips % workers != 0) {
    return {};
  }
  spec.engine = TestbedEngine(base, base.db_pages / workers);
  spec.engine.group_commit_ops = config.group_commit_ops;
  spec.engine.group_commit_window_us = config.group_commit_window_us;
  spec.engine.log_force_us = config.log_force_us;
  spec.sharded = true;
  spec.lanes = true;
  spec.threaded = config.threaded;

  const RegionSpec whole = std::move(spec.regions[0]);
  const auto& whole_rc = std::get<ftl::RegionConfig>(whole.ftl);
  spec.regions.clear();
  for (uint32_t p = 0; p < workers; ++p) {
    RegionSpec part = whole;
    auto& rc = std::get<ftl::RegionConfig>(part.ftl);
    rc.name = "db" + std::to_string(p);
    rc.logical_pages = whole_rc.logical_pages / workers;
    // Contiguous chip range: with chips numbered channel-major, whole
    // channels land in one partition whenever workers <= channels.
    for (uint32_t c = 0; c < chips / workers; ++c) {
      rc.chips.push_back(p * (chips / workers) + c);
    }
    spec.regions.push_back(std::move(part));
  }
  return spec;
}

StackSpec SmallSpec(flash::CellType cell) {
  StackSpec spec;
  spec.geometry.channels = 2;
  spec.geometry.chips_per_channel = 2;
  spec.geometry.blocks_per_chip = 48;
  spec.geometry.pages_per_block = 16;
  spec.geometry.page_size = 2048;
  spec.geometry.cell_type = cell;
  spec.engine.buffer_pages = 12;
  spec.engine.log_capacity_bytes = 1 << 20;
  return spec;
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
