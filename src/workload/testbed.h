// Stack assembly: one StackSpec value describes a device + FTL + engine
// stack, and Build() assembles it. The testbeds of the benchmarks, examples,
// tools and integration tests (Section 8.1), the ipa_fuzz schedules and the
// crash sweep's stack all come from Build.
//
// TestbedSpec models two hardware profiles:
//  * kEmulatorSlc  — the paper's real-time flash emulator: 16 SLC chips on 4
//    channels, 10% over-provisioning, page-level mapping;
//  * kOpenSsdPSlc / kOpenSsdOddMlc — the OpenSSD Jasmine board: MLC flash,
//    effective host parallelism of one request (no NCQ), small DB buffer;
//    IPA in pSLC or odd-MLC mode (Appendix D).

#pragma once

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "engine/database.h"
#include "engine/sharded_database.h"
#include "flash/submit_queue.h"
#include "ftl/page_ftl.h"
#include "workload/workload.h"

namespace ipa::workload {

enum class Profile {
  kEmulatorSlc,
  kOpenSsdPSlc,
  kOpenSsdOddMlc,
  kOpenSsdNoIpa,  ///< OpenSSD baseline [0x0] (MLC, no IPA).
};

/// Which FTL stack backs the tablespace (docs/FTL_BACKENDS.md).
enum class Backend {
  kNoFtl,              ///< DBMS-managed region; IPA per the profile/scheme.
  kPageFtlGreedy,      ///< Conventional page-mapping FTL, greedy GC.
  kPageFtlCostBenefit, ///< Conventional page-mapping FTL, cost-benefit GC.
  kStreamFtl,          ///< Stream-aware page-mapping FTL, warm/cold GC.
};

/// GC policy of a page-mapping backend (any Backend but kNoFtl).
ftl::GcPolicy PageFtlPolicy(Backend b);

struct TestbedConfig {
  Profile profile = Profile::kEmulatorSlc;
  /// Page-FTL backends force scheme = {} (a cooked device cannot take
  /// in-place appends) and ignore IPA-specific profile settings.
  Backend backend = Backend::kNoFtl;
  uint32_t page_size = 4096;
  /// The [NxM] scheme; {} ([0x0]) disables IPA.
  storage::Scheme scheme = {};
  /// Number of data pages the workload's initial database occupies
  /// (Workload::EstimatedPages); sizes the region and the buffer.
  uint64_t db_pages = 0;
  /// Buffer pool size as a fraction of db_pages (the paper's "Buffer X%").
  double buffer_fraction = 0.5;
  /// Extra logical capacity for growth (append-heavy tables).
  double growth_headroom = 2.0;
  double over_provisioning = 0.10;
  /// Shore-MT policies: eager (0.125 / 0.375) vs non-eager (0.75 / 1.0).
  double dirty_flush_threshold = 0.125;
  double log_reclaim_threshold = 0.375;
  bool record_update_sizes = false;
  bool record_io_trace = false;
  uint64_t min_buffer_pages = 64;
};

/// One region of a stack, with the tablespace it backs.
struct RegionSpec {
  /// A NoFTL region, or a page-mapping FTL (then the stack's only region).
  /// Build derives a NoFTL region's delta_area_offset from `scheme`.
  std::variant<ftl::RegionConfig, ftl::PageFtlConfig> ftl;
  /// Empty: a bare region, with no tablespace and no tables.
  std::string tablespace;
  storage::Scheme scheme;
  std::vector<std::string> tables;  ///< Created in this order.
};

/// A whole simulated stack as one value: flash array, regions, tablespaces,
/// tables and engine config. Build() assembles it.
struct StackSpec {
  /// The device; its timing is flash::TimingFor(geometry.cell_type).
  flash::Geometry geometry;
  std::vector<RegionSpec> regions;
  /// Every Database of the stack runs this config; Build sets its page_size
  /// to the geometry's.
  engine::EngineConfig engine;
  /// false: one Database holds every tablespace. true: each region gets its
  /// own Database, composed behind an engine::ShardedDatabase.
  bool sharded = false;
  /// Sharded stacks: each partition runs on a FlashLane bound to its
  /// region's chips, and its Database measures time on the lane's clock.
  bool lanes = false;
  /// Sharded stacks: drive partitions from real threads
  /// (engine::ShardedDatabase::Config).
  bool threaded = false;
};

/// A built stack; it owns every layer. Members are declared bottom-up, so
/// the engine dies before the FTLs and the FTLs before the device.
struct Stack {
  /// One RegionSpec, built.
  struct Part {
    flash::FlashLane* lane = nullptr;      ///< Lane stacks only; owned by `dev`.
    std::unique_ptr<engine::Database> db;  ///< Sharded stacks only.
    ftl::RegionId region = 0;              ///< NoFTL regions only.
    ftl::FtlBackend* backend = nullptr;
    engine::TablespaceId ts = 0;
    std::vector<engine::TableId> tables;
  };

  std::unique_ptr<flash::FlashArray> dev;
  std::unique_ptr<ftl::NoFtl> noftl;      ///< Stacks of NoFTL regions.
  std::unique_ptr<ftl::PageFtl> pageftl;  ///< Page-mapping stacks only.
  std::unique_ptr<engine::Database> db;   ///< Unsharded stacks only.
  std::vector<Part> parts;
  std::unique_ptr<engine::ShardedDatabase> sharded;  ///< Sharded stacks only.
  /// The first part's backend, region and tablespace.
  ftl::FtlBackend* backend = nullptr;
  ftl::RegionId region = 0;
  engine::TablespaceId ts = 0;
  /// Frames of each Database's buffer pool; buffer_pages_per_part holds the
  /// same number under the sharded testbed's name.
  uint64_t buffer_pages = 0;
  uint64_t buffer_pages_per_part = 0;

  /// The device clock (for sharded stacks, authoritative only at epoch
  /// barriers).
  SimClock& clock() { return dev->clock(); }
  TablespaceMap ts_map() const { return SingleTablespace(ts); }
  const ftl::RegionStats& backend_stats() const { return backend->stats(); }
  void ResetBackendStats() { backend->ResetStats(); }
  const ftl::RegionStats& region_stats(uint32_t p) const {
    return noftl->region_stats(parts[p].region);
  }
};

/// Assemble `spec`: the device, then region by region its FlashLane, FTL,
/// Database, tablespace and tables, then the ShardedDatabase. Region order
/// fixes the blocks each region claims, and with them the GC victim
/// tie-breaks.
Result<std::unique_ptr<Stack>> Build(const StackSpec& spec);

/// The table benches' testbed: one region, tablespace "db", no tables.
StackSpec TestbedSpec(const TestbedConfig& config);

/// Shared-nothing testbed (docs/SHARDING.md): ONE emulator-profile flash
/// array whose 16 chips are split into `workers` contiguous ranges, each
/// backing its own NoFTL region, FlashLane and Database (private WAL, buffer
/// pool, lock manager), composed behind an engine::ShardedDatabase.
/// workers=1 reproduces the unsharded testbed's behavior bit for bit.
struct ShardedTestbedConfig {
  /// Partition / worker count; must divide the emulator's 16 chips.
  uint32_t workers = 1;
  /// Drive partitions from real threads (engine::ShardedDatabase::Config).
  /// Requires error injection off and no armed PowerLossPolicy.
  bool threaded = false;
  /// Base stack parameters. Only Profile::kEmulatorSlc with Backend::kNoFtl
  /// is shardable (the OpenSSD profiles model a host parallelism of one).
  /// db_pages counts the WHOLE database; each partition gets 1/workers.
  TestbedConfig base;
  /// Per-partition group commit (EngineConfig fields of the same names).
  uint32_t group_commit_ops = 1;
  uint64_t group_commit_window_us = 0;
  uint64_t log_force_us = 0;
};

/// A config that cannot shard yields a spec without regions, which Build
/// rejects.
StackSpec ShardedSpec(const ShardedTestbedConfig& config);

/// The small stack the oracles run on (the ipa_fuzz schedules, crash_sweep
/// and their tests): 2x2 chips of 48 blocks x 16 pages of 2 KiB, and a
/// 12-page buffer pool (constant steal under any workload) with a 1 MiB log.
/// No regions yet.
StackSpec SmallSpec(flash::CellType cell = flash::CellType::kSlc);

using Testbed = Stack;
using ShardedTestbed = Stack;

inline Result<std::unique_ptr<Testbed>> MakeTestbed(const TestbedConfig& c) {
  return Build(TestbedSpec(c));
}
inline Result<std::unique_ptr<ShardedTestbed>> MakeShardedTestbed(
    const ShardedTestbedConfig& c) {
  return Build(ShardedSpec(c));
}

/// Scale factor for benchmark sizes: the IPA_SCALE environment variable
/// (default 1.0) multiplies workload row counts and transaction counts.
double BenchScale();

/// Dataset multiplier, independent of IPA_SCALE: the IPA_DATASET environment
/// variable (default 1.0) multiplies workload *dataset* sizes only, while
/// the buffer pool stays sized for the unmultiplied dataset — IPA_DATASET=8
/// makes the heap ~8x the buffer pool, the larger-than-RAM regime where
/// eviction, scrub and GC run under memory pressure. Composes with
/// RunConfig::dataset_multiplier in the bench harness.
double DatasetScale();

}  // namespace ipa::workload
