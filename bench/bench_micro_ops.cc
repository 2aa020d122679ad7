// Micro-benchmarks (google-benchmark) for the core operations on the IPA
// hot paths: page diffing, delta-record encode/apply, slotted-page ops,
// ECC, CRC32C, emulated flash commands, B+tree point operations and the
// serving load generator's value fill.

#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "common/crc32.h"
#include "common/random.h"
#include "core/write_policy.h"
#include "engine/btree.h"
#include "flash/ecc.h"
#include "flash/flash_array.h"
#include "net/loadgen.h"
#include "storage/delta_record.h"
#include "storage/slotted_page.h"
#include "workload/testbed.h"

namespace ipa {
namespace {

constexpr uint32_t kPageSize = 4096;

std::vector<uint8_t> PreparedPage(storage::Scheme s) {
  std::vector<uint8_t> buf(kPageSize);
  storage::SlottedPage page(buf.data(), kPageSize);
  page.Initialize(1, 1, s);
  std::vector<uint8_t> tuple(100, 0x20);
  while (page.HasRoomFor(100)) (void)page.Insert(tuple);
  return buf;
}

void BM_PageDiff_SmallChange(benchmark::State& state) {
  auto base = PreparedPage({.n = 2, .m = 3, .v = 12});
  auto cur = base;
  storage::SlottedPage page(cur.data(), kPageSize);
  uint8_t v = 0x42;
  (void)page.UpdateInPlace(3, 8, {&v, 1});
  for (auto _ : state) {
    auto diff = storage::DiffPages(base.data(), cur.data(), kPageSize, 16, 16);
    benchmark::DoNotOptimize(diff);
  }
}
BENCHMARK(BM_PageDiff_SmallChange);

// Guard benchmarks for the word-wise DiffPages scan: a clean page, a
// sparse-dirty page (the dominant flush shape per Table 1) and a dense-dirty
// page diffed exactly (the record_update_sizes path).

void BM_PageDiff_Clean(benchmark::State& state) {
  auto base = PreparedPage({.n = 2, .m = 3, .v = 12});
  auto cur = base;
  for (auto _ : state) {
    auto diff = storage::DiffPages(base.data(), cur.data(), kPageSize, 16, 16);
    benchmark::DoNotOptimize(diff);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_PageDiff_Clean);

void BM_PageDiff_SparseDirty(benchmark::State& state) {
  auto base = PreparedPage({.n = 4, .m = 10, .v = 12});
  auto cur = base;
  storage::SlottedPage page(cur.data(), kPageSize);
  // 8 single-byte tuple updates scattered across the page.
  for (uint16_t slot = 0; slot < 32; slot += 4) {
    uint8_t v = static_cast<uint8_t>(0x80 + slot);
    (void)page.UpdateInPlace(slot, 50, {&v, 1});
  }
  page.set_page_lsn(0x77);
  for (auto _ : state) {
    auto diff =
        storage::DiffPages(base.data(), cur.data(), kPageSize, 64, 64);
    benchmark::DoNotOptimize(diff);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_PageDiff_SparseDirty);

void BM_PageDiff_DenseDirty(benchmark::State& state) {
  auto base = PreparedPage({.n = 2, .m = 3, .v = 12});
  auto cur = base;
  storage::SlottedPage page(cur.data(), kPageSize);
  // Rewrite every fourth tuple wholesale: ~25% of the body differs. Exact
  // caps, as used by the update-size tracing path.
  std::vector<uint8_t> blob(100, 0xEE);
  for (uint16_t slot = 0; slot < page.slot_count(); slot += 4) {
    (void)page.UpdateInPlace(slot, 0, blob);
  }
  for (auto _ : state) {
    auto diff = storage::DiffPages(base.data(), cur.data(), kPageSize,
                                   kPageSize, kPageSize);
    benchmark::DoNotOptimize(diff);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_PageDiff_DenseDirty);

void BM_PlanEviction_CleanPage(benchmark::State& state) {
  auto base = PreparedPage({.n = 2, .m = 3, .v = 12});
  auto cur = base;
  for (auto _ : state) {
    auto d = core::PlanEviction(base.data(), cur.data(), kPageSize, true, true);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_PlanEviction_CleanPage);

void BM_PlanEviction_Append(benchmark::State& state) {
  auto base = PreparedPage({.n = 2, .m = 3, .v = 12});
  for (auto _ : state) {
    state.PauseTiming();
    auto cur = base;
    storage::SlottedPage page(cur.data(), kPageSize);
    uint8_t v = 0x42;
    (void)page.UpdateInPlace(3, 8, {&v, 1});
    page.set_page_lsn(7);
    state.ResumeTiming();
    auto d = core::PlanEviction(base.data(), cur.data(), kPageSize, true, true);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_PlanEviction_Append);

// The flush serve-kv makes most often: a diff past the append budget, written
// out of place. PlanEviction resets only the delta area, which stays erased,
// so the page needs no copy per iteration. The diff goes into a PageDiff
// reused across iterations, as the buffer pool reuses one across flushes.
void BM_PlanEviction_OutOfPlace(benchmark::State& state) {
  auto base = PreparedPage({.n = 2, .m = 3, .v = 12});
  auto cur = base;
  storage::SlottedPage page(cur.data(), kPageSize);
  std::vector<uint8_t> blob(100, 0xEE);
  (void)page.UpdateInPlace(5, 0, blob);
  page.set_page_lsn(7);
  storage::PageDiff scratch;
  for (auto _ : state) {
    auto d = core::PlanEviction(base.data(), cur.data(), kPageSize, true, true, false,
                                &scratch);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_PlanEviction_OutOfPlace);

void BM_ApplyDeltaRecords(benchmark::State& state) {
  auto base = PreparedPage({.n = 3, .m = 10, .v = 12});
  auto cur = base;
  storage::SlottedPage page(cur.data(), kPageSize);
  uint8_t patch[10] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  (void)page.UpdateInPlace(0, 0, patch);
  auto diff = storage::DiffPages(base.data(), cur.data(), kPageSize, 64, 64);
  (void)storage::EncodeDeltaRecords(cur.data(), kPageSize, diff);
  for (auto _ : state) {
    auto replay = cur;
    uint32_t n = storage::ApplyDeltaRecords(replay.data(), kPageSize);
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_ApplyDeltaRecords);

void BM_SlottedPageInsert(benchmark::State& state) {
  std::vector<uint8_t> buf(kPageSize);
  std::vector<uint8_t> tuple(64, 0x11);
  for (auto _ : state) {
    storage::SlottedPage page(buf.data(), kPageSize);
    page.Initialize(1, 1, {});
    for (int i = 0; i < 16; i++) {
      benchmark::DoNotOptimize(page.Insert(tuple));
    }
  }
}
BENCHMARK(BM_SlottedPageInsert);

void BM_EccEncodePage(benchmark::State& state) {
  std::vector<uint8_t> page(kPageSize);
  Rng rng(1);
  for (auto& b : page) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    auto ecc = flash::EccEncodeRegion(page.data(), page.size());
    benchmark::DoNotOptimize(ecc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_EccEncodePage);

// The managed-ECC read path: re-encode a clean page and compare.
void BM_EccCheckPage(benchmark::State& state) {
  std::vector<uint8_t> page(kPageSize);
  Rng rng(1);
  for (auto& b : page) b = static_cast<uint8_t>(rng.Next());
  auto ecc = flash::EccEncodeRegion(page.data(), page.size());
  for (auto _ : state) {
    auto r = flash::EccCheckRegion(page.data(), page.size(), ecc.data(), ecc.size(),
                                   nullptr);
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_EccCheckPage);

// ECC_initial of TPC-B's page body (4096 - 98 bytes of [2x4] v=12 delta
// area: 15 whole segments and a 158-byte one) into caller storage, as NoFtl
// writes it on every page program.
constexpr size_t kTpcbBody = 4096 - 98;

void BM_EccEncodeRegion(benchmark::State& state) {
  std::vector<uint8_t> body(kTpcbBody);
  Rng rng(1);
  for (auto& b : body) b = static_cast<uint8_t>(rng.Next());
  std::vector<uint8_t> ecc(flash::EccRegionBytes(kTpcbBody));
  for (auto _ : state) {
    flash::EccEncodeRegion(body.data(), body.size(), ecc.data());
    benchmark::DoNotOptimize(ecc.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kTpcbBody);
}
BENCHMARK(BM_EccEncodeRegion);

// The same body checked clean, as NoFtl checks it on every fetch.
void BM_EccCheckRegion(benchmark::State& state) {
  std::vector<uint8_t> body(kTpcbBody);
  Rng rng(1);
  for (auto& b : body) b = static_cast<uint8_t>(rng.Next());
  auto ecc = flash::EccEncodeRegion(body.data(), body.size());
  for (auto _ : state) {
    auto r = flash::EccCheckRegion(body.data(), body.size(), ecc.data(), ecc.size(),
                                   nullptr);
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kTpcbBody);
}
BENCHMARK(BM_EccCheckRegion);

// One delta slot's ECC for a TPC-B [2x4] v=12 record: 1 + 3*4 + 3*12 bytes.
void BM_EccEncodeDelta(benchmark::State& state) {
  constexpr size_t kDeltaBytes = 49;
  std::vector<uint8_t> delta(kDeltaBytes);
  Rng rng(2);
  for (auto& b : delta) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    auto ecc = flash::EccEncodeRegion(delta.data(), delta.size());
    benchmark::DoNotOptimize(ecc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kDeltaBytes);
}
BENCHMARK(BM_EccEncodeDelta);

// CRC32C at the sizes its users checksum: a PageFtl OOB entry (23 B), a
// typical WAL record (64 B), a serve-kv frame (1 KiB) and a linkbench page
// body (8 KiB).
void BM_Crc32c(benchmark::State& state) {
  const auto len = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> data(len);
  Rng rng(3);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    uint32_t crc = Crc32c(data.data(), data.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * len));
}
BENCHMARK(BM_Crc32c)->Arg(23)->Arg(64)->Arg(1024)->Arg(8192);

// The load generator's value fill, which every serve-path PUT and GET oracle
// runs: the shortest serve-kv value (64 B), its mean (544 B) and its longest
// (1 KiB).
void BM_ValueBytes(benchmark::State& state) {
  const auto len = static_cast<uint32_t>(state.range(0));
  uint64_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::ValueBytes(19999, ++seq, len));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * len));
}
BENCHMARK(BM_ValueBytes)->Arg(64)->Arg(544)->Arg(1024);

void BM_FlashProgramRead(benchmark::State& state) {
  flash::Geometry g;
  g.page_size = kPageSize;
  g.blocks_per_chip = 64;
  flash::FlashArray dev(g, flash::SlcTiming());
  std::vector<uint8_t> page(kPageSize, 0x00);
  std::vector<uint8_t> out(kPageSize);
  uint64_t i = 0;
  uint64_t npages = g.total_pages();
  for (auto _ : state) {
    flash::Ppn ppn = i++ % npages;
    if (dev.page_state(ppn).program_count > 0) {
      (void)dev.EraseBlock(flash::BlockOf(g, ppn));
    }
    (void)dev.ProgramPage(ppn, page.data());
    (void)dev.ReadPage(ppn, out.data());
  }
}
BENCHMARK(BM_FlashProgramRead);

void BM_WriteDelta(benchmark::State& state) {
  flash::Geometry g;
  g.page_size = kPageSize;
  g.blocks_per_chip = 64;
  g.max_programs_per_page = 255;
  flash::FlashArray dev(g, flash::SlcTiming());
  std::vector<uint8_t> page(kPageSize, 0x00);
  std::memset(page.data() + 2048, 0xFF, 2048);
  (void)dev.ProgramPage(0, page.data());
  uint8_t delta[46];
  std::memset(delta, 0xA5, sizeof(delta));
  uint32_t off = 2048;
  for (auto _ : state) {
    if (off + sizeof(delta) > kPageSize) {
      (void)dev.EraseBlock(0);
      (void)dev.ProgramPage(0, page.data());
      off = 2048;
    }
    benchmark::DoNotOptimize(dev.ProgramDelta(0, off, delta, sizeof(delta)));
    off += sizeof(delta);
  }
}
BENCHMARK(BM_WriteDelta);

void BM_BtreeLookup(benchmark::State& state) {
  workload::StackSpec spec;
  spec.geometry.blocks_per_chip = 256;
  spec.regions.push_back({ftl::RegionConfig{.logical_pages = 4096}, "t"});
  spec.engine.buffer_pages = 1024;
  auto stack = workload::Build(spec).value();
  auto tree = engine::Btree::Create(stack->db.get(), "idx", stack->ts);
  for (uint64_t k = 0; k < 20000; k++) (void)tree.value().Insert(k, k);
  uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.value().Lookup(k++ % 20000));
  }
}
BENCHMARK(BM_BtreeLookup);

}  // namespace
}  // namespace ipa

BENCHMARK_MAIN();
