// Figure 1: the write-amplification cascade of one small update.
//
// A ~10-byte tuple change (a) dirties the whole tuple on an NSM page (b,c),
// plus header/footer bytes (c), is written back as a whole 4KB page (d),
// multiplied by the file system (e; ext3 factor 3.4 from [24]), and finally
// by on-device GC/WL (f; measured on the emulator under random-update
// churn). The bench measures each stage on the real stack and prints the
// end-to-end amplification — then the same update under IPA.

#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/harness.h"
#include "core/write_policy.h"
#include "ftl/noftl.h"
#include "storage/delta_record.h"
#include "storage/slotted_page.h"
#include "workload/testbed.h"
#include "common/metrics.h"

namespace ipa::bench {
namespace {

constexpr uint32_t kPageSize = 4096;

/// Measure on-device write amplification (physical bytes programmed per host
/// byte written) under sustained random page updates, no IPA.
double MeasureDeviceAmplification() {
  workload::TestbedConfig tc;
  tc.db_pages = 2048;
  tc.buffer_fraction = 0.1;
  auto bed = workload::MakeTestbed(tc);
  if (!bed.ok()) return 0.0;
  auto& b = *bed.value();
  Rng rng(3);
  std::vector<uint8_t> page(kPageSize, 0);
  // Fill the logical space, then random-update far past capacity.
  for (ftl::Lba lba = 0; lba < 2048; lba++) {
    page[0] = static_cast<uint8_t>(lba);
    (void)b.noftl->WritePage(b.region, lba, page.data());
  }
  b.dev->ResetStats();
  uint64_t host_writes = 6000;
  for (uint64_t i = 0; i < host_writes; i++) {
    page[1] = static_cast<uint8_t>(i);
    (void)b.noftl->WritePage(b.region, rng.Uniform(2048), page.data());
  }
  const auto& ds = b.dev->stats();
  return static_cast<double>(ds.bytes_programmed) /
         static_cast<double>(host_writes * kPageSize);
}

int Run() {
  std::printf("Figure 1: write amplification caused by one small update.\n\n");

  // (a)-(c): the on-page footprint of a 10-byte tuple update.
  storage::Scheme scheme{};  // traditional NSM page, no delta area
  std::vector<uint8_t> base(kPageSize), cur;
  storage::SlottedPage page(base.data(), kPageSize);
  page.Initialize(4711, 1, scheme);
  std::vector<uint8_t> tuple(120, 0x20);
  auto slot = page.Insert(tuple);
  cur = base;
  storage::SlottedPage work(cur.data(), kPageSize);
  uint8_t patch[10];
  std::memset(patch, 0xAB, sizeof(patch));
  (void)work.UpdateInPlace(slot.value(), 16, patch);
  work.set_page_lsn(0x1234);  // metadata follows every update
  storage::PageDiff diff =
      storage::DiffPages(base.data(), cur.data(), kPageSize, kPageSize, kPageSize);

  double fs_factor = 3.4;  // ext3 measurement from [24] (Lu et al., FAST'13)
  double device_wa = MeasureDeviceAmplification();

  double net = static_cast<double>(diff.TotalBytes());
  TablePrinter t({"Stage", "Bytes / factor", "Cumulative amplification"});
  t.AddRow({"(a) net change (10B value + metadata)", Fmt(net, 0) + " B", "1x"});
  t.AddRow({"(b,c) tuple + header rewritten on page",
            std::to_string(tuple.size()) + " B tuple",
            Fmt(static_cast<double>(tuple.size()) / net, 1) + "x"});
  t.AddRow({"(d) whole DB page written", "4096 B",
            Fmt(4096.0 / net, 0) + "x"});
  t.AddRow({"(e) file-system writes (ext3, x3.4 [24])",
            Fmt(4096 * fs_factor, 0) + " B",
            Fmt(4096.0 * fs_factor / net, 0) + "x"});
  std::string on_device = "x";
  on_device += Fmt(device_wa, 2) + " on-device";
  t.AddRow({"(f) flash GC/WL (measured on emulator)", on_device,
            Fmt(4096.0 * fs_factor * device_wa / net, 0) + "x"});
  t.Print();

  // The same update under IPA.
  storage::Scheme ipa_scheme{.n = 2, .m = 10, .v = 12};
  std::vector<uint8_t> ibase(kPageSize);
  storage::SlottedPage ipage(ibase.data(), kPageSize);
  ipage.Initialize(4711, 1, ipa_scheme);
  auto islot = ipage.Insert(tuple);
  std::vector<uint8_t> icur = ibase;
  storage::SlottedPage iwork(icur.data(), kPageSize);
  (void)iwork.UpdateInPlace(islot.value(), 16, patch);
  iwork.set_page_lsn(0x1234);
  auto d = core::PlanEviction(ibase.data(), icur.data(), kPageSize, true, true);
  std::printf(
      "\nUnder IPA [2x10]: the same update becomes a %u-byte write_delta\n"
      "(%s), no file-system block rewrite, no page invalidation -> an\n"
      "amplification of %.1fx instead of %.0fx.\n",
      d.plan.write_len, core::WritePathName(d.path),
      static_cast<double>(d.plan.write_len) / net,
      4096.0 * fs_factor * device_wa / net);
  std::printf("\nPaper: a 10-byte update entails a 4-8KB in-place page write,\n"
              "causing a write amplification of 400-800x end to end.\n");
  return 0;
}

}  // namespace
}  // namespace ipa::bench

int main(int argc, char** argv) {
  ipa::metrics::InitFromArgs(argc, argv);
  return ipa::bench::Run();
}
