#include "workload/tpch_lite.h"

#include <algorithm>

#include "common/bytes.h"

namespace ipa::workload {

namespace {

constexpr StatField<TpchLiteMix> kScanFields[] = {
    {&TpchLiteMix::scans, "workload.tpch_lite.scans"},
    {&TpchLiteMix::scan_rows, "workload.tpch_lite.scan_rows"},
};
constexpr StatField<TpchLiteMix> kWriterFields[] = {
    {&TpchLiteMix::writer_txns, "workload.tpch_lite.writer_txns"},
};

/// 64-bit mix (splitmix64 finalizer) for the aggregate fingerprint: cheap,
/// deterministic, and order-sensitive when chained.
uint64_t Mix(uint64_t h, uint64_t v) {
  uint64_t x = h ^ (v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2));
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

std::vector<uint8_t> MakeRow(uint64_t key, Rng& rng) {
  std::vector<uint8_t> t(TpchLite::kLineTupleSize, 0x20);
  EncodeU64(t.data(), key);
  EncodeU32(t.data() + TpchLite::kQtyOffset,
            static_cast<uint32_t>(1 + rng.Uniform(50)));
  EncodeU32(t.data() + TpchLite::kPriceOffset,
            static_cast<uint32_t>(100 + rng.Uniform(100000)));
  EncodeU32(t.data() + TpchLite::kDiscountOffset,
            static_cast<uint32_t>(rng.Uniform(11)));
  EncodeU32(t.data() + TpchLite::kShipDateOffset,
            static_cast<uint32_t>(rng.Uniform(2466)));
  t[24] = static_cast<uint8_t>('A' + rng.Uniform(3));  // returnflag
  return t;
}

}  // namespace

TpchLite::TpchLite(engine::Database* db, TpchLiteConfig config,
                   TablespaceMap ts_of)
    : db_(db), config_(config), ts_of_(std::move(ts_of)), rng_(config.seed) {}

TpchLite::~TpchLite() {
  PublishMix(mix_, kScanFields);
  PublishMix(mix_, kWriterFields);
}

uint64_t TpchLite::EstimatedPages(uint32_t page_size) const {
  uint64_t per_page = page_size / (kLineTupleSize + 8);
  uint64_t pages = config_.rows / per_page + 16;
  pages += pages / 8;  // index pages + slack
  return pages;
}

Status TpchLite::Load() {
  IPA_ASSIGN_OR_RETURN(lineitem_,
                       db_->CreateTable("LINEITEM", ts_of_("LINEITEM")));
  IPA_ASSIGN_OR_RETURN(
      engine::Btree tree,
      engine::Btree::Create(db_, "LINEITEM_IDX", ts_of_("LINEITEM_IDX")));
  line_index_ = std::make_unique<engine::Btree>(std::move(tree));

  uint32_t batch = 0;
  engine::TxnId load = db_->Begin();
  for (uint64_t i = 0; i < config_.rows; i++) {
    IPA_ASSIGN_OR_RETURN(engine::Rid rid,
                         db_->Insert(load, lineitem_, MakeRow(i, rng_)));
    IPA_RETURN_NOT_OK(line_index_->Insert(i, rid.Pack()));
    if (++batch == 2000) {
      IPA_RETURN_NOT_OK(db_->Commit(load));
      load = db_->Begin();
      batch = 0;
    }
  }
  IPA_RETURN_NOT_OK(db_->Commit(load));
  next_row_ = config_.rows;
  return Status::OK();
}

Status TpchLite::RebuildIndexes() {
  IPA_ASSIGN_OR_RETURN(
      engine::Btree tree,
      engine::Btree::Create(db_, "LINEITEM_IDX_R", ts_of_("LINEITEM_IDX")));
  line_index_ = std::make_unique<engine::Btree>(std::move(tree));
  Status index_status = Status::OK();
  uint64_t max_key = 0;
  IPA_RETURN_NOT_OK(db_->Scan(
      lineitem_, [&](engine::Rid rid, std::span<const uint8_t> tuple) {
        uint64_t key = DecodeU64(tuple.data());
        max_key = std::max(max_key, key);
        index_status = line_index_->Insert(key, rid.Pack());
        return index_status.ok();
      }));
  IPA_RETURN_NOT_OK(index_status);
  next_row_ = max_key + 1;
  return Status::OK();
}

Result<bool> TpchLite::RunTransaction() {
  txn_counter_++;
  if (config_.scan_every > 0 && txn_counter_ % config_.scan_every == 0) {
    return RunAnalytics();
  }
  return RunWriter();
}

Result<bool> TpchLite::RunAnalytics() {
  mix_.scans++;

  if (next_row_ == 0) return true;  // nothing loaded yet
  // Q1-lite (even draws): sum qty and discounted price over a key range.
  // Q6-lite (odd draws): the same range, but only rows inside a shipdate
  // window and below a quantity threshold contribute.
  uint64_t span = std::min<uint64_t>(config_.scan_span, next_row_);
  uint64_t start = rng_.Uniform(next_row_ - span + 1);
  bool filtered = rng_.Uniform(2) == 1;
  uint32_t date_lo = static_cast<uint32_t>(rng_.Uniform(2000));
  uint32_t date_hi = date_lo + 365;

  engine::TxnId txn = db_->Begin();
  auto fail = [&](Status s) -> Result<bool> {
    (void)db_->Abort(txn);
    return s;
  };

  uint64_t sum_qty = 0, sum_price = 0, rows = 0;
  Status read_status = Status::OK();
  Status s = line_index_->Scan(
      start, start + span - 1, [&](uint64_t, uint64_t packed) {
        auto tuple = db_->Read(txn, engine::Rid::Unpack(packed),
                               /*for_update=*/false);
        if (!tuple.ok()) {
          read_status = tuple.status();
          return false;
        }
        const uint8_t* t = tuple.value().data();
        uint32_t qty = DecodeU32(t + kQtyOffset);
        uint32_t price = DecodeU32(t + kPriceOffset);
        uint32_t discount = DecodeU32(t + kDiscountOffset);
        uint32_t shipdate = DecodeU32(t + kShipDateOffset);
        if (filtered && (shipdate < date_lo || shipdate >= date_hi || qty >= 25)) {
          return true;
        }
        sum_qty += qty;
        sum_price += static_cast<uint64_t>(price) * (100 - 10 * discount) / 100;
        rows++;
        return true;
      });
  if (!s.ok()) return fail(s);
  if (!read_status.ok()) return fail(read_status);
  IPA_RETURN_NOT_OK(db_->Commit(txn));

  agg_fingerprint_ = Mix(agg_fingerprint_, sum_qty);
  agg_fingerprint_ = Mix(agg_fingerprint_, sum_price);
  agg_fingerprint_ = Mix(agg_fingerprint_, rows);
  scans_run_++;
  mix_.scan_rows += rows;
  return true;
}

Result<bool> TpchLite::RunWriter() {
  mix_.writer_txns++;

  engine::TxnId txn = db_->Begin();
  auto fail = [&](Status s) -> Result<bool> {
    (void)db_->Abort(txn);
    return s;
  };

  if (config_.insert_every > 0 && txn_counter_ % config_.insert_every == 0) {
    // Fresh row append (the fact table grows throughout the run).
    uint64_t key = next_row_;
    auto rid = db_->Insert(txn, lineitem_, MakeRow(key, rng_));
    if (!rid.ok()) return fail(rid.status());
    Status s = line_index_->Insert(key, rid.value().Pack());
    if (!s.ok()) return fail(s);
    IPA_RETURN_NOT_OK(db_->Commit(txn));
    next_row_ = key + 1;
    return true;
  }

  // Price/quantity touch-up on one random row: two 4-byte in-place updates,
  // the IPA-friendly footprint.
  uint64_t key = rng_.Uniform(next_row_);
  int32_t dq = static_cast<int32_t>(rng_.UniformRange(-3, 3));
  int32_t dp = static_cast<int32_t>(rng_.UniformRange(-500, 500));
  auto packed = line_index_->Lookup(key);
  if (!packed.ok()) return fail(packed.status());
  engine::Rid rid = engine::Rid::Unpack(packed.value());
  auto tuple = db_->Read(txn, rid, /*for_update=*/true);
  if (!tuple.ok()) return fail(tuple.status());
  uint32_t qty = DecodeU32(tuple.value().data() + kQtyOffset);
  uint32_t price = DecodeU32(tuple.value().data() + kPriceOffset);
  uint8_t nq[4], np[4];
  EncodeU32(nq, static_cast<uint32_t>(
                    std::max<int64_t>(1, static_cast<int64_t>(qty) + dq)));
  EncodeU32(np, static_cast<uint32_t>(
                    std::max<int64_t>(100, static_cast<int64_t>(price) + dp)));
  Status s = db_->Update(txn, rid, kQtyOffset, nq);
  if (!s.ok()) return fail(s);
  s = db_->Update(txn, rid, kPriceOffset, np);
  if (!s.ok()) return fail(s);
  IPA_RETURN_NOT_OK(db_->Commit(txn));
  return true;
}

}  // namespace ipa::workload
