// Write-ahead log (ARIES-style, Shore-MT flavored).
//
// The log is a byte-addressed append-only stream; an LSN is a byte offset.
// Records carry per-transaction backward chains (prev), physical
// before/after images for undo/redo, and CLRs for partial rollback. The log
// "device" is modeled in memory and is separate from the flash data device
// (as in the paper's testbed, where the log lives on its own volume and the
// evaluation concerns data-page I/O).
//
// Log-space reclamation: Shore-MT eagerly reclaims log space once 25-50% of
// the configured capacity is consumed, forcing checkpoints and dirty-page
// flushes (Section 8.4 discusses how this policy shapes host writes at large
// buffer sizes). The engine polls UsedFraction() and triggers checkpoints
// accordingly; TruncateTo() releases the prefix.

#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "engine/types.h"
#include "ftl/page_device.h"

namespace ipa::engine {

enum class LogType : uint8_t {
  kBegin = 1,
  kCommit,
  kAbort,       ///< Rollback completed.
  kUpdate,      ///< Byte-range update within a tuple (before/after images).
  kInsert,      ///< Tuple insert (after image).
  kDelete,      ///< Tuple delete (before image).
  kResize,      ///< Whole-tuple replacement (before + after images).
  kFormat,      ///< Page formatted (aux64 = table id, low 32 bits).
  kClr,         ///< Compensation record (aux64 = undo-next LSN).
  kCheckpoint,  ///< Sharp checkpoint (all dirty pages flushed before emit).
};

struct LogRecord {
  LogType type = LogType::kBegin;
  TxnId txn = kInvalidTxn;
  Lsn prev = kInvalidLsn;  ///< Previous record of the same transaction.
  PageId page;             ///< Affected page (update/insert/delete/format).
  uint16_t slot = 0;
  uint16_t offset = 0;     ///< Byte offset within the tuple for kUpdate.
  uint64_t aux64 = 0;      ///< Type-specific (see LogType).
  std::vector<uint8_t> before;
  std::vector<uint8_t> after;
};

struct WalStats {
  uint64_t appends = 0;
  uint64_t bytes_appended = 0;   ///< Unlike TotalAppended(), never rolled back.
  uint64_t bytes_truncated = 0;  ///< Prefix bytes dropped by TruncateTo().
};

/// Every WalStats counter and the metric it is published under
/// (docs/METRICS.md).
inline constexpr StatField<WalStats> kWalStatFields[] = {
    {&WalStats::appends, "wal.appends"},
    {&WalStats::bytes_appended, "wal.bytes_appended"},
    {&WalStats::bytes_truncated, "wal.bytes_truncated"},
};

class Wal {
 public:
  explicit Wal(uint64_t capacity_bytes = 64ull << 20)
      : capacity_(capacity_bytes) {}
  /// Publishes stats() to the metrics registry.
  ~Wal();
  // A copy would publish twice.
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Append a record; returns its LSN. The record is not durable until
  /// FlushTo()/FlushAll() covers it. The record is encoded in place at the
  /// end of the log buffer, so an append allocates only when the buffer
  /// grows past its capacity (TruncateTo keeps that capacity).
  Lsn Append(const LogRecord& rec);

  /// Ensure everything up to and including `lsn` is durable (WAL rule).
  void FlushTo(Lsn lsn);
  void FlushAll();
  Lsn durable_lsn() const { return durable_; }

  /// Mirror newly-durable log bytes onto a flash-backed PageDevice as
  /// ftl::StreamTag::kWal-tagged page writes (a ring of `capacity_pages`
  /// pages starting at `base_lba`). Off by default — the log normally lives
  /// on its own in-memory volume, exactly as before — and best-effort: a
  /// failed mirror write never fails the log force. This is how the WAL
  /// stream reaches a stream-aware FTL; pass nullptr to unbind.
  void BindLogDevice(ftl::PageDevice* device, ftl::Lba base_lba,
                     uint64_t capacity_pages);
  Lsn end_lsn() const { return end_lsn_; }
  Lsn base_lsn() const { return base_; }

  /// Read the record at `lsn` (must be a valid, untruncated LSN).
  Result<LogRecord> Read(Lsn lsn) const;

  /// LSN of the record following `lsn`, or end_lsn() if none.
  Result<Lsn> NextLsn(Lsn lsn) const;

  /// Drop the log prefix before `lsn` (checkpoint-driven reclamation).
  Status TruncateTo(Lsn lsn);

  uint64_t UsedBytes() const { return end_lsn_ - base_; }
  double UsedFraction() const {
    return static_cast<double>(UsedBytes()) / static_cast<double>(capacity_);
  }
  uint64_t capacity() const { return capacity_; }

  /// Crash simulation: discard all records beyond the durable LSN, as a real
  /// crash would. The surviving prefix is what restart recovery sees.
  ///
  /// Crash contract: the log device is modeled as write-atomic at record
  /// granularity, so the durable prefix survives a power loss intact. Data
  /// pages have no such guarantee — a loss mid-append leaves torn flash state
  /// that the NoFTL mount scan must discard before redo runs (see
  /// Database::RecoverAfterPowerLoss and docs/CRASH_TESTING.md).
  void DiscardUnflushed();

  /// Total bytes ever appended (for write-volume accounting).
  uint64_t TotalAppended() const { return end_lsn_; }

  const WalStats& stats() const { return stats_; }

 private:
  /// Mirror pages covering [mirrored_, durable_) to the bound log device.
  void MirrorDurable();

  uint64_t capacity_;
  std::vector<uint8_t> buf_;   // holds [base_, end_lsn_)
  Lsn base_ = 0;
  Lsn end_lsn_ = 0;
  Lsn durable_ = 0;

  /// Optional flash mirror of the durable log (BindLogDevice).
  ftl::PageDevice* log_dev_ = nullptr;
  ftl::Lba log_base_lba_ = 0;
  uint64_t log_capacity_pages_ = 0;
  Lsn mirrored_ = 0;  ///< Durable bytes already mirrored to the device.
  WalStats stats_;
};

}  // namespace ipa::engine
