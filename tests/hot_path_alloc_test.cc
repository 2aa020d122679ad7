// Allocation counts on the engine's per-transaction paths: a counting global
// operator new shows that a warm lock table and a WAL append into a log
// buffer with capacity in place allocate nothing.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "engine/lock_manager.h"
#include "engine/wal.h"

namespace {
// Global operator new calls in this binary. The tests are single-threaded.
size_t g_news = 0;
}  // namespace

void* operator new(size_t n) {
  g_news++;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace ipa::engine {
namespace {

TEST(HotPathAllocTest, ColdLockTableAllocates) {
  // The counter sees the library's allocations: a cold table needs nodes.
  LockManager lm;
  size_t before = g_news;
  ASSERT_TRUE(lm.Acquire(1, 1, LockMode::kExclusive).ok());
  EXPECT_GT(g_news - before, 0u);
}

// Two open transactions: `a` share-locks a range that `b` also shares,
// upgrades its own shared locks and re-acquires its exclusive ones; `b`
// holds exclusive locks of its own. Both then release everything. (A
// conflict is left out: its Busy status allocates its message.)
void LockCycle(LockManager& lm, TxnId a, TxnId b) {
  for (uint64_t k = 0; k < 16; k++) {
    ASSERT_TRUE(lm.Acquire(a, k, LockMode::kShared).ok());
    ASSERT_TRUE(lm.Acquire(b, k, LockMode::kShared).ok());
  }
  for (uint64_t k = 16; k < 48; k++) {
    ASSERT_TRUE(lm.Acquire(a, k, k % 2 ? LockMode::kShared : LockMode::kExclusive).ok());
    ASSERT_TRUE(lm.Acquire(a, k, LockMode::kExclusive).ok());
    ASSERT_TRUE(lm.Acquire(b, k + 100, LockMode::kExclusive).ok());
  }
  EXPECT_EQ(lm.held_count(a), 48u);
  EXPECT_EQ(lm.held_count(b), 48u);
  lm.ReleaseAll(a);
  lm.ReleaseAll(b);
  EXPECT_EQ(lm.held_count(a), 0u);
}

TEST(HotPathAllocTest, WarmLockTableAllocatesNothing) {
  LockManager lm;
  LockCycle(lm, 1, 2);
  size_t before = g_news;
  LockCycle(lm, 3, 4);
  EXPECT_EQ(g_news - before, 0u);
}

TEST(HotPathAllocTest, WalAppendWithCapacityAllocatesNothing) {
  Wal wal;
  LogRecord rec{.type = LogType::kUpdate,
                .txn = 7,
                .page = PageId(1, 2),
                .before = std::vector<uint8_t>(40, 0xAB),
                .after = std::vector<uint8_t>(40, 0xCD)};
  for (int i = 0; i < 100; i++) wal.Append(rec);
  wal.FlushAll();
  ASSERT_TRUE(wal.TruncateTo(wal.end_lsn()).ok());  // keeps the capacity

  size_t before = g_news;
  Lsn first = wal.Append(rec);
  for (int i = 1; i < 100; i++) wal.Append(rec);
  EXPECT_EQ(g_news - before, 0u);

  Result<LogRecord> back = wal.Read(first);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().txn, 7u);
  EXPECT_EQ(back.value().before, rec.before);
  EXPECT_EQ(back.value().after, rec.after);
}

}  // namespace
}  // namespace ipa::engine
