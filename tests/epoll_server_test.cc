// Socket-level tests for the epoll transport (src/net/epoll_server.h):
// interactive transactions abort when their connection dies (locks and
// handle-table slots are reclaimed), BEGIN sheds at the open-transaction
// cap, and a peer streaming an oversized partial frame is dropped by the
// input-side cap. All tests drive a real loopback TCP connection against
// the threaded sharded engine.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "net/admission.h"
#include "net/epoll_server.h"
#include "net/kv_service.h"
#include "net/loadgen.h"
#include "workload/testbed.h"

namespace ipa::net {
namespace {

struct Server {
  std::unique_ptr<workload::ShardedTestbed> bed;
  std::unique_ptr<KvService> kv;
  std::unique_ptr<AdmissionController> ac;
  std::unique_ptr<EpollServer> server;
  std::thread thread;
  Status run_status = Status::OK();

  ~Server() {
    if (server != nullptr) server->Stop();
    if (thread.joinable()) thread.join();
  }
};

std::unique_ptr<Server> StartServer(EpollServer::Config cfg) {
  workload::ShardedTestbedConfig sc;
  sc.workers = 2;
  sc.threaded = true;
  sc.base.db_pages = 1024;
  sc.base.scheme = {.n = 2, .m = 4, .v = 12};
  sc.base.buffer_fraction = 0.5;
  sc.group_commit_ops = 8;
  sc.group_commit_window_us = 1000;
  sc.log_force_us = 100;
  auto bed_or = workload::MakeShardedTestbed(sc);
  EXPECT_TRUE(bed_or.ok()) << bed_or.status().ToString();

  auto s = std::make_unique<Server>();
  s->bed = std::move(bed_or.value());
  std::vector<KvService::PartitionConfig> pcs;
  for (auto& p : s->bed->parts) pcs.push_back({p.db.get(), p.ts});
  auto kv_or = KvService::Create(pcs);
  EXPECT_TRUE(kv_or.ok()) << kv_or.status().ToString();
  s->kv = std::move(kv_or.value());
  s->ac = std::make_unique<AdmissionController>(
      2, AdmissionController::Config{.inflight_budget = 32,
                                     .base_retry_hint_us = 100});
  s->server = std::make_unique<EpollServer>(s->bed->sharded.get(), s->kv.get(),
                                            s->ac.get(), cfg);
  EXPECT_TRUE(s->server->Start().ok());
  Server* raw = s.get();
  s->thread = std::thread([raw] { raw->run_status = raw->server->Run(); });
  return s;
}

struct Client {
  int fd = -1;
  FrameDecoder dec;
  uint64_t next_id = 1;

  ~Client() {
    if (fd >= 0) close(fd);
  }
};

bool Connect(Client* c, uint16_t port) {
  c->fd = socket(AF_INET, SOCK_STREAM, 0);
  if (c->fd < 0) return false;
  // Reads time out instead of hanging the test binary on a regression.
  timeval tv{};
  tv.tv_sec = 10;
  setsockopt(c->fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  return connect(c->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
}

bool SendAll(int fd, std::span<const uint8_t> bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Send one request frame and block for its response frame.
bool RoundTrip(Client& c, Op op, std::span<const uint8_t> payload, Frame* f) {
  std::vector<uint8_t> wire;
  EncodeFrame(static_cast<uint8_t>(op), c.next_id++, payload, &wire);
  if (!SendAll(c.fd, wire)) return false;
  while (true) {
    if (c.dec.Poll(f) == FrameDecoder::Next::kFrame) return true;
    uint8_t buf[4096];
    ssize_t n = read(c.fd, buf, sizeof(buf));
    if (n <= 0) return false;
    c.dec.Feed(std::span<const uint8_t>(buf, static_cast<size_t>(n)));
  }
}

bool WaitFor(const std::function<bool()>& cond) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

TEST(EpollServer, DisconnectAbortsOpenTransactions) {
  auto s = StartServer({});
  const uint64_t key = 7;

  // BEGIN and write inside the transaction, then vanish without COMMIT.
  {
    Client cl;
    ASSERT_TRUE(Connect(&cl, s->server->port()));
    Frame f;
    ASSERT_TRUE(RoundTrip(cl, Op::kBegin, BeginPayload(key), &f));
    ASSERT_EQ(f.op, static_cast<uint8_t>(RStatus::kOk));
    ASSERT_EQ(f.payload.size(), 8u);
    uint64_t h = DecodeU64(f.payload.data());
    std::vector<uint8_t> v = ValueBytes(key, 1, 64);
    ASSERT_TRUE(RoundTrip(cl, Op::kPut, PutPayload(h, key, v), &f));
    ASSERT_EQ(f.op, static_cast<uint8_t>(RStatus::kOk));
    EXPECT_EQ(s->kv->open_txns(), 1u);
  }  // ~Client closes the socket abruptly

  // The server must notice the dead peer and abort its transaction — the
  // handle table drains and the key's locks are released.
  EXPECT_TRUE(WaitFor([&] { return s->kv->open_txns() == 0; }));

  // A new client can now write the key: the abort released the exclusive
  // lock (kRetry while it is still pending is fine, forever is not).
  Client cl2;
  ASSERT_TRUE(Connect(&cl2, s->server->port()));
  std::vector<uint8_t> v2 = ValueBytes(key, 2, 64);
  Frame f;
  ASSERT_TRUE(WaitFor([&] {
    if (!RoundTrip(cl2, Op::kPut, PutPayload(kAutoCommit, key, v2), &f)) {
      return false;
    }
    return f.op == static_cast<uint8_t>(RStatus::kOk);
  }));
  ASSERT_TRUE(RoundTrip(cl2, Op::kGet, GetPayload(kAutoCommit, key), &f));
  ASSERT_EQ(f.op, static_cast<uint8_t>(RStatus::kOk));
  EXPECT_EQ(f.payload, v2);

  s->server->Stop();
  s->thread.join();
  EXPECT_TRUE(s->run_status.ok()) << s->run_status.ToString();
  EXPECT_GE(s->server->stats().txn_aborted_on_close, 1u);
}

TEST(EpollServer, BeginShedsAtOpenTxnCap) {
  EpollServer::Config cfg;
  cfg.max_open_txns = 1;
  auto s = StartServer(cfg);

  Client cl;
  ASSERT_TRUE(Connect(&cl, s->server->port()));
  Frame f;
  ASSERT_TRUE(RoundTrip(cl, Op::kBegin, BeginPayload(1), &f));
  ASSERT_EQ(f.op, static_cast<uint8_t>(RStatus::kOk));
  uint64_t h = DecodeU64(f.payload.data());

  // At the cap, BEGIN sheds with RETRY + backoff hint instead of growing
  // the handle table.
  ASSERT_TRUE(RoundTrip(cl, Op::kBegin, BeginPayload(2), &f));
  EXPECT_EQ(f.op, static_cast<uint8_t>(RStatus::kRetry));
  ASSERT_EQ(f.payload.size(), 4u);
  EXPECT_GT(DecodeU32(f.payload.data()), 0u);

  // ABORT frees the slot; BEGIN works again.
  ASSERT_TRUE(RoundTrip(cl, Op::kAbort, TxnPayload(h), &f));
  EXPECT_EQ(f.op, static_cast<uint8_t>(RStatus::kOk));
  ASSERT_TRUE(RoundTrip(cl, Op::kBegin, BeginPayload(3), &f));
  EXPECT_EQ(f.op, static_cast<uint8_t>(RStatus::kOk));

  s->server->Stop();
  s->thread.join();
  EXPECT_TRUE(s->run_status.ok()) << s->run_status.ToString();
  EXPECT_GE(s->server->stats().shed, 1u);
}

TEST(EpollServer, FloodingPartialFrameIsDropped) {
  EpollServer::Config cfg;
  cfg.conn_in_cap = 64u << 10;  // well below one max frame
  auto s = StartServer(cfg);

  Client cl;
  ASSERT_TRUE(Connect(&cl, s->server->port()));
  // A structurally valid frame header declaring a 1 MiB payload, but only
  // 128 KiB of it ever sent: the decoder must buffer past conn_in_cap and
  // the server must drop the connection instead of holding the bytes.
  std::vector<uint8_t> wire;
  EncodeFrame(static_cast<uint8_t>(Op::kPut), 1,
              std::vector<uint8_t>(kMaxPayload, 0), &wire);
  wire.resize(kHeaderBytes + (128u << 10));
  ASSERT_TRUE(SendAll(cl.fd, wire));

  // The peer is cut: reads end with EOF (or a reset), never a response.
  uint8_t buf[4096];
  ssize_t n;
  while ((n = read(cl.fd, buf, sizeof(buf))) > 0) {
  }
  EXPECT_LE(n, 0);

  s->server->Stop();
  s->thread.join();
  EXPECT_TRUE(s->run_status.ok()) << s->run_status.ToString();
  EXPECT_GE(s->server->stats().dropped_flooded, 1u);
}

}  // namespace
}  // namespace ipa::net
