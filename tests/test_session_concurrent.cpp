// Many concurrent sessions into one backend: real threads hammer a single
// commit daemon with interleaved submits, syncs, read-your-writes reads,
// duplicate (object, version) closes across sessions, and sessions dropped
// without sync. Runs under the TSan job via the test glob -- the point is
// that the daemon's single-flusher token, the two-flag ticket publication
// and the maintenance actor's timeline (written by whichever thread
// flushes, read at the quiesce() join) hold up under genuine parallelism,
// not just the simulated kind.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cloudprov/lsb/lsb_backend.hpp"
#include "cloudprov/sdb_backend.hpp"
#include "cloudprov/session.hpp"
#include "cloudprov/wal_backend.hpp"
#include "util/bytes.hpp"

namespace {

using namespace provcloud::cloudprov;
namespace aws = provcloud::aws;
namespace pass = provcloud::pass;
namespace sim = provcloud::sim;
namespace util = provcloud::util;

pass::FlushUnit file_unit(const std::string& object, std::uint32_t version,
                          const std::string& data) {
  pass::FlushUnit u;
  u.object = object;
  u.version = version;
  u.kind = pass::PnodeKind::kFile;
  u.data = util::make_shared_bytes(data);
  u.records = {pass::make_text_record("TYPE", "file"),
               pass::make_text_record("NAME", object)};
  return u;
}

constexpr int kThreads = 4;
constexpr int kSessionsPerThread = 3;
constexpr int kClosesPerSession = 8;

TEST(SessionConcurrentTest, ThreadsShareOneCommitDaemonSafely) {
  aws::CloudEnv env(91, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = std::make_unique<SdbBackend>(
      services, SdbBackendConfig{.batch_size = aws::kSdbMaxItemsPerBatch});

  auto worker = [&backend](int tid) {
    for (int s = 0; s < kSessionsPerThread; ++s) {
      auto session = backend->open_session(
          SessionConfig{.client_id = "client-" + std::to_string(tid),
                        .max_group = 4});
      std::vector<Ticket> tickets;
      for (int c = 0; c < kClosesPerSession; ++c) {
        const std::string mine = "t" + std::to_string(tid) + "/s" +
                                 std::to_string(s) + "/f" + std::to_string(c);
        const std::string payload = "payload-" + mine;
        tickets.push_back(session->submit(file_unit(mine, 1, payload)));

        // Read-your-writes from this thread: whether the close is still
        // pending (synthesized reply, no cloud calls) or a concurrent
        // flush already retired it (durable, strong consistency), the
        // session must hand back this session's write.
        const auto got = session->read(mine);
        EXPECT_TRUE(got.has_value()) << mine;
        if (got.has_value()) {
          EXPECT_EQ(got->version, 1u) << mine;
          ASSERT_NE(got->data, nullptr) << mine;
          EXPECT_EQ(*got->data, payload) << mine;
        }

        // Duplicate (object, version) across sessions: every thread
        // rewrites the shared object at the same version so groups keep
        // colliding on one item.
        tickets.push_back(
            session->submit(file_unit("shared/obj", c + 1, "winner-" + mine)));

        // Interleave syncs mid-stream, not just at the end.
        if (c % 3 == 2) {
          EXPECT_TRUE(session->sync().has_value());
        }
      }
      EXPECT_TRUE(session->sync().has_value());
      for (const Ticket& t : tickets) {
        EXPECT_TRUE(t.done());
        EXPECT_TRUE(t.ok());
      }
    }
  };

  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) threads.emplace_back(worker, tid);
  for (std::thread& t : threads) t.join();

  // Every private object is durable and verified.
  for (int tid = 0; tid < kThreads; ++tid)
    for (int s = 0; s < kSessionsPerThread; ++s)
      for (int c = 0; c < kClosesPerSession; ++c) {
        const std::string mine = "t" + std::to_string(tid) + "/s" +
                                 std::to_string(s) + "/f" + std::to_string(c);
        const auto got = backend->read(mine);
        ASSERT_TRUE(got.has_value()) << mine;
        EXPECT_TRUE(got->verified) << mine;
        EXPECT_EQ(*got->data, "payload-" + mine) << mine;
      }

  // The contested object settles on *some* submitted (version, payload)
  // pair -- replace semantics, no torn state. (Which thread's close lands
  // last is scheduling-dependent, so the exact version is not pinned.)
  const auto shared = backend->read("shared/obj");
  ASSERT_TRUE(shared.has_value());
  EXPECT_TRUE(shared->verified);
  EXPECT_GE(shared->version, 1u);
  EXPECT_LE(shared->version, static_cast<std::uint32_t>(kClosesPerSession));
  ASSERT_NE(shared->data, nullptr);
  EXPECT_EQ(shared->data->rfind("winner-", 0), 0u);
}

TEST(SessionConcurrentTest, DroppedSessionsDoNotPoisonConcurrentSyncs) {
  aws::CloudEnv env(92, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = std::make_unique<SdbBackend>(
      services, SdbBackendConfig{.batch_size = aws::kSdbMaxItemsPerBatch});

  auto worker = [&backend](int tid) {
    for (int s = 0; s < kSessionsPerThread; ++s) {
      auto session = backend->open_session(
          SessionConfig{.client_id = "client-" + std::to_string(tid),
                        .max_group = 4});
      std::vector<Ticket> tickets;
      for (int c = 0; c < 3; ++c)
        tickets.push_back(session->submit(file_unit(
            "drop/t" + std::to_string(tid) + "/s" + std::to_string(s) + "/f" +
                std::to_string(c),
            1, "x")));
      if ((tid + s) % 2 == 0) {
        // Poisoned close: the session dies without a durability barrier.
        // Its still-queued closes settle as kCrashed; closes a concurrent
        // flush already picked up may finish durably after the drop, so a
        // ticket is not necessarily done() the instant reset() returns --
        // but a settled failure must be the crash, nothing else.
        session.reset();
        for (const Ticket& t : tickets) {
          if (t.done() && !t.ok()) {
            EXPECT_EQ(t.error().code, BackendErrorCode::kCrashed);
          }
        }
      } else {
        EXPECT_TRUE(session->sync().has_value());
        for (const Ticket& t : tickets) EXPECT_TRUE(t.ok());
      }
    }
  };

  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) threads.emplace_back(worker, tid);
  for (std::thread& t : threads) t.join();

  // Survivors' writes are all durable.
  for (int tid = 0; tid < kThreads; ++tid)
    for (int s = 0; s < kSessionsPerThread; ++s) {
      if ((tid + s) % 2 == 0) continue;
      for (int c = 0; c < 3; ++c) {
        const std::string object = "drop/t" + std::to_string(tid) + "/s" +
                                   std::to_string(s) + "/f" +
                                   std::to_string(c);
        const auto got = backend->read(object);
        ASSERT_TRUE(got.has_value()) << object;
        EXPECT_TRUE(got->verified) << object;
      }
    }
}

TEST(SessionConcurrentTest, MaintenanceActorJoinsAfterManyFlushers) {
  // Arch 3 draining its WAL after every group and Arch 4 publishing and
  // cleaning every few groups: whichever thread flushes runs the
  // maintenance step, and one thread joins the actor at the end. Each
  // session overwrites its thread's files from the session before.
  for (const Architecture arch :
       {Architecture::kS3SimpleDbSqs, Architecture::kS3SegmentLog}) {
    aws::CloudEnv env(93, aws::ConsistencyConfig::strong());
    CloudServices services(env);
    std::unique_ptr<ProvenanceBackend> backend;
    if (arch == Architecture::kS3SimpleDbSqs) {
      WalBackendConfig cfg;
      cfg.commit_threshold = 1;
      backend = make_wal_backend(services, cfg);
    } else {
      // At a 1 KiB cap each 600-byte close is its own segment, and an
      // overwrite leaves the previous one mostly garbage for the cleaner.
      LsbBackendConfig cfg;
      cfg.segment_cap_bytes = util::kKiB;
      cfg.index_publish_entries = 4;
      backend = make_lsb_backend(services, cfg);
    }
    const auto object = [](int tid, int c) {
      return "m/t" + std::to_string(tid) + "/f" + std::to_string(c);
    };

    auto worker = [&backend, &object](int tid) {
      for (int s = 0; s < kSessionsPerThread; ++s) {
        auto session = backend->open_session(
            SessionConfig{.client_id = "client-" + std::to_string(tid),
                          .max_group = 2});
        std::vector<Ticket> tickets;
        for (int c = 0; c < kClosesPerSession; ++c)
          tickets.push_back(session->submit(
              file_unit(object(tid, c), 1 + s, std::string(600, 'x'))));
        EXPECT_TRUE(session->sync().has_value());
        for (const Ticket& t : tickets) EXPECT_TRUE(t.ok());
      }
    };
    // A joiner races the flushers: it reads the actor's timeline while
    // other threads keep advancing it under the flush token.
    std::atomic<bool> workers_done{false};
    std::thread joiner([&] {
      const std::shared_ptr<CommitDaemon> daemon = backend->commit_daemon();
      while (!workers_done.load()) {
        daemon->join_maintenance();
        std::this_thread::yield();
      }
    });
    std::vector<std::thread> threads;
    for (int tid = 0; tid < kThreads; ++tid) threads.emplace_back(worker, tid);
    for (std::thread& t : threads) t.join();
    workers_done.store(true);
    joiner.join();

    // This thread charged nothing yet: the join makes it wait for the
    // whole actor, which cannot end later than the serial sum.
    backend->quiesce();
    const sim::SimTime busy =
        env.metrics().counter("maintenance.busy_us").value();
    EXPECT_GT(busy, 0u) << to_string(arch);
    EXPECT_GE(env.elapsed_time(), busy) << to_string(arch);
    EXPECT_LE(env.elapsed_time(), env.busy_time()) << to_string(arch);
    if (arch == Architecture::kS3SegmentLog) {
      EXPECT_GT(env.metrics().counter("lsb.compactions").value(), 0u);
    }

    for (int tid = 0; tid < kThreads; ++tid)
      for (int c = 0; c < kClosesPerSession; ++c) {
        const auto got = backend->read(object(tid, c));
        ASSERT_TRUE(got.has_value()) << object(tid, c);
        EXPECT_EQ(got->version, static_cast<std::uint32_t>(kSessionsPerThread))
            << object(tid, c);
        EXPECT_TRUE(got->verified) << object(tid, c);
      }
  }
}

TEST(SessionConcurrentTest, WalCommitPhasesRunOneAtATime) {
  // The commit daemon's kept state is written by every phase: pump() on
  // whichever thread flushes, and recover() -- a forced phase, as quiesce()
  // runs -- on a thread of its own here, racing them.
  aws::CloudEnv env(94, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  WalBackendConfig cfg;
  cfg.commit_threshold = 4;
  WalBackend backend(services, cfg);
  const auto object = [](int tid, int c) {
    return "p/t" + std::to_string(tid) + "/f" + std::to_string(c);
  };
  auto worker = [&backend, &object](int tid) {
    auto session = backend.open_session(SessionConfig{
        .client_id = "client-" + std::to_string(tid), .max_group = 2});
    for (int c = 0; c < kClosesPerSession; ++c)
      session->submit(file_unit(object(tid, c), 1, "x"));
    EXPECT_TRUE(session->sync().has_value());
  };
  std::atomic<bool> workers_done{false};
  std::thread restarter([&] {
    while (!workers_done.load()) {
      backend.recover();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) threads.emplace_back(worker, tid);
  for (std::thread& t : threads) t.join();
  workers_done.store(true);
  restarter.join();

  backend.quiesce();
  EXPECT_EQ(backend.committed_count(),
            static_cast<std::uint64_t>(kThreads * kClosesPerSession));
  EXPECT_EQ(services.sqs.exact_message_count("sqs://queue/wal-client-0"), 0u);
  for (int tid = 0; tid < kThreads; ++tid)
    for (int c = 0; c < kClosesPerSession; ++c) {
      const auto got = backend.read(object(tid, c));
      ASSERT_TRUE(got.has_value()) << object(tid, c);
      EXPECT_TRUE(got->verified) << object(tid, c);
    }
}

}  // namespace
