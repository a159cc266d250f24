// HuntService behavior: concurrent execution equals serial execution
// byte-for-byte, cancellation (queued and mid-query), deadlines, admission
// control, tenant fairness, the zero-copy row-block plumbing, and the
// epoch gate that lets the facade ingest while hunts are in flight
// (standing hunts and the stream sources live in stream_test.cc). Runs
// under the TSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cases/cases.h"
#include "obs/profile.h"
#include "service/hunt_service.h"
#include "storage/row_block.h"
#include "threatraptor.h"

namespace raptor {
namespace {

using service::HuntRequest;
using service::HuntResponse;
using service::HuntService;
using service::HuntServiceOptions;
using service::HuntTicket;
using service::QueryDialect;

HuntRequest Req(std::string text,
                QueryDialect dialect = QueryDialect::kTbql,
                std::string tenant = "", long long timeout_micros = -1) {
  HuntRequest r;
  r.text = std::move(text);
  r.dialect = dialect;
  r.tenant = std::move(tenant);
  r.timeout_micros = timeout_micros;
  return r;
}

/// A store big enough that hunts take real time: `procs` processes each
/// reading `files_per_proc` distinct files (reduction disabled so every
/// event survives). proc i is "/bin/svc<i>", file (i,j) is "/data/d<i>_<j>".
std::unique_ptr<ThreatRaptor> BuildWideStore(int procs, int files_per_proc) {
  ThreatRaptorOptions options;
  options.store.enable_reduction = false;
  auto tr = std::make_unique<ThreatRaptor>(options);
  audit::ParsedLog log;
  audit::Timestamp ts = 1'000'000;
  for (int i = 0; i < procs; ++i) {
    audit::EntityId p =
        log.entities.InternProcess("/bin/svc" + std::to_string(i), 100 + i);
    for (int j = 0; j < files_per_proc; ++j) {
      audit::EntityId f = log.entities.InternFile(
          "/data/d" + std::to_string(i) + "_" + std::to_string(j));
      audit::SystemEvent ev;
      ev.id = log.events.size() + 1;
      ev.subject = p;
      ev.object = f;
      ev.object_type = audit::EntityType::kFile;
      ev.op = audit::EventOp::kRead;
      ev.start_time = ts;
      ev.end_time = ts + 10;
      ts += 100;
      log.events.push_back(ev);
    }
  }
  EXPECT_TRUE(tr->IngestParsedLog(log).ok());
  return tr;
}

TEST(RowBlocksTest, AdoptPushTruncateFlatten) {
  storage::RowBlocks<std::vector<int>> blocks;
  blocks.Adopt({{1}, {2}, {3}});
  blocks.Push({4});
  blocks.Push({5});
  blocks.Adopt({{6}, {7}});
  EXPECT_EQ(blocks.row_count(), 7u);
  EXPECT_EQ(blocks.adopted_rows(), 5u);
  EXPECT_EQ(blocks.pushed_rows(), 2u);
  EXPECT_EQ(blocks.block_count(), 3u);

  storage::RowCursor<std::vector<int>> cursor(&blocks);
  std::vector<int> seen;
  while (const std::vector<int>* row = cursor.Next()) seen.push_back((*row)[0]);
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));

  blocks.Truncate(4);  // keeps {1,2,3} and {4}, drops the rest
  EXPECT_EQ(blocks.row_count(), 4u);
  EXPECT_EQ(blocks.block_count(), 2u);
  EXPECT_EQ(blocks.adopted_rows() + blocks.pushed_rows(), 4u);
  std::vector<std::vector<int>> flat = blocks.Flatten();
  EXPECT_EQ(flat, (std::vector<std::vector<int>>{{1}, {2}, {3}, {4}}));
  EXPECT_EQ(blocks.row_count(), 0u);

  storage::RowBlocks<std::vector<int>> exact;
  exact.Adopt({{9}, {8}});
  exact.Truncate(2);  // no-op boundary
  EXPECT_EQ(exact.row_count(), 2u);
  exact.Truncate(0);
  EXPECT_EQ(exact.block_count(), 0u);
}

TEST(HuntServiceTest, InvalidTicketIsFinishedNotFatal) {
  HuntTicket ticket;  // never came from Submit
  EXPECT_FALSE(ticket.valid());
  EXPECT_TRUE(ticket.done());
  EXPECT_EQ(ticket.Wait().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(ticket.WaitFor(1'000));
  ticket.WaitStarted();  // no-op
  ticket.Cancel();       // no-op
  EXPECT_EQ(ticket.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ticket.id(), 0u);
}

TEST(HuntServiceTest, TbqlMatchesDirectExecution) {
  auto tr = BuildWideStore(20, 20);
  const char* query = "proc p[\"%svc1%\"] read file f return p, f";
  auto direct = tr->Hunt(tbql::ParseTbql(query).value());
  ASSERT_TRUE(direct.ok());

  HuntService service(tr->store());
  auto response = service.Run(Req(query));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().report.results.rows,
            direct.value().results.rows);
  EXPECT_EQ(response.value().report.matched_event_ids,
            direct.value().matched_event_ids);
  EXPECT_EQ(response.value().columns, direct.value().results.columns);
}

TEST(HuntServiceTest, ConcurrentHuntsMatchSerialByteForByte) {
  auto tr = BuildWideStore(24, 24);
  struct Case {
    QueryDialect dialect;
    std::string text;
  };
  std::vector<Case> cases = {
      {QueryDialect::kTbql, "proc p read file f return p, f"},
      {QueryDialect::kTbql,
       "proc p[\"%svc3%\"] read file f as e1 "
       "proc p read file g[\"%_7%\"] as e2 with e1 before e2 "
       "return distinct p, g"},
      {QueryDialect::kCypher,
       "MATCH (p:proc)-[e:read]->(f:file) WHERE f.name CONTAINS '_5' "
       "RETURN p.exename, f.name"},
      {QueryDialect::kSql,
       "SELECT e.id, s.exename FROM events e, entities s "
       "WHERE e.subject = s.id AND e.op = 'read' AND s.exename LIKE "
       "'%svc1%'"},
  };

  // Serial ground truth through the same service API, one at a time.
  HuntServiceOptions serial_opts;
  serial_opts.max_concurrent = 1;
  std::vector<HuntResponse> serial;
  {
    HuntService service(tr->store(), serial_opts);
    for (const Case& c : cases) {
      auto r = service.Run(Req(c.text, c.dialect));
      ASSERT_TRUE(r.ok()) << c.text << " -> " << r.status().ToString();
      serial.push_back(std::move(r).value());
    }
  }

  // Several rounds of fully concurrent submission (duplicate each case so
  // >= 2 hunts genuinely overlap per round even on a small pool).
  HuntServiceOptions par_opts;
  par_opts.max_concurrent = 4;
  HuntService service(tr->store(), par_opts);
  for (int round = 0; round < 3; ++round) {
    std::vector<HuntTicket> tickets;
    for (int dup = 0; dup < 2; ++dup) {
      for (const Case& c : cases) {
        tickets.push_back(
            service.Submit(Req(c.text, c.dialect)));
      }
    }
    for (size_t i = 0; i < tickets.size(); ++i) {
      const HuntResponse& expected = serial[i % cases.size()];
      ASSERT_TRUE(tickets[i].Wait().ok())
          << tickets[i].status().ToString();
      const HuntResponse& got = tickets[i].response();
      EXPECT_EQ(got.columns, expected.columns);
      if (cases[i % cases.size()].dialect == QueryDialect::kTbql) {
        EXPECT_EQ(got.report.results.rows, expected.report.results.rows);
        EXPECT_EQ(got.report.matched_event_ids,
                  expected.report.matched_event_ids);
      } else {
        // Compare streamed rows cell by cell through the cursors.
        auto lhs = got.cursor();
        auto rhs = expected.cursor();
        const std::vector<sql::Value>* a = nullptr;
        const std::vector<sql::Value>* b = nullptr;
        size_t rows = 0;
        while ((a = lhs.Next()) != nullptr) {
          b = rhs.Next();
          ASSERT_NE(b, nullptr);
          ASSERT_EQ(a->size(), b->size());
          for (size_t cell = 0; cell < a->size(); ++cell) {
            EXPECT_EQ((*a)[cell].Compare((*b)[cell]), 0);
          }
          ++rows;
        }
        EXPECT_EQ(rhs.Next(), nullptr);
        EXPECT_EQ(rows, expected.rows.row_count());
      }
    }
  }
  EXPECT_EQ(service.stats().failed, 0u);
}

/// Shared slow store (~90k events) for the timing-sensitive tests; built
/// once so TSan runs stay tractable.
ThreatRaptor& SlowStore() {
  static std::unique_ptr<ThreatRaptor> tr = BuildWideStore(300, 300);
  return *tr;
}

TEST(HuntServiceTest, CancelQueuedHuntNeverExecutes) {
  ThreatRaptor& tr = SlowStore();
  HuntServiceOptions opts;
  opts.max_concurrent = 1;
  HuntService service(tr.store(), opts);
  // The blocker occupies the only worker; the victim waits in the queue.
  HuntTicket blocker =
      service.Submit(Req("proc p read file f return p, f"));
  blocker.WaitStarted();
  HuntTicket victim = service.Submit(Req("proc p read file f return f"));
  victim.Cancel();
  EXPECT_EQ(victim.Wait().code(), StatusCode::kCancelled);
  blocker.Cancel();  // no need to sit out the blocker's full scan
  (void)blocker.Wait();
  EXPECT_GE(service.stats().cancelled, 1u);
}

TEST(HuntServiceTest, CancelRunningHuntStopsMidQuery) {
  // ~90k result rows: the base scan alone takes long enough that a cancel
  // issued right after admission lands mid-scan (the SQL executor polls
  // the flag at every first-table row visit).
  HuntService service(SlowStore().store());
  HuntTicket ticket =
      service.Submit(Req("proc p read file f return p, f"));
  ticket.WaitStarted();
  // Let the scan get going so the cancel exercises the mid-query polls
  // rather than the pre-execution check.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ticket.Cancel();
  EXPECT_EQ(ticket.Wait().code(), StatusCode::kCancelled);
}

TEST(HuntServiceTest, DeadlineExpiryQueuedAndRunning) {
  HuntService service(SlowStore().store());
  // Already-expired deadline: times out before execution starts.
  auto expired = service.Submit(
      Req("proc p read file f return p, f", QueryDialect::kTbql, "", 0));
  EXPECT_EQ(expired.Wait().code(), StatusCode::kTimeout);
  // Short deadline on a long hunt: expires mid-execution.
  auto slow = service.Submit(Req(
      "proc p read file f return p, f", QueryDialect::kTbql, "", 5'000));
  EXPECT_EQ(slow.Wait().code(), StatusCode::kTimeout);
  // A comfortable deadline does not fire.
  auto ok = service.Submit(Req(
      "proc p[\"%svc1_%\"] read file f return p", QueryDialect::kTbql, "",
      60'000'000));
  EXPECT_TRUE(ok.Wait().ok()) << ok.status().ToString();
  EXPECT_GE(service.stats().timed_out, 2u);
}

TEST(HuntServiceTest, AdmissionQueueOverflowRejects) {
  ThreatRaptor& tr = SlowStore();
  HuntServiceOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 1;
  HuntService service(tr.store(), opts);
  HuntTicket running =
      service.Submit(Req("proc p read file f return p, f"));
  running.WaitStarted();  // drain the queue so only the next submit queues
  HuntTicket queued = service.Submit(Req("proc p read file f return p"));
  HuntTicket rejected = service.Submit(Req("proc p read file f return f"));
  EXPECT_EQ(rejected.Wait().code(), StatusCode::kUnavailable);
  running.Cancel();
  queued.Cancel();
  (void)running.Wait();
  (void)queued.Wait();
  EXPECT_EQ(service.stats().rejected, 1u);
}

TEST(HuntServiceTest, TenantRoundRobinPreventsStarvation) {
  auto tr = BuildWideStore(60, 60);
  HuntServiceOptions opts;
  opts.max_concurrent = 1;
  HuntService service(tr->store(), opts);
  const char* q = "proc p read file f return p, f";
  // Tenant A floods the queue, tenant B arrives last; round-robin admits
  // B's hunt right after A's head-of-line one, so B finishes while A's
  // tail is still pending.
  HuntTicket a1 = service.Submit(Req(q, QueryDialect::kTbql, "tenant-a"));
  HuntTicket a2 = service.Submit(Req(q, QueryDialect::kTbql, "tenant-a"));
  HuntTicket a3 = service.Submit(Req(q, QueryDialect::kTbql, "tenant-a"));
  HuntTicket b1 = service.Submit(Req(q, QueryDialect::kTbql, "tenant-b"));
  ASSERT_TRUE(b1.Wait().ok());
  EXPECT_FALSE(a3.done());  // the flood's tail is still behind B
  ASSERT_TRUE(a1.Wait().ok());
  ASSERT_TRUE(a2.Wait().ok());
  ASSERT_TRUE(a3.Wait().ok());
  EXPECT_EQ(service.stats().tenants, 2u);
}

TEST(HuntServiceTest, CypherAndSqlBlocksAdoptedZeroCopy) {
  // 100 proc seeds / 3000 base rows clear the parallel fan-out thresholds
  // (parallel_min_seeds = 64, parallel_min_rows = 256), so both queries
  // take the shard-parallel path and merge adopted worker blocks.
  auto tr = BuildWideStore(100, 30);
  HuntService service(tr->store());
  // Both backends shard 4 ways by default; a whole-store non-DISTINCT
  // query clears the parallel thresholds, so every row must arrive in an
  // adopted worker block — no per-row merge moves.
  auto cy = service.Run(Req(
      "MATCH (p:proc)-[e:read]->(f:file) RETURN p.exename, f.name",
      QueryDialect::kCypher));
  ASSERT_TRUE(cy.ok()) << cy.status().ToString();
  EXPECT_GT(cy.value().rows.row_count(), 0u);
  EXPECT_EQ(cy.value().rows.pushed_rows(), 0u)
      << "non-DISTINCT parallel merge must adopt whole worker blocks";
  auto sq = service.Run(Req(
      "SELECT e.id, e.subject FROM events e WHERE e.op = 'read'",
      QueryDialect::kSql));
  ASSERT_TRUE(sq.ok()) << sq.status().ToString();
  EXPECT_GT(sq.value().rows.row_count(), 0u);
  EXPECT_EQ(sq.value().rows.pushed_rows(), 0u);
}

TEST(HuntServiceTest, DagSchedulingMatchesSequentialPatternOrder) {
  auto tr = BuildWideStore(24, 24);
  const char* queries[] = {
      // Chain through a shared process entity.
      "proc p read file f[\"%_3%\"] as e1 proc p read file g[\"%_8%\"] as e2 "
      "with e1 before e2 return distinct p, f, g",
      // Two fully independent pattern pairs plus a dependent third.
      "proc a read file x[\"%d2_%\"] as e1 proc b read file y[\"%d5_%\"] as "
      "e2 proc a read file z[\"%_9%\"] as e3 return distinct a, b, z",
  };
  for (const char* q : queries) {
    engine::TbqlExecutor executor(tr->store());
    engine::ExecOptions sequential;
    sequential.parallel_patterns = false;
    auto base = executor.ExecuteText(q, sequential);
    ASSERT_TRUE(base.ok()) << base.status().ToString();

    engine::ExecOptions dag;
    dag.parallel_patterns = true;
    auto par = executor.ExecuteText(q, dag);
    ASSERT_TRUE(par.ok()) << par.status().ToString();

    EXPECT_EQ(par.value().results.rows, base.value().results.rows) << q;
    EXPECT_EQ(par.value().executed_queries, base.value().executed_queries)
        << q;
    EXPECT_EQ(par.value().pattern_match_counts,
              base.value().pattern_match_counts)
        << q;
    EXPECT_EQ(par.value().matched_event_ids, base.value().matched_event_ids)
        << q;
  }
}

TEST(HuntServiceTest, FacadeIngestsWhileHuntsInFlight) {
  auto tr = BuildWideStore(100, 100);
  HuntService* service = tr->hunt_service();
  ASSERT_NE(service, nullptr);
  uint64_t epoch_before = service->epoch();
  HuntTicket slow =
      service->Submit(Req("proc p read file f return p, f"));
  audit::ParsedLog more;
  audit::EntityId p = more.entities.InternProcess("/bin/late", 9999);
  audit::EntityId f = more.entities.InternFile("/data/late");
  audit::SystemEvent ev;
  ev.id = 1;
  ev.subject = p;
  ev.object = f;
  ev.op = audit::EventOp::kRead;
  ev.object_type = audit::EntityType::kFile;
  ev.start_time = 1;
  ev.end_time = 2;
  more.events.push_back(ev);
  // The hunt holds a worker slot (its scan runs ~100ms): the epoch gate
  // waits it out and applies the mutation instead of refusing it.
  slow.WaitStarted();
  EXPECT_TRUE(tr->IngestParsedLog(more).ok());
  // The gate drained the hunt before mutating: its execution is complete
  // (the ticket finishes a beat later — the worker leaves the running set
  // before marking done — so Wait, don't poll).
  EXPECT_TRUE(slow.Wait().ok());
  EXPECT_EQ(service->epoch(), epoch_before + 1);
  auto after = tr->Hunt("proc p[\"%late%\"] read file f return p, f");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().results.rows.size(), 1u);
}

TEST(HuntServiceTest, DestructorCancelsOutstandingHunts) {
  ThreatRaptor& tr = SlowStore();
  HuntTicket running, queued;
  {
    HuntServiceOptions opts;
    opts.max_concurrent = 1;
    HuntService service(tr.store(), opts);
    running = service.Submit(Req("proc p read file f return p, f"));
    running.WaitStarted();
    queued = service.Submit(Req("proc p read file f return f"));
  }
  // Destruction finished both tickets one way or another.
  ASSERT_TRUE(running.done());
  ASSERT_TRUE(queued.done());
  EXPECT_EQ(queued.status().code(), StatusCode::kCancelled);
}

// --- admission fairness & starvation regression tests ---

TEST(HuntServiceTest, TenantFloodDoesNotRejectOtherTenants) {
  // Regression: the global max_queue used to be the only admission bound,
  // so one tenant filling it got every other tenant rejected. Per-tenant
  // caps now reject the flooder at its own cap while others still admit.
  ThreatRaptor& tr = SlowStore();
  HuntServiceOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 8;
  opts.max_queue_per_tenant = 2;
  HuntService service(tr.store(), opts);
  const char* scan = "proc p read file f return p, f";
  HuntTicket blocker = service.Submit(Req(scan));
  blocker.WaitStarted();  // occupy the only worker; everything else queues
  std::vector<HuntTicket> flood;
  for (int i = 0; i < 4; ++i) {
    flood.push_back(service.Submit(Req(scan, QueryDialect::kTbql,
                                       "tenant-a")));
  }
  size_t flood_rejected = 0;
  for (const HuntTicket& t : flood) {
    if (t.done() && t.status().code() == StatusCode::kUnavailable) {
      ++flood_rejected;
    }
  }
  EXPECT_EQ(flood_rejected, 2u);  // 2 queued at the cap, 2 rejected
  // Tenant B is NOT starved out by A's flood: the global queue has room
  // and B's own queue is empty.
  HuntTicket b = service.Submit(Req(
      "proc p[\"%svc1_%\"] read file f return p", QueryDialect::kTbql,
      "tenant-b"));
  EXPECT_FALSE(b.done()) << b.status().ToString();
  for (HuntTicket& t : flood) t.Cancel();
  blocker.Cancel();
  (void)blocker.Wait();
  EXPECT_TRUE(b.Wait().ok()) << b.status().ToString();
  for (HuntTicket& t : flood) (void)t.Wait();
  EXPECT_EQ(service.stats().rejected, 2u);
}

TEST(HuntServiceTest, SetTenantPolicyEffectiveAtNextAdmission) {
  // Runtime reconfig: tightening a tenant's queue cap applies to its next
  // Submit (queued hunts are never evicted), and the live entry reflects
  // the new weight/cap in the metrics surface immediately.
  ThreatRaptor& tr = SlowStore();
  HuntServiceOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 16;
  opts.max_queue_per_tenant = 4;
  HuntService service(tr.store(), opts);
  const char* scan = "proc p read file f return p, f";
  HuntTicket blocker = service.Submit(Req(scan));
  blocker.WaitStarted();  // occupy the only worker; everything else queues
  std::vector<HuntTicket> queued;
  queued.push_back(service.Submit(Req(scan, QueryDialect::kTbql,
                                      "tenant-a")));
  queued.push_back(service.Submit(Req(scan, QueryDialect::kTbql,
                                      "tenant-a")));
  for (const HuntTicket& t : queued) ASSERT_FALSE(t.done());
  service::TenantPolicy tight;
  tight.weight = 5;
  tight.max_queued = 2;  // below the service default, at the live backlog
  service.SetTenantPolicy("tenant-a", tight);
  HuntTicket rejected =
      service.Submit(Req(scan, QueryDialect::kTbql, "tenant-a"));
  EXPECT_TRUE(rejected.done());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  for (const HuntTicket& t : queued) EXPECT_FALSE(t.done());  // not evicted
  bool seen = false;
  for (const auto& tm : service.metrics().tenants) {
    if (tm.tenant != "tenant-a") continue;
    seen = true;
    EXPECT_EQ(tm.weight, 5);
    EXPECT_EQ(tm.max_queued, 2u);
  }
  EXPECT_TRUE(seen);
  // Loosening back: max_queued = 0 resolves to the service-wide default
  // again, so the tenant admits past the tightened cap.
  service.SetTenantPolicy("tenant-a", service::TenantPolicy{});
  HuntTicket readmitted =
      service.Submit(Req(scan, QueryDialect::kTbql, "tenant-a"));
  EXPECT_FALSE(readmitted.done());
  for (HuntTicket& t : queued) t.Cancel();
  readmitted.Cancel();
  blocker.Cancel();
  (void)blocker.Wait();
  for (HuntTicket& t : queued) (void)t.Wait();
  (void)readmitted.Wait();
}

TEST(HuntServiceTest, FacadeSetsTenantPolicyBeforeFirstSubmit) {
  // The facade path instantiates the lazy service, so a policy set before
  // the tenant's first hunt is already in place at creation time; with no
  // store loaded the call reports failure instead.
  ThreatRaptor empty;
  EXPECT_FALSE(empty.SetTenantPolicy("tenant-a", service::TenantPolicy{}));
  auto tr = BuildWideStore(10, 10);
  service::TenantPolicy policy;
  policy.weight = 3;
  policy.max_queued = 7;
  ASSERT_TRUE(tr->SetTenantPolicy("tenant-a", policy));
  HuntRequest req = Req("proc p[\"%svc1%\"] read file f return p, f",
                        QueryDialect::kTbql, "tenant-a");
  ASSERT_TRUE(tr->hunt_service()->Run(req).ok());
  HuntService::Metrics m = tr->service_metrics();
  ASSERT_EQ(m.tenants.size(), 1u);
  EXPECT_EQ(m.tenants[0].tenant, "tenant-a");
  EXPECT_EQ(m.tenants[0].weight, 3);
  EXPECT_EQ(m.tenants[0].max_queued, 7u);
}

TEST(HuntServiceTest, CancelQueuedReleasesSlotImmediately) {
  // Regression: cancelling a queued hunt used to leave it parked in the
  // queue (Wait() blocked until a worker dequeued it past the running
  // blocker, and its slot kept counting against max_queue). Cancel now
  // reaps it out of the queue on the caller's thread.
  ThreatRaptor& tr = SlowStore();
  HuntServiceOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 1;
  HuntService service(tr.store(), opts);
  HuntTicket blocker = service.Submit(Req("proc p read file f return p, f"));
  blocker.WaitStarted();
  HuntTicket victim = service.Submit(Req("proc p read file f return f"));
  victim.Cancel();
  // Done without any worker involvement — the blocker still holds the
  // only worker and will for a while yet.
  EXPECT_EQ(victim.Wait().code(), StatusCode::kCancelled);
  // Its queue slot is free again: the next submit admits instead of
  // bouncing off max_queue = 1.
  HuntTicket next =
      service.Submit(Req("proc p[\"%svc1_%\"] read file f return p"));
  EXPECT_FALSE(next.done()) << next.status().ToString();
  blocker.Cancel();
  (void)blocker.Wait();
  EXPECT_TRUE(next.Wait().ok()) << next.status().ToString();
}

TEST(HuntServiceTest, QueuedDeadlineExpiryReleasesSlot) {
  // Regression: a queued hunt whose deadline passed used to stay queued
  // (and its Wait() blocked) until a worker got around to dequeuing it.
  // Wait() now reaps the expired hunt itself.
  ThreatRaptor& tr = SlowStore();
  HuntServiceOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 1;
  HuntService service(tr.store(), opts);
  HuntTicket blocker = service.Submit(Req("proc p read file f return p, f"));
  blocker.WaitStarted();
  HuntTicket victim = service.Submit(Req(
      "proc p read file f return f", QueryDialect::kTbql, "", 20'000));
  EXPECT_EQ(victim.Wait().code(), StatusCode::kTimeout);
  HuntTicket next =
      service.Submit(Req("proc p[\"%svc1_%\"] read file f return p"));
  EXPECT_FALSE(next.done()) << next.status().ToString();
  blocker.Cancel();
  (void)blocker.Wait();
  EXPECT_TRUE(next.Wait().ok()) << next.status().ToString();
  EXPECT_GE(service.stats().timed_out, 1u);
}

TEST(HuntServiceTest, SubmitAfterShutdownIsCancelled) {
  // Regression: a post-shutdown Submit used to report Unavailable("hunt
  // admission queue full") and count as an admission rejection.
  auto tr = BuildWideStore(5, 5);
  HuntService service(tr->store());
  ASSERT_TRUE(service.Run(Req("proc p read file f return p")).ok());
  service.Shutdown();
  HuntTicket late = service.Submit(Req("proc p read file f return p"));
  EXPECT_TRUE(late.done());
  EXPECT_EQ(late.Wait().code(), StatusCode::kCancelled);
  EXPECT_NE(late.status().ToString().find("shut down"), std::string::npos)
      << late.status().ToString();
  HuntService::Stats stats = service.stats();
  EXPECT_EQ(stats.rejected_shutdown, 1u);
  EXPECT_EQ(stats.rejected, 0u);  // not conflated with queue-full
}

TEST(HuntServiceTest, TenantMapPrunedDistinctCounted) {
  // Regression: the per-tenant queue map never dropped entries, so a churn
  // of one-off tenant names grew it without bound. Idle entries beyond
  // max_idle_tenants are pruned; the distinct-tenant stat survives.
  auto tr = BuildWideStore(5, 5);
  HuntServiceOptions opts;
  opts.max_idle_tenants = 4;
  HuntService service(tr->store(), opts);
  for (int i = 0; i < 12; ++i) {
    auto r = service.Run(Req("proc p read file f return p",
                             QueryDialect::kTbql,
                             "tenant-" + std::to_string(i)));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(service.stats().tenants, 12u);
  HuntService::Metrics m = service.metrics();
  EXPECT_EQ(m.distinct_tenants, 12u);
  EXPECT_LE(m.tracked_tenants, opts.max_idle_tenants);
}

TEST(HuntServiceTest, CostBudgetSerializesFullScans) {
  // Two whole-store scans against a budget of one full-scan unit: the
  // second hunt must wait for the first even though a worker is free.
  ThreatRaptor& tr = SlowStore();
  HuntServiceOptions opts;
  opts.max_concurrent = 2;
  opts.admission_cost_budget = 1.0;
  HuntService service(tr.store(), opts);
  const char* scan = "proc p read file f return p, f";
  HuntTicket first = service.Submit(Req(scan));
  first.WaitStarted();
  HuntTicket second = service.Submit(Req(scan));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  HuntService::Metrics m = service.metrics();
  EXPECT_EQ(m.running, 1u);      // the free worker could not admit it...
  EXPECT_EQ(m.queue_depth, 1u);  // ...so the second scan is still queued
  EXPECT_GT(m.running_cost, 0.5);
  first.Cancel();
  (void)first.Wait();
  second.WaitStarted();  // budget released -> admitted
  second.Cancel();
  (void)second.Wait();
}

TEST(HuntServiceTest, MetricsReportLatencyAndTenants) {
  auto tr = BuildWideStore(20, 20);
  HuntService service(tr->store());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        service.Run(Req("proc p[\"%svc1%\"] read file f return p, f")).ok());
  }
  HuntService::Metrics m = service.metrics();
  EXPECT_EQ(m.queue_depth, 0u);
  EXPECT_EQ(m.running, 0u);
  EXPECT_GE(m.workers, 1u);
  EXPECT_GT(m.uptime_seconds, 0.0);
  EXPECT_EQ(m.hunt_latency.count, 8u);
  EXPECT_EQ(m.queue_wait.count, 8u);
  EXPECT_GT(m.hunt_latency.p50_micros, 0.0);
  EXPECT_LE(m.hunt_latency.p50_micros, m.hunt_latency.p99_micros);
  EXPECT_LE(m.hunt_latency.p99_micros, m.hunt_latency.max_micros + 1e-9);
  ASSERT_EQ(m.tenants.size(), 1u);  // the default tenant
  EXPECT_EQ(m.tenants[0].submitted, 8u);
  EXPECT_EQ(m.tenants[0].completed, 8u);
  EXPECT_GT(m.tenants[0].qps, 0.0);
}

TEST(HuntServiceTest, FacadeExportsServiceMetrics) {
  ThreatRaptor empty;  // no store: an all-zero snapshot, no lazy service
  EXPECT_EQ(empty.service_metrics().hunt_latency.count, 0u);
  auto tr = BuildWideStore(10, 10);
  ASSERT_TRUE(tr->Hunt("proc p[\"%svc2%\"] read file f return p, f").ok());
  HuntService::Metrics m = tr->service_metrics();
  EXPECT_GE(m.hunt_latency.count, 1u);
  EXPECT_GE(m.epoch, 1u);          // BuildWideStore's ingest
  EXPECT_GE(m.gate_acquires, 1u);  // ... went through the write gate
}

TEST(HuntServiceTest, PlanTimeCostEstimates) {
  auto tr = BuildWideStore(50, 20);  // 1000 events, svc0..svc49
  const storage::AuditStore* store = tr->store();
  // Relational: an indexed point filter probes far fewer rows than a
  // whole-table scan.
  double scan = store->relational().EstimateCost("SELECT e.id FROM events e");
  double point = store->relational().EstimateCost(
      "SELECT s.id FROM entities s WHERE s.exename = '/bin/svc1'");
  EXPECT_GT(scan, 0.0);
  EXPECT_GT(point, 0.0);
  EXPECT_LT(point, scan);
  // Cypher: pattern radius scales the seed estimate.
  double hop0 = store->graph().EstimateCost("MATCH (p:proc) RETURN p.exename");
  double hop1 = store->graph().EstimateCost(
      "MATCH (p:proc)-[e:read]->(f:file) RETURN p.exename");
  EXPECT_GT(hop0, 0.0);
  EXPECT_GT(hop1, hop0);
  // TBQL sums its compiled patterns' backend estimates; unparseable text
  // prices at zero (it fails fast at run time instead).
  engine::TbqlExecutor executor(store);
  EXPECT_GT(executor.EstimateCost("proc p read file f return p, f"), 0.0);
  EXPECT_EQ(executor.EstimateCost("this is not a query"), 0.0);
  EXPECT_EQ(store->relational().EstimateCost("SELECT FROM"), 0.0);
}

TEST(HuntServiceTest, MixedLoadDifferentialMatchesSerial) {
  // Ingest + standing hunt + one-shot hunts all at once: the ingested
  // noise (write events by /bin/noise*) matches nothing the one-shot
  // hunts query, so their concurrent results must stay byte-identical to
  // the quiet serial ground truth. Runs under the TSan CI job.
  auto tr = BuildWideStore(30, 30);
  HuntService* service = tr->hunt_service();
  ASSERT_NE(service, nullptr);
  const char* tbql = "proc p[\"%svc1%\"] read file f return p, f";
  const char* sql =
      "SELECT s.exename FROM entities s WHERE s.exename LIKE '%svc2%'";
  auto serial_tbql = service->Run(Req(tbql));
  ASSERT_TRUE(serial_tbql.ok());
  auto serial_sql = service->Run(Req(sql, QueryDialect::kSql));
  ASSERT_TRUE(serial_sql.ok());
  const size_t serial_sql_rows = serial_sql.value().rows.row_count();

  // Standing hunt watching exactly the noise the writer injects.
  std::atomic<size_t> alerts{0};
  service::StandingSink sink;
  sink.on_alert = [&](const service::StandingUpdate&) { ++alerts; };
  service::StandingHandle standing = service->SubmitStanding(
      Req("MATCH (p:proc)-[e:write]->(f:file) RETURN p.exename, f.name",
          QueryDialect::kCypher),
      sink);
  ASSERT_TRUE(standing.valid());

  constexpr int kBatches = 6;
  std::atomic<int> ingest_failures{0};
  std::thread writer([&] {
    for (int b = 0; b < kBatches; ++b) {
      audit::ParsedLog log;
      audit::EntityId p = log.entities.InternProcess(
          "/bin/noise" + std::to_string(b), 5000 + b);
      audit::EntityId f =
          log.entities.InternFile("/noise/n" + std::to_string(b));
      audit::SystemEvent ev;
      ev.id = 1;
      ev.subject = p;
      ev.object = f;
      ev.object_type = audit::EntityType::kFile;
      ev.op = audit::EventOp::kWrite;
      ev.start_time = 10'000'000 + b;
      ev.end_time = 10'000'001 + b;
      log.events.push_back(ev);
      if (!tr->IngestParsedLog(log).ok()) ++ingest_failures;
    }
  });
  std::vector<std::thread> hunters;
  std::atomic<int> mismatches{0};
  for (int h = 0; h < 3; ++h) {
    hunters.emplace_back([&, h] {
      for (int iter = 0; iter < 4; ++iter) {
        if (h % 2 == 0) {
          auto r = service->Run(Req(tbql));
          if (!r.ok() ||
              r.value().report.results.rows !=
                  serial_tbql.value().report.results.rows ||
              r.value().report.matched_event_ids !=
                  serial_tbql.value().report.matched_event_ids) {
            ++mismatches;
          }
        } else {
          auto r = service->Run(Req(sql, QueryDialect::kSql));
          if (!r.ok() || r.value().rows.row_count() != serial_sql_rows) {
            ++mismatches;
          }
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : hunters) t.join();
  EXPECT_EQ(ingest_failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  ASSERT_TRUE(standing.WaitEpoch(service->epoch()));
  EXPECT_EQ(standing.total_rows(), static_cast<size_t>(kBatches));
  // One refresh may cover several epochs, so alerts <= batches.
  EXPECT_GE(alerts.load(), 1u);
  EXPECT_LE(alerts.load(), static_cast<size_t>(kBatches));
  standing.Cancel();
  HuntService::Stats stats = service->stats();
  EXPECT_GE(stats.ingests, static_cast<size_t>(kBatches));
  EXPECT_EQ(service->metrics().epoch_lag, 0u);
  EXPECT_GE(service->metrics().gate_acquires, static_cast<size_t>(kBatches));
}

TEST(HuntServiceTest, FacadeHuntRoutesThroughService) {
  auto tr = BuildWideStore(10, 10);
  auto report = tr->Hunt("proc p[\"%svc2%\"] read file f return p, f");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().results.rows.size(), 10u);
  ASSERT_NE(tr->hunt_service(), nullptr);
  EXPECT_GE(tr->hunt_service()->stats().completed, 1u);
}

// ---------------------------------------------------------------------------
// Observability: EXPLAIN ANALYZE span trees, the slow-hunt log, and the
// exportable telemetry registry.

/// Depth-first collect of every span whose name starts with `prefix`.
void CollectSpans(const obs::TraceSpan& span, const std::string& prefix,
                  std::vector<const obs::TraceSpan*>* out) {
  if (span.name().rfind(prefix, 0) == 0) out->push_back(&span);
  for (const auto& child : span.children()) {
    CollectSpans(*child, prefix, out);
  }
}

TEST(HuntServiceObsTest, ProfilingIsByteIdenticalToUnprofiled) {
  auto tr = BuildWideStore(30, 20);
  HuntService service(tr->store());
  struct Case {
    const char* text;
    QueryDialect dialect;
  } cases[] = {
      {"proc p[\"%svc1%\"] read file f return p, f", QueryDialect::kTbql},
      {"MATCH (p:proc)-[e:read]->(f:file) RETURN p.exename, f.name",
       QueryDialect::kCypher},
      {"SELECT e.id, e.subject FROM events e WHERE e.op = 'read'",
       QueryDialect::kSql},
  };
  for (const Case& c : cases) {
    auto plain = service.Run(Req(c.text, c.dialect));
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    EXPECT_EQ(plain.value().profile, nullptr)
        << "profile must be absent unless requested";

    HuntRequest profiled = Req(c.text, c.dialect);
    profiled.profile = true;
    auto traced = service.Run(std::move(profiled));
    ASSERT_TRUE(traced.ok()) << traced.status().ToString();
    ASSERT_NE(traced.value().profile, nullptr);

    // Results are byte-identical with profiling on.
    EXPECT_EQ(traced.value().columns, plain.value().columns);
    if (c.dialect == QueryDialect::kTbql) {
      EXPECT_EQ(traced.value().report.results.rows,
                plain.value().report.results.rows);
      EXPECT_EQ(traced.value().report.matched_event_ids,
                plain.value().report.matched_event_ids);
    } else {
      auto lhs = traced.value().cursor();
      auto rhs = plain.value().cursor();
      const std::vector<sql::Value>* a = nullptr;
      while ((a = lhs.Next()) != nullptr) {
        const std::vector<sql::Value>* b = rhs.Next();
        ASSERT_NE(b, nullptr);
        ASSERT_EQ(a->size(), b->size());
        for (size_t cell = 0; cell < a->size(); ++cell) {
          EXPECT_EQ((*a)[cell].Compare((*b)[cell]), 0);
        }
      }
      EXPECT_EQ(rhs.Next(), nullptr);
    }

    // Tree shape: a finished "hunt" root carrying the dialect note, with
    // queue_wait and execute children.
    const obs::TraceSpan& root = *traced.value().profile;
    EXPECT_EQ(root.name(), "hunt");
    EXPECT_TRUE(root.finished());
    std::vector<const obs::TraceSpan*> waits, execs;
    CollectSpans(root, "queue_wait", &waits);
    CollectSpans(root, "execute", &execs);
    EXPECT_EQ(waits.size(), 1u);
    ASSERT_EQ(execs.size(), 1u);
    bool dialect_noted = false;
    for (const auto& [k, v] : root.notes()) {
      if (k == "dialect") dialect_noted = true;
    }
    EXPECT_TRUE(dialect_noted);
  }
}

TEST(HuntServiceObsTest, TbqlProfileCarriesPatternAndPhaseSpans) {
  auto tr = BuildWideStore(30, 20);
  HuntService service(tr->store());
  HuntRequest request = Req(
      "proc p[\"%svc1%\"] read file f[\"%_1\"] return p, f");
  request.profile = true;
  auto response = service.Run(std::move(request));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_NE(response.value().profile, nullptr);
  const obs::TraceSpan& root = *response.value().profile;

  std::vector<const obs::TraceSpan*> patterns, joins, projects;
  CollectSpans(root, "pattern[", &patterns);
  CollectSpans(root, "join", &joins);
  CollectSpans(root, "project", &projects);
  ASSERT_GE(patterns.size(), 1u);
  EXPECT_EQ(joins.size(), 1u);
  EXPECT_EQ(projects.size(), 1u);
  for (const obs::TraceSpan* p : patterns) {
    EXPECT_TRUE(p->finished());
    EXPECT_GE(p->counter("match_count", -1), 0)
        << p->name() << " must fold its match count";
  }

  // The per-pattern execution time is contained in the hunt: the pattern
  // spans' summed duration cannot exceed the root's wall clock by more
  // than bookkeeping noise (patterns may run concurrently, so the sum has
  // no lower bound, but each individual span fits inside the root).
  for (const obs::TraceSpan* p : patterns) {
    EXPECT_LE(p->duration_micros(), root.duration_micros() + 1000);
  }
}

TEST(HuntServiceObsTest, StorageScanSpansCarryWorkCounters) {
  // Big enough to clear the parallel fan-out thresholds so the storage
  // executors emit per-morsel-worker scan spans.
  auto tr = BuildWideStore(100, 30);
  HuntService service(tr->store());
  HuntRequest request = Req(
      "MATCH (p:proc)-[e:read]->(f:file) RETURN p.exename, f.name",
      QueryDialect::kCypher);
  request.profile = true;
  auto response = service.Run(std::move(request));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_NE(response.value().profile, nullptr);

  std::vector<const obs::TraceSpan*> scans;
  CollectSpans(*response.value().profile, "morsel_worker[", &scans);
  ASSERT_GE(scans.size(), 1u) << "parallel scan must emit per-worker spans";
  int64_t rows = 0, seeds = 0;
  for (const obs::TraceSpan* s : scans) {
    EXPECT_TRUE(s->finished());
    rows += s->counter("rows_emitted");
    seeds += s->counter("seeds_visited");
  }
  EXPECT_EQ(static_cast<size_t>(rows), response.value().rows.row_count());
  EXPECT_GT(seeds, 0);
}

TEST(HuntServiceObsTest, ConcurrentProfiledHuntsStayCoherent) {
  auto tr = BuildWideStore(40, 20);
  HuntServiceOptions opts;
  opts.max_concurrent = 4;
  HuntService service(tr->store(), opts);
  std::vector<HuntTicket> tickets;
  for (int i = 0; i < 8; ++i) {
    HuntRequest request = Req(
        i % 2 == 0
            ? "proc p read file f return p, f"
            : "SELECT e.id FROM events e WHERE e.op = 'read'",
        i % 2 == 0 ? QueryDialect::kTbql : QueryDialect::kSql);
    request.profile = true;
    tickets.push_back(service.Submit(std::move(request)));
  }
  for (HuntTicket& t : tickets) {
    ASSERT_TRUE(t.Wait().ok()) << t.status().ToString();
    ASSERT_NE(t.response().profile, nullptr);
    EXPECT_EQ(t.response().profile->name(), "hunt");
    EXPECT_TRUE(t.response().profile->finished());
    // Render both formats concurrently-built trees to exercise the
    // snapshot paths under TSan.
    EXPECT_FALSE(obs::RenderProfileText(*t.response().profile).empty());
    EXPECT_FALSE(obs::RenderProfileJson(*t.response().profile).empty());
  }
}

TEST(HuntServiceObsTest, SlowLogForcesTracingAndAppendsJsonl) {
  std::string path = testing::TempDir() + "/service_slow_hunts.jsonl";
  std::remove(path.c_str());
  auto tr = BuildWideStore(20, 10);
  HuntService service(tr->store());
  service.ConfigureSlowLog(path, /*threshold_micros=*/0);
  // profile not requested: the slow log still captures the span tree.
  auto response =
      service.Run(Req("proc p[\"%svc1%\"] read file f return p, f"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().profile, nullptr);
  EXPECT_GE(service.slow_hunts_logged(), 1u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line).good());
  EXPECT_NE(line.find("\"dialect\":\"tbql\""), std::string::npos);
  EXPECT_NE(line.find("\"profile\":"), std::string::npos);
  EXPECT_NE(line.find("\"name\":\"hunt\""), std::string::npos);

  // Detach: later hunts are not logged.
  service.ConfigureSlowLog("", -1);
  size_t logged = service.slow_hunts_logged();
  EXPECT_EQ(logged, 0u);  // detached log reports zero
  ASSERT_TRUE(
      service.Run(Req("proc p[\"%svc2%\"] read file f return p")).ok());
  EXPECT_EQ(service.slow_hunts_logged(), 0u);
  std::remove(path.c_str());
}

TEST(HuntServiceObsTest, CollectMetricsExportsTheCatalog) {
  auto tr = BuildWideStore(20, 10);
  ASSERT_TRUE(tr->Hunt("proc p[\"%svc1%\"] read file f return p, f").ok());
  obs::MetricsRegistry registry;
  tr->hunt_service()->CollectMetrics(&registry);
  std::string prom = registry.ToPrometheus();
  for (const char* name :
       {"raptor_hunts_submitted_total", "raptor_hunts_completed_total",
        "raptor_admission_queue_depth", "raptor_admission_running",
        "raptor_ingests_total", "raptor_gate_acquires_total", "raptor_epoch",
        "raptor_standing_hunts", "raptor_mqo_dedup_hits_total",
        "raptor_mqo_subresult_hits_total", "raptor_hunt_latency_micros",
        "raptor_queue_wait_micros", "raptor_tenant_submitted_total",
        "raptor_uptime_seconds"}) {
    EXPECT_NE(prom.find(name), std::string::npos) << "missing " << name;
  }
  // The completed hunt landed in the latency histogram.
  EXPECT_NE(prom.find("raptor_hunt_latency_micros_count 1"),
            std::string::npos);
}

TEST(HuntServiceObsTest, FacadeExportMetricsCoversServiceAndDurability) {
  auto tr = BuildWideStore(10, 10);
  ASSERT_TRUE(tr->Hunt("proc p[\"%svc1%\"] read file f return p").ok());
  std::string prom = tr->ExportMetrics();
  EXPECT_NE(prom.find("raptor_hunts_submitted_total"), std::string::npos);
  EXPECT_NE(prom.find("raptor_wal_bytes_total"), std::string::npos);
  EXPECT_NE(prom.find("raptor_checkpoints_total"), std::string::npos);
  EXPECT_NE(prom.find("raptor_durable 0"), std::string::npos);
  std::string json = tr->ExportMetrics(obs::MetricsFormat::kJson);
  EXPECT_NE(json.find("\"name\":\"raptor_hunts_submitted_total\""),
            std::string::npos);
}

}  // namespace
}  // namespace raptor
