//===- tests/serve/CacheEvictionTest.cpp - Eviction vs session stats ------===//
//
// Regression coverage for the quota/LRU layer interacting with live
// analysis: when ServeCache evicts a document while a multithreaded
// driver is still working on it, the eviction only detaches the
// document from the map -- the worker finishes on its shared_ptr, and
// every LoopAnalysisSession's SessionCacheStats stays internally
// consistent (misses equal objects built, solve counts equal solution
// misses). The structural tallies must add up too: documents never
// exceed tenant quotas, and evictions equal creations minus residents.
//
//===----------------------------------------------------------------------===//

#include "serve/ServeCache.h"

#include "frontend/Parser.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace ardf;
using namespace ardf::serve;

namespace {

/// A three-loop program (one nest) so the driver has parallel work and
/// the sessions memoize several instances each.
const char *Source = "do i = 1, 12 {\n"
                     "  A[i] = B[i] + 1;\n"
                     "  C[i] = A[i];\n"
                     "}\n"
                     "do j = 1, 8 {\n"
                     "  do k = 1, 6 {\n"
                     "    X[j, k] = X[j, k] + Y[k];\n"
                     "  }\n"
                     "}\n";

/// Builds and runs a multithreaded driver on \p D, then checks every
/// session's cache tallies for internal consistency.
void analyzeAndCheck(Document &D) {
  std::lock_guard<std::timed_mutex> L(D.M);
  ParseResult PR = parseProgram(Source);
  ASSERT_TRUE(PR.succeeded());
  auto Prog = std::make_unique<Program>(std::move(PR.Prog));
  DriverOptions DO;
  DO.Threads = 3;
  D.Driver = std::make_unique<ProgramAnalysisDriver>(*Prog, std::move(DO));
  D.Programs.push_back(std::move(Prog));
  D.RetainedBytes += std::string(Source).size();
  D.Driver->run();
  EXPECT_GE(D.Driver->report().Ok, 2u);
  EXPECT_EQ(D.Driver->report().Failed, 0u);
  uint64_t TotalSolves = 0;
  for (const AnalyzedLoop &L2 : D.Driver->loops()) {
    if (!L2.Session)
      continue;
    SessionCacheStats S = L2.Session->cacheStats();
    // Misses are builds: they must match the session's own build
    // counters exactly, even though the driver ran multithreaded and
    // the document may have been evicted mid-run.
    EXPECT_EQ(S.InstanceMisses, L2.Session->instancesBuilt());
    EXPECT_EQ(S.SolutionMisses, L2.Session->solvesPerformed());
    // A solution needs its instance first: solves can never outnumber
    // instance uses.
    EXPECT_LE(S.SolutionMisses, S.InstanceHits + S.InstanceMisses);
    TotalSolves += S.SolutionMisses;
  }
  EXPECT_GT(TotalSolves, 0u);
}

} // namespace

TEST(CacheEvictionTest, EvictedDocumentFinishesWithConsistentStats) {
  ServeCache Cache(/*TenantQuota=*/1);
  bool Created = false;
  std::shared_ptr<Document> Held = Cache.lookup("t", "held.arf", Created);
  EXPECT_TRUE(Created);

  // Evict held.arf by streaming other files through the quota-1 tenant
  // while a worker thread analyzes the held document.
  std::thread Worker([&] { analyzeAndCheck(*Held); });
  for (int I = 0; I != 8; ++I)
    Cache.lookup("t", "thrash" + std::to_string(I) + ".arf", Created);
  Worker.join();

  ServeCacheStats CS = Cache.stats();
  EXPECT_EQ(CS.Tenants, 1u);
  EXPECT_EQ(CS.Documents, 1u); // quota holds
  // 9 creations, 1 resident: 8 evictions (held.arf was the first out).
  EXPECT_EQ(CS.Evictions, 8u);
  // The held document is detached but alive and fully analyzed.
  EXPECT_NE(Held->Driver, nullptr);
  EXPECT_GE(Held->Driver->report().Ok, 2u);

  // Re-looking the evicted file up makes a FRESH document: the old
  // warm state is not resurrected (no aliasing with Held).
  std::shared_ptr<Document> Again = Cache.lookup("t", "held.arf", Created);
  EXPECT_TRUE(Created);
  EXPECT_NE(Again.get(), Held.get());
  EXPECT_EQ(Again->Driver, nullptr);
}

TEST(CacheEvictionTest, ConcurrentTenantsEvictIndependently) {
  // N tenants hammered by N threads, each streaming unique files past
  // its quota while analyzing every document it touches. Tenant
  // partitions must stay independent and the global tallies exact.
  constexpr unsigned NumTenants = 4;
  constexpr unsigned FilesPerTenant = 6;
  constexpr unsigned Quota = 2;
  ServeCache Cache(Quota);
  std::atomic<unsigned> Creations{0};

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumTenants; ++T) {
    Threads.emplace_back([&, T] {
      std::string Tenant = "tenant" + std::to_string(T);
      for (unsigned F = 0; F != FilesPerTenant; ++F) {
        bool Created = false;
        std::shared_ptr<Document> D = Cache.lookup(
            Tenant, "f" + std::to_string(F) + ".arf", Created);
        if (Created)
          Creations.fetch_add(1);
        analyzeAndCheck(*D);
      }
    });
  }
  for (std::thread &Th : Threads)
    Th.join();

  ServeCacheStats CS = Cache.stats();
  EXPECT_EQ(CS.Tenants, NumTenants);
  EXPECT_EQ(CS.Documents, NumTenants * Quota);
  EXPECT_EQ(Creations.load(), NumTenants * FilesPerTenant);
  EXPECT_EQ(CS.Evictions, NumTenants * (FilesPerTenant - Quota));
  EXPECT_GT(CS.ResidentBytes, 0u);

  // LRU order: the last two files of each tenant are the residents, so
  // touching them is not a creation, while the first file is gone.
  for (unsigned T = 0; T != NumTenants; ++T) {
    std::string Tenant = "tenant" + std::to_string(T);
    bool Created = true;
    Cache.lookup(Tenant, "f" + std::to_string(FilesPerTenant - 1) + ".arf",
                 Created);
    EXPECT_FALSE(Created) << Tenant;
    Cache.lookup(Tenant, "f0.arf", Created);
    EXPECT_TRUE(Created) << Tenant;
  }

  Cache.clear();
  CS = Cache.stats();
  EXPECT_EQ(CS.Documents, 0u);
}
