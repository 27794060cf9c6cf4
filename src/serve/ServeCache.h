//===- serve/ServeCache.h - Tenant-partitioned analysis cache --*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's cross-request memory: one Document per (tenant, file)
/// holding every parsed Program version the warm driver still
/// references, the ProgramAnalysisDriver whose sessions (compiled flow
/// programs and solutions) stay warm across edits, and
/// a small LRU of rendered responses keyed by content hash x request
/// options.
///
/// Containment model: tenants are hard partitions. Each tenant owns an
/// LRU list capped at a document quota; inserting past the quota evicts
/// that tenant's least-recently-used document (never another tenant's),
/// so one tenant streaming unique files can only thrash its own
/// entries. Eviction is safe under concurrency: lookups hand out
/// shared_ptr<Document>, so a worker mid-analysis on an evicted
/// document finishes on the live object and the memory is reclaimed
/// when the last worker lets go.
///
/// Locking: the cache map has one mutex for structural operations
/// (lookup/insert/evict -- all O(1)-ish and allocation-light); each
/// Document has its own mutex serializing analysis on that document.
/// Nothing slow runs under the cache mutex: no code holds both mutexes
/// at once (stats() reads each document's atomic RetainedBytes), and an
/// evicted document is released only after the cache mutex is unlocked,
/// since dropping the last reference destroys its driver.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_SERVE_SERVECACHE_H
#define ARDF_SERVE_SERVECACHE_H

#include "driver/ProgramAnalysisDriver.h"
#include "ir/Program.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ardf {
namespace serve {

/// FNV-1a 64-bit content hash (the cache key ingredient).
uint64_t hashBytes(std::string_view Bytes);

/// One cached (tenant, file) document. All members except the mutex and
/// RetainedBytes are guarded by it: a worker locks the document for the
/// whole analysis of one request against it. The mutex is timed so that
/// a request waits for the document no longer than its own deadline.
struct Document {
  std::timed_mutex M;

  /// Content hash of the current (latest analyzed) source version.
  uint64_t SourceHash = 0;

  /// Signature of the DriverOptions the warm driver was built with; an
  /// analyze request under different options rebuilds cold (0 = no
  /// driver yet).
  uint64_t DriverOptionsKey = 0;

  /// Approximate resident source bytes across retained versions. Written
  /// under the document mutex; atomic so that ServeCache::stats() reads
  /// it without waiting for a busy document.
  std::atomic<size_t> RetainedBytes{0};

  /// Every program version the driver was handed, oldest first. The
  /// driver's reused sessions keep referencing old versions (the
  /// rerun lifetime rule), so versions are retained until the worker
  /// resets the document (bounded by the server's per-document cap).
  std::vector<std::unique_ptr<Program>> Programs;

  /// Warm driver over Programs.back(); null until the first analyzable
  /// request (or after a reset).
  std::unique_ptr<ProgramAnalysisDriver> Driver;

  /// A rendered response memo: Key folds content hash and the
  /// analysis-relevant request options.
  struct CachedResponse {
    uint64_t Key = 0;
    std::string ResultJson;
  };

  /// Tiny per-document response LRU, most recent first.
  static constexpr size_t MaxResponses = 4;
  std::vector<CachedResponse> Responses;

  /// Finds a memoized response; moves it to the front on hit.
  const std::string *findResponse(uint64_t Key);

  /// Inserts (or refreshes) a memoized response, trimming to
  /// MaxResponses.
  void rememberResponse(uint64_t Key, std::string ResultJson);

  /// Drops the driver, retained programs, and memos (the bounded-memory
  /// reset path; also what a parse failure leaves behind).
  void reset();
};

/// Point-in-time structural tallies of the cache.
struct ServeCacheStats {
  size_t Tenants = 0;
  size_t Documents = 0;
  size_t ResidentBytes = 0;
  uint64_t Evictions = 0;
};

/// The tenant-partitioned document cache.
class ServeCache {
public:
  /// \p TenantQuota caps live documents per tenant (0 means 1: a quota
  /// of zero would make every request uncacheable, which no caller
  /// wants).
  explicit ServeCache(unsigned TenantQuota);

  /// The document of (tenant, file), created on first use. Touches the
  /// tenant's LRU and evicts past-quota documents (eviction only
  /// detaches them from the map; live references finish safely, and the
  /// last one destroys the document outside the cache mutex).
  /// \p Created reports whether this call made the document.
  std::shared_ptr<Document> lookup(const std::string &Tenant,
                                   const std::string &File, bool &Created);

  /// Drops every document (tests; the daemon never calls this while
  /// serving).
  void clear();

  ServeCacheStats stats() const;

private:
  struct TenantState {
    /// Most-recently-used first; pair of file name and document.
    std::list<std::pair<std::string, std::shared_ptr<Document>>> Lru;
  };

  mutable std::mutex M;
  std::map<std::string, TenantState> Tenants;
  unsigned Quota;
  uint64_t Evictions = 0;
};

} // namespace serve
} // namespace ardf

#endif // ARDF_SERVE_SERVECACHE_H
