//===- serve/ServeCache.cpp - Tenant-partitioned analysis cache -----------===//

#include "serve/ServeCache.h"

#include "telemetry/Telemetry.h"

#include <algorithm>

using namespace ardf;
using namespace ardf::serve;

uint64_t serve::hashBytes(std::string_view Bytes) {
  uint64_t H = 1469598103934665603ull; // FNV offset basis
  for (char C : Bytes) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ull; // FNV prime
  }
  return H;
}

const std::string *Document::findResponse(uint64_t Key) {
  for (size_t I = 0; I < Responses.size(); ++I) {
    if (Responses[I].Key != Key)
      continue;
    if (I != 0)
      std::rotate(Responses.begin(), Responses.begin() + I,
                  Responses.begin() + I + 1);
    return &Responses.front().ResultJson;
  }
  return nullptr;
}

void Document::rememberResponse(uint64_t Key, std::string ResultJson) {
  for (size_t I = 0; I < Responses.size(); ++I) {
    if (Responses[I].Key != Key)
      continue;
    Responses[I].ResultJson = std::move(ResultJson);
    std::rotate(Responses.begin(), Responses.begin() + I,
                Responses.begin() + I + 1);
    return;
  }
  Responses.insert(Responses.begin(), {Key, std::move(ResultJson)});
  if (Responses.size() > MaxResponses)
    Responses.resize(MaxResponses);
}

void Document::reset() {
  Driver.reset();
  Programs.clear();
  Responses.clear();
  SourceHash = 0;
  RetainedBytes = 0;
}

ServeCache::ServeCache(unsigned TenantQuota)
    : Quota(TenantQuota == 0 ? 1 : TenantQuota) {}

std::shared_ptr<Document> ServeCache::lookup(const std::string &Tenant,
                                             const std::string &File,
                                             bool &Created) {
  // Declared before the lock, so destroyed after the unlock: dropping
  // an evicted document may destroy its whole driver.
  std::vector<std::shared_ptr<Document>> Evicted;
  std::lock_guard<std::mutex> Lock(M);
  TenantState &T = Tenants[Tenant];
  for (auto It = T.Lru.begin(); It != T.Lru.end(); ++It) {
    if (It->first != File)
      continue;
    T.Lru.splice(T.Lru.begin(), T.Lru, It);
    Created = false;
    return T.Lru.front().second;
  }
  Created = true;
  auto Doc = std::make_shared<Document>();
  T.Lru.emplace_front(File, Doc);
  while (T.Lru.size() > Quota) {
    Evicted.push_back(std::move(T.Lru.back().second));
    T.Lru.pop_back();
    ++Evictions;
    telem::count(telem::Counter::ServeCacheEvictions);
  }
  return Doc;
}

void ServeCache::clear() {
  std::map<std::string, TenantState> Dropped;
  std::lock_guard<std::mutex> Lock(M);
  Dropped.swap(Tenants);
}

ServeCacheStats ServeCache::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  ServeCacheStats S;
  S.Tenants = Tenants.size();
  S.Evictions = Evictions;
  for (const auto &[Name, T] : Tenants) {
    (void)Name;
    S.Documents += T.Lru.size();
    for (const auto &[File, Doc] : T.Lru) {
      (void)File;
      S.ResidentBytes += Doc->RetainedBytes;
    }
  }
  return S;
}
