//===- support/Deadline.cpp - The running request's deadline --------------===//

#include "support/Deadline.h"

#include "telemetry/Telemetry.h"

using namespace ardf;

static thread_local uint64_t Current = 0;

uint64_t deadline::afterMs(uint64_t Ms) {
  if (Ms == 0)
    return 0;
  uint64_t Now = telem::wallNowNs();
  return Ms > (UINT64_MAX - Now) / 1000000ull ? UINT64_MAX
                                               : Now + Ms * 1000000ull;
}

uint64_t deadline::current() { return Current; }

bool deadline::passed() {
  return Current != 0 && telem::wallNowNs() >= Current;
}

deadline::Scope::Scope(uint64_t AtNs) : Prev(Current) { Current = AtNs; }

deadline::Scope::~Scope() { Current = Prev; }
