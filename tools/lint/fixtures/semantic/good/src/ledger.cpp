#include "ledger.h"

namespace fix {

int Ledger::Total() const {
  MutexLock lock(mutex_);
  reads_ += 1;  // OK: an RAII lock local precedes the write
  return reads_;
}

}  // namespace fix
