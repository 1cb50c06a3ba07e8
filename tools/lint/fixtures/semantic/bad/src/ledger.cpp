#include "ledger.h"

namespace fix {

int Ledger::Total() const {
  reads_ += 1;  // BAD: unguarded write in an out-of-line const method
  return reads_;
}

}  // namespace fix
