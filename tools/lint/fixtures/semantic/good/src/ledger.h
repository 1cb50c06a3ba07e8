// sem-const-mutation fixture, out of line and clean: Ledger::Total is
// defined in ledger.cpp, parsed before this header, and writes its
// mutable field under an RAII lock (Mutex and MutexLock are the ones in
// const_mutation.cpp).
#pragma once

namespace fix {

class Ledger {
 public:
  int Total() const;

 private:
  mutable Mutex mutex_;
  mutable int reads_ = 0;
};

}  // namespace fix
