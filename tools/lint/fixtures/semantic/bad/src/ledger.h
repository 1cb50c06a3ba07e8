// sem-const-mutation fixture, out of line: Ledger::Total is defined in
// ledger.cpp, which sorts (and so is parsed) before this header. Its
// write to a mutable field must still be checked against this class.
#pragma once

namespace fix {

class Ledger {
 public:
  int Total() const;

 private:
  mutable int reads_ = 0;
};

}  // namespace fix
