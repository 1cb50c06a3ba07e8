#include "sim/footprint.h"

#include <algorithm>

namespace wormhole::sim {

void Footprint::Insert(topo::AsNumber& slot, topo::AsNumber asn) {
  slot = asn;
  const auto it = std::lower_bound(ases_.begin(), ases_.end(), asn);
  if (it == ases_.end() || *it != asn) ases_.insert(it, asn);
}

}  // namespace wormhole::sim
