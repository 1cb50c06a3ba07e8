#include "routing/fib.h"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>

#include "exec/sync.h"
#include "netbase/contracts.h"

namespace wormhole::routing {

namespace {

// splitmix64 finalizer: avalanches the packed (address, length) key so
// linear probing sees a uniform slot distribution.
std::uint64_t HashKey(std::uint64_t key) {
  key += 0x9E3779B97F4A7C15ull;
  key = (key ^ (key >> 30)) * 0xBF58476D1CE4E5B9ull;
  key = (key ^ (key >> 27)) * 0x94D049BB133111EBull;
  return key ^ (key >> 31);
}

constexpr std::uint32_t MaskAddress(std::uint32_t address, int length) {
  return length <= 0 ? 0 : address & (~std::uint32_t{0} << (32 - length));
}

// A striped lock shared by all FIBs, keyed on the Fib address: sealing is
// a rare, short, build-time event, and a per-Fib mutex would cost 40
// bytes on every router for nothing — but the parallel convergence seals
// many distinct FIBs at once, so one global mutex would serialize that
// whole phase. Striping keeps the memory cost flat and lets unrelated
// FIBs seal concurrently. The stripe is selected dynamically, so the
// mutable index fields cannot be GUARDED_BY-named; the lock discipline
// below (acquire stripe -> recheck sealed_ -> build -> release-store) is
// instead pinned by tests/test_thread_safety.cpp's concurrent-seal race.
exec::Mutex& SealMutexFor(const void* fib) {
  static exec::StripedMutex stripes(64);
  return stripes.For(std::hash<const void*>{}(fib));
}

}  // namespace

void Fib::AddRoute(FibEntry entry) { Add(std::move(entry), false); }

void Fib::AddRouteIfAbsent(FibEntry entry) { Add(std::move(entry), true); }

void Fib::Add(FibEntry entry, bool if_absent) {
  WORMHOLE_ASSERT(
      entry.prefix.length() >= 0 && entry.prefix.length() <= 32,
      "FIB prefix length outside [0, 32]");
  std::sort(entry.next_hops.begin(), entry.next_hops.end());
  NextHop* const unique_end =
      std::unique(entry.next_hops.begin(), entry.next_hops.end());
  entry.next_hops.truncate(
      static_cast<std::size_t>(unique_end - entry.next_hops.begin()));
  pending_.push_back(PendingRoute{std::move(entry), if_absent});
  Invalidate();
}

void Fib::Clear() {
  entries_.clear();
  pending_ = std::vector<PendingRoute>();
  Invalidate();
}

void Fib::Seal() const {
  exec::MutexLock lock(SealMutexFor(this));
  if (sealed_.load(std::memory_order_relaxed)) return;

  if (!pending_.empty()) {
    // Merge the pending adds into entries_. The sealed entries count as
    // adds made before every pending one. When there are none (a new or
    // cleared FIB), the winners go straight into entries_ and reuse its
    // storage.
    std::vector<FibEntry> earlier;
    if (!entries_.empty()) earlier.swap(entries_);
    const std::size_t first_pending = earlier.size();
    const auto route_at = [&](std::uint32_t seq) -> FibEntry& {
      return seq < first_pending ? earlier[seq]
                                 : pending_[seq - first_pending].entry;
    };

    // Sort (key, add sequence) pairs rather than the routes themselves:
    // 16 bytes a move instead of 88.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> order(
        first_pending + pending_.size());
    WORMHOLE_ASSERT(order.size() <= kIndexMask,
                    "FIB too large for the sealed index's entry positions");
    for (std::uint32_t seq = 0; seq < order.size(); ++seq) {
      const Prefix& prefix = route_at(seq).prefix;
      order[seq] = {KeyOf(prefix.address().value(), prefix.length()), seq};
    }
    std::sort(order.begin(), order.end());

    std::size_t distinct = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (i == 0 || order[i].first != order[i - 1].first) ++distinct;
    }
    entries_.reserve(distinct);
    // Per prefix, in add order: the last AddRoute wins, else the first
    // AddRouteIfAbsent.
    for (std::size_t i = 0; i < order.size();) {
      std::uint32_t winner = order[i].second;
      std::size_t j = i + 1;
      for (; j < order.size() && order[j].first == order[i].first; ++j) {
        const std::uint32_t seq = order[j].second;
        if (seq < first_pending || !pending_[seq - first_pending].if_absent) {
          winner = seq;
        }
      }
      entries_.push_back(std::move(route_at(winner)));
      i = j;
    }
    pending_ = std::vector<PendingRoute>();  // frees it: `= {}` would not
  }

  // Load factor <= 0.5: next power of two >= 2 * size (minimum 8 so the
  // empty-slot terminator always exists).
  const std::uint64_t capacity =
      std::bit_ceil(std::max<std::uint64_t>(8, 2 * entries_.size()));
  WORMHOLE_ASSERT(capacity > entries_.size(),
                  "sealed index must keep at least one empty slot");
  slots_.assign(capacity, Slot{});
  slot_mask_ = capacity - 1;

  // Per length: whether it is populated and the range of its masked
  // addresses. entries_ is in ascending address order, so the first
  // address seen at a length is its least and the last its greatest.
  std::array<LengthRange, 33> ranges{};
  std::uint64_t populated = 0;
  for (std::uint32_t index = 0; index < entries_.size(); ++index) {
    const std::uint32_t address = entries_[index].prefix.address().value();
    const int length = entries_[index].prefix.length();
    LengthRange& range = ranges[static_cast<std::size_t>(length)];
    if ((populated & (std::uint64_t{1} << length)) == 0) {
      populated |= std::uint64_t{1} << length;
      range = LengthRange{address, address, length};
    }
    WORMHOLE_DCHECK(range.lo <= address && range.hi <= address,
                    "entries_ is in ascending address order");
    range.hi = address;
    std::uint64_t i = HashKey(KeyOf(address, length)) & slot_mask_;
    while (slots_[i].tag != 0) i = (i + 1) & slot_mask_;
    slots_[i] = Slot{address, TagOf(length) | index};
  }
  lengths_.clear();
  lengths_.reserve(static_cast<std::size_t>(std::popcount(populated)));
  for (int length = 32; length >= 0; --length) {
    if ((populated & (std::uint64_t{1} << length)) != 0) {
      lengths_.push_back(ranges[static_cast<std::size_t>(length)]);
    }
  }
  sealed_.store(true, std::memory_order_release);
}

const FibEntry* Fib::FindSealed(std::uint32_t address, int length) const {
  // Sealed-state transition contract: the flat index may only be probed
  // after the Seal() publication store; slot_mask_ == 0 would turn the
  // probe loop into a single-slot spin on stale data.
  WORMHOLE_DCHECK(sealed_.load(std::memory_order_acquire),
                  "FindSealed before Seal() published the index");
  WORMHOLE_DCHECK(slot_mask_ != 0, "sealed index has no slots");
  const std::uint32_t tag = TagOf(length);
  for (std::uint64_t i = HashKey(KeyOf(address, length)) & slot_mask_;;
       i = (i + 1) & slot_mask_) {
    const Slot& slot = slots_[i];
    if (slot.tag == 0) return nullptr;
    if (slot.address == address && (slot.tag & ~kIndexMask) == tag) {
      return &entries_[slot.tag & kIndexMask];
    }
  }
}

const FibEntry* Fib::Lookup(Ipv4Address dst) const {
  if (!sealed_.load(std::memory_order_acquire)) Seal();
  // Probe only the prefix lengths that exist, most specific first, and
  // only those whose stored range can hold the destination: outside
  // [lo, hi] the hash probe would miss anyway.
  const std::uint32_t address = dst.value();
  for (const LengthRange& range : lengths_) {
    const std::uint32_t masked = MaskAddress(address, range.length);
    if (masked < range.lo || masked > range.hi) continue;
    if (const FibEntry* entry = FindSealed(masked, range.length)) {
      return entry;
    }
  }
  return nullptr;
}

const FibEntry* Fib::LookupExact(const Prefix& prefix) const {
  if (!sealed_.load(std::memory_order_acquire)) Seal();
  return FindSealed(prefix.address().value(), prefix.length());
}

std::vector<const FibEntry*> Fib::Entries() const {
  if (!sealed_.load(std::memory_order_acquire)) Seal();
  std::vector<const FibEntry*> out;
  out.reserve(entries_.size());
  for (const FibEntry& entry : entries_) out.push_back(&entry);
  return out;
}

}  // namespace wormhole::routing
