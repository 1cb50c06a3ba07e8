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

void Fib::AddRoute(FibEntry entry) {
  WORMHOLE_ASSERT(
      entry.prefix.length() >= 0 && entry.prefix.length() <= 32,
      "FIB prefix length outside [0, 32]");
  std::sort(entry.next_hops.begin(), entry.next_hops.end());
  NextHop* const unique_end =
      std::unique(entry.next_hops.begin(), entry.next_hops.end());
  entry.next_hops.truncate(
      static_cast<std::size_t>(unique_end - entry.next_hops.begin()));
  const auto key = std::make_pair(entry.prefix.address().value(),
                                  entry.prefix.length());
  last_ = routes_.insert_or_assign(HintFor(), key, std::move(entry));
  Invalidate();
}

bool Fib::AddRouteIfAbsent(FibEntry entry) {
  WORMHOLE_ASSERT(
      entry.prefix.length() >= 0 && entry.prefix.length() <= 32,
      "FIB prefix length outside [0, 32]");
  std::sort(entry.next_hops.begin(), entry.next_hops.end());
  NextHop* const unique_end =
      std::unique(entry.next_hops.begin(), entry.next_hops.end());
  entry.next_hops.truncate(
      static_cast<std::size_t>(unique_end - entry.next_hops.begin()));
  const auto key = std::make_pair(entry.prefix.address().value(),
                                  entry.prefix.length());
  const std::size_t before = routes_.size();
  last_ = routes_.try_emplace(HintFor(), key, std::move(entry));
  const bool inserted = routes_.size() != before;
  if (inserted) Invalidate();
  return inserted;
}

void Fib::Seal() const {
  exec::MutexLock lock(SealMutexFor(this));
  if (sealed_.load(std::memory_order_relaxed)) return;

  // Load factor <= 0.5: next power of two >= 2 * size (minimum 8 so the
  // empty-slot terminator always exists).
  const std::uint64_t capacity =
      std::bit_ceil(std::max<std::uint64_t>(8, 2 * routes_.size()));
  WORMHOLE_ASSERT(capacity > routes_.size(),
                  "sealed index must keep at least one empty slot");
  slots_.assign(capacity, Slot{});
  slot_mask_ = capacity - 1;

  // Per length: whether it is populated and the range of its masked
  // addresses. The map iterates in ascending address order, so the first
  // address seen at a length is its least and the last its greatest.
  std::array<LengthRange, 33> ranges{};
  std::uint64_t populated = 0;
  for (const auto& [key, entry] : routes_) {
    const auto [address, length] = key;
    LengthRange& range = ranges[static_cast<std::size_t>(length)];
    if ((populated & (std::uint64_t{1} << length)) == 0) {
      populated |= std::uint64_t{1} << length;
      range = LengthRange{address, address, length};
    }
    WORMHOLE_DCHECK(range.lo <= address && range.hi <= address,
                    "the route map iterates in ascending address order");
    range.hi = address;
    const std::uint64_t packed = KeyOf(address, length);
    WORMHOLE_DCHECK(packed != 0, "KeyOf must never produce the empty key");
    std::uint64_t i = HashKey(packed) & slot_mask_;
    while (slots_[i].key != 0) i = (i + 1) & slot_mask_;
    slots_[i] = Slot{packed, &entry};
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
  const std::uint64_t packed = KeyOf(address, length);
  for (std::uint64_t i = HashKey(packed) & slot_mask_;;
       i = (i + 1) & slot_mask_) {
    const Slot& slot = slots_[i];
    if (slot.key == packed) return slot.entry;
    if (slot.key == 0) return nullptr;
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
  if (sealed_.load(std::memory_order_acquire)) {
    return FindSealed(prefix.address().value(), prefix.length());
  }
  const auto it = routes_.find({prefix.address().value(), prefix.length()});
  return it == routes_.end() ? nullptr : &it->second;
}

std::vector<const FibEntry*> Fib::Entries() const {
  std::vector<const FibEntry*> out;
  out.reserve(routes_.size());
  for (const auto& [key, entry] : routes_) out.push_back(&entry);
  return out;
}

}  // namespace wormhole::routing
