#include "sim/reply_memo.h"

#include <algorithm>

namespace wormhole::sim {

std::uint64_t ReplyMemo::Hash(const Key& key,
                              const netbase::LabelStack& labels) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  };
  mix(std::uint64_t{key.router} << 32 | key.in_interface);
  mix(std::uint64_t{key.src.value()} << 32 | key.dst.value());
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.ip_ttl)) |
      std::uint64_t{key.flow_id} << 32 |
      std::uint64_t{static_cast<std::uint8_t>(key.kind)} << 48 |
      std::uint64_t{key.flags} << 56);
  for (const netbase::LabelStackEntry& lse : labels) {
    mix(std::uint64_t{lse.label} | std::uint64_t{lse.ttl} << 32 |
        std::uint64_t{lse.traffic_class} << 40 |
        std::uint64_t{lse.bottom_of_stack} << 48);
  }
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

void ReplyMemo::Revalidate(std::uint64_t epoch,
                           std::uint64_t topology_version) {
  if (epoch == epoch_ && topology_version == topology_version_) return;
  Clear();
  epoch_ = epoch;
  topology_version_ = topology_version;
}

void ReplyMemo::Clear() {
  // Capacities stay: a memo refilled after a reconvergence reuses them.
  std::fill(slots_.begin(), slots_.end(), 0u);
  entries_.clear();
  labels_.clear();
  trail_.clear();
  ases_.clear();
}

const ReplyMemo::Entry* ReplyMemo::Find(
    std::uint64_t hash, const Key& key,
    const netbase::LabelStack& labels) const {
  if (slots_.empty()) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const std::uint32_t slot = slots_[i];
    if (slot == 0) return nullptr;
    const Entry& e = entries_[slot - 1];
    if (e.hash != hash || !(e.key == key) || e.key_labels != labels.size()) {
      continue;
    }
    if (std::equal(labels.begin(), labels.end(),
                   labels_.begin() + e.labels_begin)) {
      return &e;
    }
  }
}

bool ReplyMemo::BeginRecord(const netbase::LabelStack& key_labels) {
  if (key_labels.size() > kMaxLabels) return false;
  if (entries_.size() >= kMaxEntries) Clear();
  record_labels_ = static_cast<std::uint32_t>(labels_.size());
  record_trail_ = static_cast<std::uint32_t>(trail_.size());
  record_ases_ = static_cast<std::uint32_t>(ases_.size());
  labels_.insert(labels_.end(), key_labels.begin(), key_labels.end());
  return true;
}

void ReplyMemo::CommitRecord(std::uint64_t hash, const Key& key,
                             LossReason loss,
                             const netbase::Packet& final_packet,
                             const EngineStats& delta) {
  const std::size_t key_labels = labels_.size() - record_labels_;
  if (ases_.size() - record_ases_ > kMaxAses) {
    AbortRecord();
    return;
  }
  if (loss == LossReason::kNone) {
    if (final_packet.labels.size() > kMaxLabels) {
      AbortRecord();
      return;
    }
    labels_.insert(labels_.end(), final_packet.labels.begin(),
                   final_packet.labels.end());
  }
  Entry e;
  e.hash = hash;
  e.key = key;
  e.labels_begin = record_labels_;
  e.trail_begin = record_trail_;
  e.trail_size = static_cast<std::uint32_t>(trail_.size()) - record_trail_;
  e.final_ip_ttl = final_packet.ip_ttl;
  e.key_labels = static_cast<std::uint8_t>(key_labels);
  e.final_labels =
      static_cast<std::uint8_t>(labels_.size() - record_labels_ - key_labels);
  e.loss = loss;
  e.ases_size = static_cast<std::uint8_t>(ases_.size() - record_ases_);
  e.ases_begin = record_ases_;
  e.hops_processed = static_cast<std::uint32_t>(delta.hops_processed);
  e.icmp_generated = static_cast<std::uint32_t>(delta.icmp_generated);
  e.labels_pushed = static_cast<std::uint32_t>(delta.labels_pushed);
  e.labels_popped = static_cast<std::uint32_t>(delta.labels_popped);
  entries_.push_back(e);
  Insert(static_cast<std::uint32_t>(entries_.size() - 1));
}

void ReplyMemo::AbortRecord() {
  labels_.resize(record_labels_);
  trail_.resize(record_trail_);
  ases_.resize(record_ases_);
}

void ReplyMemo::Insert(std::uint32_t entry_index) {
  if (entries_.size() * 2 > slots_.size()) {
    // Grow to keep the table at most half full, re-placing every entry
    // by its stored hash.
    slots_.assign(std::max<std::size_t>(64, slots_.size() * 2), 0u);
    const std::size_t mask = slots_.size() - 1;
    for (std::uint32_t k = 0; k < entries_.size(); ++k) {
      std::size_t i = entries_[k].hash & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = k + 1;
    }
    return;
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = entries_[entry_index].hash & mask;
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = entry_index + 1;
}

}  // namespace wormhole::sim
