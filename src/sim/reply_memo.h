// A vantage point's memo of ICMP reply walks.
//
// Paris traceroute keeps the flow id fixed, so a reply from a given
// responder to a given vantage point takes the same path home every time
// within one routing epoch. The engine walks such a reply hop by hop once,
// records what the walk did, and replays the record for every later reply
// that leaves from the same forwarding state. docs/semantics.md ("Fast
// path") has the exactness argument; in short:
//
//  * The key is the reply's full forwarding state when it first exists:
//    router, arrival interface, the two one-shot transit flags, reply
//    kind, src, dst, flow id, IP-TTL and the whole label stack. A reply
//    walk reads nothing else that can differ between two replies of one
//    epoch (probe ids only feed per-link jitter, which is replayed, and
//    origination loss, which is decided before the key is taken).
//  * The value is the link trail, the final IP-TTL and labels (or the loss
//    reason), the ASes of the routers it processed hops at, and the walk's
//    EngineStats deltas. A replay adds the trail's jittered link delays in
//    walk order, so RTTs are bit-identical, and the ASes to the caller's
//    footprint (sim/footprint.h).
//  * The memo is stamped with the engine's convergence epoch and the
//    topology version and empties itself when either moves. Configs may
//    only change through a reconvergence (the TraceCache contract).
//
// One memo per prober, passed to Engine::Send per call; the
// engine never keeps a pointer to it. Not thread-safe: one memo, one
// thread at a time.
#pragma once

#include <cstdint>
#include <vector>

#include "netbase/ipv4.h"
#include "netbase/label.h"
#include "netbase/packet.h"
#include "sim/engine.h"
#include "topo/topology.h"

namespace wormhole::sim {

class ReplyMemo {
 public:
  struct Counts {
    /// Replies served from the memo.
    std::uint64_t hits = 0;
    /// Replies walked hop by hop (new keys, and hits the max_hops guard
    /// sent back to the walker).
    std::uint64_t misses = 0;
    /// Data-plane hops the hits did not walk (their recorded
    /// hops_processed deltas).
    std::uint64_t replayed_hops = 0;

    friend bool operator==(const Counts&, const Counts&) = default;
  };

  [[nodiscard]] const Counts& counts() const { return counts_; }
  /// Recorded walks under the current stamp.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  friend class Engine;

  /// Bound on recorded walks; reaching it empties the memo (the records
  /// are pure functions of the epoch's state, so dropping them costs only
  /// re-walks).
  static constexpr std::size_t kMaxEntries = std::size_t{1} << 18;
  /// Label stacks deeper than this, and walks that change AS more often,
  /// are walked, never recorded.
  static constexpr std::size_t kMaxLabels = 255;
  static constexpr std::size_t kMaxAses = 255;

  struct Key {
    topo::RouterId router = topo::kNoRouter;
    topo::InterfaceId in_interface = topo::kNoInterface;
    netbase::Ipv4Address src;
    netbase::Ipv4Address dst;
    std::int32_t ip_ttl = 0;
    std::uint16_t flow_id = 0;
    netbase::PacketKind kind = netbase::PacketKind::kEchoRequest;
    std::uint8_t flags = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };

  struct Entry {
    std::uint64_t hash = 0;
    Key key;
    /// Pool offsets: the key's labels followed by the final labels; the
    /// trail's links.
    std::uint32_t labels_begin = 0;
    std::uint32_t trail_begin = 0;
    /// Links walked, which is also the walk's hop-count delta.
    std::uint32_t trail_size = 0;
    std::int32_t final_ip_ttl = 0;
    std::uint8_t key_labels = 0;
    std::uint8_t final_labels = 0;
    /// kNone: delivered to a host (the origin check runs at replay).
    LossReason loss = LossReason::kNone;
    /// Pool slice of the ASes the walk processed hops in, in walk order
    /// with runs collapsed.
    std::uint8_t ases_size = 0;
    std::uint32_t ases_begin = 0;
    std::uint32_t hops_processed = 0;
    std::uint32_t icmp_generated = 0;
    std::uint32_t labels_pushed = 0;
    std::uint32_t labels_popped = 0;
  };

  static std::uint64_t Hash(const Key& key,
                            const netbase::LabelStack& labels);

  /// Empties the memo unless it was filled under this exact stamp.
  void Revalidate(std::uint64_t epoch, std::uint64_t topology_version);
  void Clear();

  [[nodiscard]] const Entry* Find(std::uint64_t hash, const Key& key,
                                  const netbase::LabelStack& labels) const;

  // Recording one walk: Begin stores the key's labels, As notes the AS of
  // the router about to process a hop, Step appends one forwarded link,
  // and Commit (or Abort) closes the record. Begin returns false when the
  // stack is too deep to record.
  bool BeginRecord(const netbase::LabelStack& key_labels);
  void RecordAs(topo::AsNumber asn) {
    if (ases_.size() == record_ases_ || ases_.back() != asn) {
      ases_.push_back(asn);
    }
  }
  void RecordStep(topo::LinkId link) { trail_.push_back(link); }
  void CommitRecord(std::uint64_t hash, const Key& key, LossReason loss,
                    const netbase::Packet& final_packet,
                    const EngineStats& delta);
  void AbortRecord();

  void Insert(std::uint32_t entry_index);

  std::uint64_t epoch_ = 0;
  std::uint64_t topology_version_ = 0;
  /// Open-addressing table of entry index + 1 (0 = empty); a power of two
  /// kept at most half full.
  std::vector<std::uint32_t> slots_;
  std::vector<Entry> entries_;
  std::vector<netbase::LabelStackEntry> labels_;
  /// Links walked, in order. Replays re-read each link's delay from the
  /// engine's adjacency record, exactly as Forward does.
  std::vector<topo::LinkId> trail_;
  /// The records' AS slices.
  std::vector<topo::AsNumber> ases_;
  /// Pool sizes when the open record began (AbortRecord rolls back).
  std::uint32_t record_labels_ = 0;
  std::uint32_t record_trail_ = 0;
  std::uint32_t record_ases_ = 0;
  Counts counts_;
};

}  // namespace wormhole::sim
