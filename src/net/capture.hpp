// Capture points: the pcap taps of Fig. 2 (sender ①, mobile core ②,
// SFU ③/③*, receiver ④). A capture point is a pass-through observer that
// records (packet, local timestamp) using the host's possibly-offset
// clock. Athena's correlator works *only* from these logs — never from
// simulator ground truth — mirroring the real measurement pipeline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "net/clock.hpp"
#include "net/packet.hpp"
#include "obs/trace_names.hpp"
#include "sim/simulator.hpp"

namespace athena::net {

/// One logged packet: what the host's pcap holds. Ground truth is not
/// kept here; CapturePoint::set_truth_sink streams it to tests.
struct CaptureRecord {
  PacketId packet_id = 0;
  sim::TimePoint local_ts;  ///< timestamp by the capturing host's clock
  PacketKind kind = PacketKind::kGeneric;
  std::uint32_t size_bytes = 0;
  FlowId flow = 0;
  /// A packet carries RTP or ICMP metadata, never both.
  std::variant<std::monostate, RtpMeta, IcmpMeta> meta;

  [[nodiscard]] const RtpMeta* rtp() const { return std::get_if<RtpMeta>(&meta); }
  [[nodiscard]] const IcmpMeta* icmp() const { return std::get_if<IcmpMeta>(&meta); }
};
static_assert(sizeof(CaptureRecord) <= 80, "a 20-min call keeps ~840 k capture records");

/// A capture log's unit of storage: reserved once and filled to capacity
/// before the next block starts, so no record moves once written.
struct CaptureBlock {
  std::vector<CaptureRecord> records;
  const CaptureBlock* next = nullptr;  ///< the block filled after this one
};

/// A read-only view of a capture log's first size() records, as a chain of
/// contiguous chunks: a capture point's blocks, or one owned vector.
class CaptureView {
 public:
  using Chunk = std::span<const CaptureRecord>;

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = CaptureRecord;
    using difference_type = std::ptrdiff_t;
    using pointer = const CaptureRecord*;
    using reference = const CaptureRecord&;

    iterator() = default;
    reference operator*() const { return *pos_; }
    pointer operator->() const { return pos_; }
    iterator& operator++() {
      if (++pos_; --left_ > 0 && pos_ == end_) NextChunk();
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const iterator& a, const iterator& b) { return a.left_ == b.left_; }

   private:
    friend class CaptureView;
    iterator(Chunk chunk, const CaptureBlock* next, std::size_t left)
        : pos_(chunk.data()), end_(chunk.data() + chunk.size()), next_(next), left_(left) {}
    void NextChunk() { *this = {ChunkOf(next_, left_), next_->next, left_}; }

    const CaptureRecord* pos_ = nullptr;
    const CaptureRecord* end_ = nullptr;  ///< end of pos_'s chunk
    const CaptureBlock* next_ = nullptr;  ///< the block after pos_'s chunk
    std::size_t left_ = 0;                ///< records from pos_ to the view's end
  };

  CaptureView() = default;
  CaptureView(const std::vector<CaptureRecord>& records) : first_(records), size_(records.size()) {}
  CaptureView(std::vector<CaptureRecord>&&) = delete;  // the view would dangle
  /// The first `size` records of the block chain that starts at `head`.
  CaptureView(const CaptureBlock* head, std::size_t size)
      : first_(size == 0 ? Chunk{} : ChunkOf(head, size)),
        rest_(size == 0 ? nullptr : head->next),
        size_(size) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] iterator begin() const { return {first_, rest_, size_}; }
  [[nodiscard]] iterator end() const { return {}; }

  /// Calls `fn(Chunk)` on each chunk, in order.
  template <typename Fn>
  void ForEachChunk(Fn&& fn) const {
    for (iterator it = begin(); it.left_ > 0;) {
      const Chunk chunk{it.pos_, it.end_};
      fn(chunk);
      if ((it.left_ -= chunk.size()) > 0) it.NextChunk();
    }
  }

  /// An owned copy, made chunk by chunk.
  [[nodiscard]] std::vector<CaptureRecord> ToVector() const {
    std::vector<CaptureRecord> out;
    out.reserve(size_);
    ForEachChunk([&out](Chunk chunk) { out.insert(out.end(), chunk.begin(), chunk.end()); });
    return out;
  }

 private:
  /// The records of `block` that start the view's last `left` ones.
  static Chunk ChunkOf(const CaptureBlock* block, std::size_t left) {
    return {block->records.data(), std::min(left, block->records.capacity())};
  }

  Chunk first_;
  const CaptureBlock* rest_ = nullptr;  ///< the block after first_
  std::size_t size_ = 0;
};
static_assert(std::forward_iterator<CaptureView::iterator>);

class CapturePoint {
 public:
  /// Each capture's stored record and true time (tests and benches only).
  using TruthFn = std::function<void(const CaptureRecord& record, sim::TimePoint true_ts)>;

  /// The first block holds kFirstBlock records, and each later one twice
  /// its predecessor's, up to kMaxBlock.
  static constexpr std::size_t kFirstBlock = 64;
  static constexpr std::size_t kMaxBlock = 8192;

  CapturePoint(sim::Simulator& sim, std::string name, HostClock clock = {})
      : sim_(sim), name_(std::move(name)), trace_name_(name_), clock_(clock) {}

  /// Records the packet and forwards it to the downstream handler (if any).
  void OnPacket(const Packet& p);

  /// The handler packets continue to after being logged.
  void set_sink(PacketHandler sink) { sink_ = std::move(sink); }
  /// Receives every capture's true time from now on; nothing is kept.
  void set_truth_sink(TruthFn sink) { truth_sink_ = std::move(sink); }

  /// A handler bound to this capture point, usable as an upstream's sink.
  [[nodiscard]] PacketHandler AsHandler() {
    return [this](const Packet& p) { OnPacket(p); };
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const HostClock& clock() const { return clock_; }
  /// The log so far: valid, and unchanged, until this point is cleared or destroyed.
  [[nodiscard]] CaptureView records() const {
    return {blocks_.empty() ? nullptr : blocks_.front().get(), count_};
  }
  [[nodiscard]] std::size_t count() const { return count_; }
  /// Record slots allocated; only the newest block has free ones.
  [[nodiscard]] std::size_t capacity() const {
    std::size_t slots = 0;
    for (const auto& block : blocks_) slots += block->records.capacity();
    return slots;
  }

  void Clear() {
    blocks_.clear();
    count_ = 0;
  }

 private:
  sim::Simulator& sim_;
  std::string name_;
  obs::TraceName trace_name_;  ///< `name_` interned once, not per packet
  HostClock clock_;
  PacketHandler sink_;
  TruthFn truth_sink_;
  std::vector<std::unique_ptr<CaptureBlock>> blocks_;
  std::size_t count_ = 0;
};

}  // namespace athena::net
