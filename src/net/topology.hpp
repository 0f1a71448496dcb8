// Network topology interface: where actors live and what links cost.
//
// Two pricing surfaces coexist:
//  - transfer_time(): the classic instantaneous formula (latency +
//    bytes/bandwidth), used when the contention model is off and by
//    estimates that want the uncongested baseline;
//  - route(): the path as a sequence of capacitated links, consumed by
//    net::FlowModel to fair-share bandwidth between concurrent bulk
//    transfers (SimEnv contention mode).
//
// The platform library provides the Grid'5000 implementation; tests use
// UniformTopology.
#pragma once

#include <string>

#include "common/log.hpp"
#include "net/message.hpp"

namespace gc::net {

/// Link identity scheme: 64-bit keys, kind-tagged so every topology mints
/// non-colliding ids without central bookkeeping and the observability
/// layer can render a stable label from the key alone.
namespace linkkey {

enum Kind : std::uint64_t {
  kPair = 1,      ///< default: one private link per directed node pair
  kNicOut = 2,    ///< a node's egress NIC (UniformTopology)
  kNicIn = 3,     ///< a node's ingress NIC (UniformTopology)
  kLan = 4,       ///< a cluster's switched LAN (platform)
  kWan = 5,       ///< a site-pair WAN segment (platform)
  kDiskRead = 6,  ///< a cluster's NFS/disk read stage (platform)
  kDiskWrite = 7, ///< a cluster's NFS/disk write stage (platform)
};

[[nodiscard]] constexpr std::uint64_t make(Kind kind, std::uint64_t a,
                                           std::uint64_t b = 0) {
  return (static_cast<std::uint64_t>(kind) << 56) | ((a & 0xfffffffULL) << 28) |
         (b & 0xfffffffULL);
}

/// Stable human-readable label for metrics ("lan:c3", "wan:s0-s2", ...).
/// Cold path: the flow model calls it once per link, never per transfer.
[[nodiscard]] std::string name(std::uint64_t key);

}  // namespace linkkey

/// One capacitated hop of a route.
struct LinkRef {
  std::uint64_t key = 0;      ///< linkkey identity; 0 = no link
  double capacity_bps = 0.0;  ///< total capacity shared by crossing flows
  /// Ceiling on any SINGLE flow's rate through this link (0 = none).
  /// Models lossy-WAN TCP, where one stream cannot fill the pipe — the
  /// reason MPWide-style striping wins (each stripe is its own flow).
  double per_flow_cap_bps = 0.0;
};

/// A path between two nodes: one-way propagation latency plus the links
/// the bytes cross. Fixed-capacity inline storage — routes are built on
/// the send hot path and never allocate.
struct Route {
  static constexpr int kMaxHops = 6;

  double latency_s = 0.0;
  int hop_count = 0;
  LinkRef hops[kMaxHops];

  void clear() {
    latency_s = 0.0;
    hop_count = 0;
  }
  void add(const LinkRef& link) {
    if (link.key == 0 || link.capacity_bps <= 0.0) return;
    GC_CHECK_MSG(hop_count < kMaxHops, "route exceeds kMaxHops");
    hops[hop_count++] = link;
  }
  [[nodiscard]] bool empty() const { return hop_count == 0; }
  /// Bottleneck capacity of the path (uncongested single-flow rate).
  [[nodiscard]] double min_capacity_bps() const {
    double min_bps = 0.0;
    for (int i = 0; i < hop_count; ++i) {
      if (min_bps <= 0.0 || hops[i].capacity_bps < min_bps) {
        min_bps = hops[i].capacity_bps;
      }
    }
    return min_bps;
  }
};

class Topology {
 public:
  virtual ~Topology() = default;

  /// One-way propagation latency between two nodes, in seconds.
  [[nodiscard]] virtual double latency(NodeId a, NodeId b) const = 0;

  /// Bottleneck bandwidth between two nodes, in bytes/second.
  [[nodiscard]] virtual double bandwidth(NodeId a, NodeId b) const = 0;

  /// Modeled one-way transfer time for `bytes` between two nodes.
  [[nodiscard]] double transfer_time(NodeId a, NodeId b,
                                     std::int64_t bytes) const {
    if (a == b) return 0.0;  // same host: loopback, free in the model
    const double bps = bandwidth(a, b);
    GC_CHECK_MSG(bps > 0.0, "non-positive bandwidth on a priced link");
    return latency(a, b) + static_cast<double>(bytes) / bps;
  }

  /// The path `a` -> `b` as capacitated links, for the flow model. The
  /// default is one private per-pair link of bandwidth(a, b) — correct
  /// single-flow times, no cross-pair sharing; real topologies override
  /// with shared links. a == b must produce an empty route (loopback).
  virtual void route(NodeId a, NodeId b, Route& out) const {
    out.clear();
    if (a == b) return;
    out.latency_s = latency(a, b);
    out.add(LinkRef{linkkey::make(linkkey::kPair, a, b), bandwidth(a, b), 0.0});
  }

  /// Disk/NFS stage a staged bulk transfer reads from at `node`'s storage
  /// (IC archives, result tarballs). key 0 = no disk stage modeled.
  [[nodiscard]] virtual LinkRef disk_read(NodeId /*node*/) const {
    return LinkRef{};
  }
  /// Disk/NFS stage a staged bulk transfer writes to at `node`'s storage.
  [[nodiscard]] virtual LinkRef disk_write(NodeId /*node*/) const {
    return LinkRef{};
  }
};

/// Flat topology: every pair of distinct nodes has the same link. Under
/// the flow model each node contributes its egress and ingress NIC, both
/// of the flat bandwidth: transfers from one node share its uplink.
class UniformTopology final : public Topology {
 public:
  UniformTopology(double latency_s, double bandwidth_bps)
      : latency_(latency_s), bandwidth_(bandwidth_bps) {}

  [[nodiscard]] double latency(NodeId a, NodeId b) const override {
    return a == b ? 0.0 : latency_;
  }
  [[nodiscard]] double bandwidth(NodeId, NodeId) const override {
    return bandwidth_;
  }

  void route(NodeId a, NodeId b, Route& out) const override {
    out.clear();
    if (a == b) return;
    out.latency_s = latency_;
    out.add(LinkRef{linkkey::make(linkkey::kNicOut, a), bandwidth_, 0.0});
    out.add(LinkRef{linkkey::make(linkkey::kNicIn, b), bandwidth_, 0.0});
  }

 private:
  double latency_;
  double bandwidth_;
};

}  // namespace gc::net
