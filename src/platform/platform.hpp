// Platform model: sites, clusters, nodes, and the network between them.
//
// Implements net::Topology so an Env can price every message. The model has
// three tiers, matching Grid'5000:
//   - loopback   (same node): free;
//   - cluster LAN (same cluster): ~0.05 ms, 1 Gb/s;
//   - RENATER WAN (different sites): per-site-pair latency, 1 or 10 Gb/s.
// Clusters also carry the NFS constraint of Section 4.1: a simulation's
// generation, processing and post-processing all happen inside one cluster.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/log.hpp"
#include "net/topology.hpp"
#include "platform/machine.hpp"

namespace gc::platform {

using SiteId = std::uint32_t;
using ClusterId = std::uint32_t;

struct Site {
  SiteId id;
  std::string name;
};

struct Cluster {
  ClusterId id;
  std::string name;
  SiteId site;
  MachineModel model;
  std::vector<net::NodeId> nodes;
  double lan_latency_s;
  double lan_bandwidth_bps;
  /// Shared NFS server bandwidth (Section 4.1: one storage system per
  /// cluster). Charged as a disk stage on file-backed bulk transfers when
  /// the contention model is on; ~125 MB/s matches a GbE-attached NFS.
  double nfs_read_bps = 1.25e8;
  double nfs_write_bps = 1.25e8;
};

struct Node {
  net::NodeId id;
  std::string name;
  ClusterId cluster;
  SiteId site;
  MachineModel model;
};

class Platform final : public net::Topology {
 public:
  /// WAN defaults apply to site pairs without an explicit link.
  Platform(double default_wan_latency_s, double default_wan_bandwidth_bps)
      : wan_latency_(default_wan_latency_s),
        wan_bandwidth_(default_wan_bandwidth_bps) {}

  SiteId add_site(const std::string& name);

  ClusterId add_cluster(SiteId site, const std::string& name,
                        const MachineModel& model, int machine_count,
                        double lan_latency_s = 0.05e-3,
                        double lan_bandwidth_bps = 1e9 / 8.0);

  /// Overrides the WAN link between two sites (symmetric).
  /// `per_stream_bps` > 0 caps any single flow's share of the link — the
  /// lossy-WAN TCP ceiling an MPWide-style striped transfer sidesteps.
  void set_wan_link(SiteId a, SiteId b, double latency_s,
                    double bandwidth_bps, double per_stream_bps = 0.0);

  /// Default per-flow cap for WAN links without an explicit override
  /// (0 = uncapped). Applies to defaulted and explicit links alike when
  /// they carry no cap of their own.
  void set_wan_per_stream_bps(double bps) { wan_per_stream_bps_ = bps; }

  /// Scales every WAN link's bandwidth (and per-flow cap) by `factor`
  /// without touching LAN or disks — how the congestion bench narrows the
  /// inter-site pipes. Affects links added before AND after the call.
  void scale_wan_bandwidth(double factor) {
    GC_CHECK(factor > 0.0);
    wan_scale_ = factor;
  }

  // --- net::Topology ---
  [[nodiscard]] double latency(net::NodeId a, net::NodeId b) const override;
  [[nodiscard]] double bandwidth(net::NodeId a, net::NodeId b) const override;
  void route(net::NodeId a, net::NodeId b, net::Route& out) const override;
  [[nodiscard]] net::LinkRef disk_read(net::NodeId n) const override;
  [[nodiscard]] net::LinkRef disk_write(net::NodeId n) const override;

  // --- queries ---
  [[nodiscard]] const Node& node(net::NodeId id) const {
    GC_CHECK(id < nodes_.size());
    return nodes_[id];
  }
  [[nodiscard]] const Cluster& cluster(ClusterId id) const {
    GC_CHECK(id < clusters_.size());
    return clusters_[id];
  }
  [[nodiscard]] const Site& site(SiteId id) const {
    GC_CHECK(id < sites_.size());
    return sites_[id];
  }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t cluster_count() const { return clusters_.size(); }
  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }

  /// Aggregate relative power of `machines` nodes of a cluster's model.
  [[nodiscard]] double cluster_power(ClusterId id, int machines) const {
    return cluster(id).model.relative_power * machines;
  }

 private:
  [[nodiscard]] std::uint64_t wan_key(SiteId a, SiteId b) const {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  double wan_latency_;
  double wan_bandwidth_;
  double wan_per_stream_bps_ = 0.0;
  double wan_scale_ = 1.0;
  std::vector<Site> sites_;
  std::vector<Cluster> clusters_;
  std::vector<Node> nodes_;
  struct WanLink {
    double latency_s;
    double bandwidth_bps;
    double per_stream_bps = 0.0;
  };
  std::unordered_map<std::uint64_t, WanLink> wan_links_;
};

}  // namespace gc::platform
