#include "halo/halomaker.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <span>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "io/fortran.hpp"
#include "math/grid3.hpp"

namespace gc::halo {

namespace {

double periodic_delta(double a, double b) {
  double d = a - b;
  if (d > 0.5) d -= 1.0;
  if (d < -0.5) d += 1.0;
  return d;
}

}  // namespace

HaloCatalog find_halos(const ParticleView& particles, double aexp,
                       double box_mpc, const FofOptions& options) {
  const std::size_t n = particles.size();
  HaloCatalog catalog;
  catalog.aexp = aexp;
  catalog.box_mpc = box_mpc;
  catalog.total_particles = n;
  if (n == 0) return catalog;

  // Linking length in box units: b * (1/N)^(1/3).
  const double ll =
      options.linking_factor / std::cbrt(static_cast<double>(n));
  const double ll2 = ll * ll;

  // Linked cells: cell size >= ll so friends live in the 27-neighborhood.
  // One occupancy bit per cell, plus the running popcount of the words
  // before each 64-bit word, gives occupied cell c as the rank of its bit
  // (a miss costs one bit test). A counting sort by c gives the slot order,
  // ascending particle order within each cell: cell c holds slots
  // [start[c], start[c+1]). The positions are copied into slot order so
  // the pair sweep streams contiguous memory.
  GC_CHECK(n <= UINT32_MAX);
  const auto ncell = std::max<std::size_t>(
      1, std::min<std::size_t>(256, static_cast<std::size_t>(1.0 / ll)));
  const double ncd = static_cast<double>(ncell);
  auto cell_index = [&](double x, double y, double z) {
    auto i = std::min(static_cast<std::size_t>(x * ncd), ncell - 1);
    auto j = std::min(static_cast<std::size_t>(y * ncd), ncell - 1);
    auto k = std::min(static_cast<std::size_t>(z * ncd), ncell - 1);
    return static_cast<std::uint32_t>((i * ncell + j) * ncell + k);
  };
  std::vector<std::uint64_t> bits((ncell * ncell * ncell + 63) / 64);
  std::vector<std::uint32_t> rank(bits.size());
  std::vector<std::uint32_t> cell_of(n);  // key, then occupied index
  for (std::size_t p = 0; p < n; ++p) {
    cell_of[p] = cell_index((*particles.x)[p], (*particles.y)[p],
                            (*particles.z)[p]);
    bits[cell_of[p] >> 6] |= std::uint64_t{1} << (cell_of[p] & 63);
  }
  std::uint32_t occupied = 0;
  for (std::size_t w = 0; w < bits.size(); ++w) {
    rank[w] = occupied;
    occupied += static_cast<std::uint32_t>(std::popcount(bits[w]));
  }
  auto occupied_index = [&](std::uint32_t key) {
    const std::uint64_t below = (std::uint64_t{1} << (key & 63)) - 1;
    return rank[key >> 6] +
           static_cast<std::uint32_t>(std::popcount(bits[key >> 6] & below));
  };
  std::vector<std::uint32_t> start(occupied + 1, 0);
  for (std::size_t p = 0; p < n; ++p) {
    cell_of[p] = occupied_index(cell_of[p]);
    ++start[cell_of[p]];
  }
  // Running sum to cell ends, then fill backwards so each end walks down to
  // its cell's start.
  for (std::uint32_t c = 1; c <= occupied; ++c) start[c] += start[c - 1];
  std::vector<std::uint32_t> slot_of(n);
  std::vector<double> sx(n), sy(n), sz(n);
  for (std::size_t p = n; p-- > 0;) {
    const std::uint32_t slot = --start[cell_of[p]];
    slot_of[p] = slot;
    sx[slot] = (*particles.x)[p];
    sy[slot] = (*particles.y)[p];
    sz[slot] = (*particles.z)[p];
  }

  // One union-find over slots, with path halving.
  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::uint32_t{0});
  auto find = [&](std::uint32_t v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  // One pair test: unites the two slots if they are friends.
  auto link = [&](std::uint32_t a, std::uint32_t b) {
    const double dx = periodic_delta(sx[a], sx[b]);
    const double dy = periodic_delta(sy[a], sy[b]);
    const double dz = periodic_delta(sz[a], sz[b]);
    if (dx * dx + dy * dy + dz * dz > ll2) return false;
    parent[find(a)] = find(b);
    return true;
  };

  // Pass 1: every cell's own pairs. A cell is joined when all its members
  // then share one root.
  std::vector<char> joined(occupied);
  for (std::uint32_t c = 0; c < occupied; ++c) {
    for (std::uint32_t a = start[c]; a < start[c + 1]; ++a) {
      for (std::uint32_t b = a + 1; b < start[c + 1]; ++b) link(a, b);
    }
    const std::uint32_t root = find(start[c]);
    joined[c] = 1;
    for (std::uint32_t a = start[c] + 1; a < start[c + 1] && joined[c]; ++a) {
      joined[c] = find(a) == root;
    }
  }

  // Pass 2: each cell against its 13 forward neighbours, testing only the
  // pairs that can still merge two components. With cell `ca` joined, a
  // member of `cb` already in its component is skipped and any other needs
  // one link into `ca`; with both joined, the first link (or a shared root)
  // settles the pair of cells. The groups are the connected components, so
  // every skipped test could not have changed them.
  auto sweep_pair = [&](std::uint32_t ca, std::uint32_t cb) {
    for (std::uint32_t b = start[cb]; b < start[cb + 1]; ++b) {
      if (joined[ca] && find(b) == find(start[ca])) {
        if (joined[cb]) return;
        continue;
      }
      for (std::uint32_t a = start[ca]; a < start[ca + 1]; ++a) {
        if (link(a, b) && joined[ca]) break;
      }
    }
  };
  static const int kOffsets[13][3] = {
      {1, 0, 0},  {-1, 1, 0}, {0, 1, 0},  {1, 1, 0}, {-1, -1, 1},
      {0, -1, 1}, {1, -1, 1}, {-1, 0, 1}, {0, 0, 1}, {1, 0, 1},
      {-1, 1, 1}, {0, 1, 1},  {1, 1, 1}};
  const long nc = static_cast<long>(ncell);
  std::uint32_t c = 0;
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t m = bits[w]; m != 0; m &= m - 1, ++c) {
      const long key = static_cast<long>(w * 64) + std::countr_zero(m);
      const long ci = key / (nc * nc);
      const long cj = (key / nc) % nc;
      const long ck = key % nc;
      for (const auto& off : kOffsets) {
        const auto other = static_cast<std::uint32_t>(
            (math::wrap(ci + off[0], nc) * nc + math::wrap(cj + off[1], nc)) *
                nc +
            math::wrap(ck + off[2], nc));
        if ((bits[other >> 6] >> (other & 63) & 1) == 0) continue;
        const std::uint32_t o = occupied_index(other);
        if (joined[o] && !joined[c]) {
          sweep_pair(o, c);
        } else {
          sweep_pair(c, o);
        }
      }
    }
  }

  // Collect groups, numbered by their lowest member, into one flat list:
  // group g holds members[group_start[g]..group_start[g+1]) in ascending
  // particle order.
  std::vector<std::uint32_t> group_start;
  std::vector<std::uint32_t> members_flat(n);
  {
    constexpr std::uint32_t kNoGroup = 0xffffffffu;
    std::vector<std::uint32_t> group_of(n, kNoGroup);  // by root
    std::vector<std::uint32_t> particle_group(n);
    for (std::size_t p = 0; p < n; ++p) {
      const std::uint32_t root = find(slot_of[p]);
      if (group_of[root] == kNoGroup) {
        group_of[root] = static_cast<std::uint32_t>(group_start.size());
        group_start.push_back(0);
      }
      particle_group[p] = group_of[root];
      ++group_start[group_of[root]];
    }
    // Running sum to group ends, then fill backwards so each end walks
    // down to its group's start.
    for (std::size_t g = 1; g < group_start.size(); ++g) {
      group_start[g] += group_start[g - 1];
    }
    for (std::size_t p = n; p-- > 0;) {
      members_flat[--group_start[particle_group[p]]] =
          static_cast<std::uint32_t>(p);
    }
    group_start.push_back(static_cast<std::uint32_t>(n));
  }

  for (std::size_t g = 0; g + 1 < group_start.size(); ++g) {
    const std::span<const std::uint32_t> members(
        members_flat.data() + group_start[g],
        group_start[g + 1] - group_start[g]);
    if (members.size() < options.min_npart) continue;
    Halo halo;
    halo.npart = members.size();
    // Periodic centre of mass: unwrap relative to the first member.
    const double rx = (*particles.x)[members[0]];
    const double ry = (*particles.y)[members[0]];
    const double rz = (*particles.z)[members[0]];
    double cx = 0.0, cy = 0.0, cz = 0.0;
    for (const std::uint32_t p : members) {
      const double m = (*particles.mass)[p];
      halo.mass += m;
      cx += m * periodic_delta((*particles.x)[p], rx);
      cy += m * periodic_delta((*particles.y)[p], ry);
      cz += m * periodic_delta((*particles.z)[p], rz);
      halo.vx += m * (*particles.vx_kms)[p];
      halo.vy += m * (*particles.vy_kms)[p];
      halo.vz += m * (*particles.vz_kms)[p];
    }
    cx = rx + cx / halo.mass;
    cy = ry + cy / halo.mass;
    cz = rz + cz / halo.mass;
    auto wrap = [](double v) { return v - std::floor(v); };
    halo.x = wrap(cx);
    halo.y = wrap(cy);
    halo.z = wrap(cz);
    halo.vx /= halo.mass;
    halo.vy /= halo.mass;
    halo.vz /= halo.mass;

    double r2 = 0.0, v2 = 0.0;
    for (const std::uint32_t p : members) {
      const double dx = periodic_delta((*particles.x)[p], halo.x);
      const double dy = periodic_delta((*particles.y)[p], halo.y);
      const double dz = periodic_delta((*particles.z)[p], halo.z);
      r2 += dx * dx + dy * dy + dz * dz;
      const double ux = (*particles.vx_kms)[p] - halo.vx;
      const double uy = (*particles.vy_kms)[p] - halo.vy;
      const double uz = (*particles.vz_kms)[p] - halo.vz;
      v2 += ux * ux + uy * uy + uz * uz;
    }
    halo.r_rms = std::sqrt(r2 / static_cast<double>(halo.npart));
    halo.sigma_v = std::sqrt(v2 / (3.0 * static_cast<double>(halo.npart)));

    halo.members.reserve(members.size());
    for (const std::uint32_t p : members) {
      halo.members.push_back((*particles.id)[p]);
    }
    catalog.halos.push_back(std::move(halo));
  }

  std::sort(catalog.halos.begin(), catalog.halos.end(),
            [](const Halo& a, const Halo& b) { return a.mass > b.mass; });
  for (std::size_t i = 0; i < catalog.halos.size(); ++i) {
    catalog.halos[i].id = i + 1;
  }
  return catalog;
}

gc::Status write_catalog(const std::string& path, const HaloCatalog& catalog) {
  io::FortranWriter writer(path);
  if (!writer.ok()) {
    return make_error(ErrorCode::kIoError, "cannot create " + path);
  }
  struct Header {
    double aexp, box_mpc;
    std::uint64_t total_particles, nhalos;
  } header{catalog.aexp, catalog.box_mpc, catalog.total_particles,
           catalog.halos.size()};
  auto status = writer.record_scalar(header);
  for (const Halo& halo : catalog.halos) {
    if (!status.is_ok()) break;
    struct Row {
      std::uint64_t id, npart;
      double mass, x, y, z, vx, vy, vz, r_rms, sigma_v;
    } row{halo.id, halo.npart, halo.mass, halo.x,     halo.y,   halo.z,
          halo.vx, halo.vy,    halo.vz,   halo.r_rms, halo.sigma_v};
    status = writer.record_scalar(row);
    if (status.is_ok()) {
      status = writer.record_array(std::span<const std::uint64_t>(
          halo.members.data(), halo.members.size()));
    }
  }
  if (status.is_ok()) status = writer.close();
  return status;
}

gc::Result<HaloCatalog> read_catalog(const std::string& path) {
  io::FortranReader reader(path);
  if (!reader.ok()) {
    return make_error(ErrorCode::kIoError, "cannot open " + path);
  }
  struct Header {
    double aexp, box_mpc;
    std::uint64_t total_particles, nhalos;
  };
  auto header = reader.record_scalar<Header>();
  if (!header.is_ok()) return header.status();
  HaloCatalog catalog;
  catalog.aexp = header.value().aexp;
  catalog.box_mpc = header.value().box_mpc;
  catalog.total_particles = header.value().total_particles;
  for (std::uint64_t i = 0; i < header.value().nhalos; ++i) {
    struct Row {
      std::uint64_t id, npart;
      double mass, x, y, z, vx, vy, vz, r_rms, sigma_v;
    };
    auto row = reader.record_scalar<Row>();
    if (!row.is_ok()) return row.status();
    auto members = reader.record_array<std::uint64_t>();
    if (!members.is_ok()) return members.status();
    Halo halo;
    halo.id = row.value().id;
    halo.npart = row.value().npart;
    halo.mass = row.value().mass;
    halo.x = row.value().x;
    halo.y = row.value().y;
    halo.z = row.value().z;
    halo.vx = row.value().vx;
    halo.vy = row.value().vy;
    halo.vz = row.value().vz;
    halo.r_rms = row.value().r_rms;
    halo.sigma_v = row.value().sigma_v;
    halo.members = std::move(members.value());
    catalog.halos.push_back(std::move(halo));
  }
  return catalog;
}

std::string catalog_to_text(const HaloCatalog& catalog) {
  std::string out = strformat(
      "# halo catalog: aexp=%.4f box=%.1f Mpc/h nhalos=%zu\n"
      "# id npart mass x y z vx vy vz sigma_v\n",
      catalog.aexp, catalog.box_mpc, catalog.halos.size());
  for (const Halo& halo : catalog.halos) {
    out += strformat("%llu %zu %.6e %.6f %.6f %.6f %.2f %.2f %.2f %.2f\n",
                     static_cast<unsigned long long>(halo.id), halo.npart,
                     halo.mass, halo.x, halo.y, halo.z, halo.vx, halo.vy,
                     halo.vz, halo.sigma_v);
  }
  return out;
}

}  // namespace gc::halo
