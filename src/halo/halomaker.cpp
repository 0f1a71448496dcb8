#include "halo/halomaker.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "io/fortran.hpp"
#include "math/grid3.hpp"
#include "parallel/pool.hpp"

namespace gc::halo {

namespace {

/// Union-find with path halving.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }

  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[a] = b;
  }

  /// Folds another partition over the same elements into this one: the
  /// result's components are the transitive closure of both edge sets,
  /// independent of merge order.
  void merge(DisjointSets& other) {
    for (std::size_t v = 0; v < parent_.size(); ++v) {
      const std::size_t root = other.find(v);
      if (root != v) unite(v, root);
    }
  }

 private:
  std::vector<std::size_t> parent_;
};

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
  // Only occupied cells are stored, so the table is O(n) at any ncell:
  // sorting (cell, particle) pairs gives the slot order, occupied cell c
  // is `keys[c]` with slots [start[c], start[c+1]) in ascending particle
  // order, and an open-addressing table maps a cell key back to c. The
  // positions are copied into slot order so the pair sweep streams
  // contiguous memory.
  const auto ncell = std::max<std::size_t>(
      1, std::min<std::size_t>(256, static_cast<std::size_t>(1.0 / ll)));
  const double ncd = static_cast<double>(ncell);
  auto cell_index = [&](double x, double y, double z) {
    auto i = std::min(static_cast<std::size_t>(x * ncd), ncell - 1);
    auto j = std::min(static_cast<std::size_t>(y * ncd), ncell - 1);
    auto k = std::min(static_cast<std::size_t>(z * ncd), ncell - 1);
    return static_cast<std::uint32_t>((i * ncell + j) * ncell + k);
  };
  std::vector<std::uint32_t> slot_particle(n);
  std::vector<double> sx(n), sy(n), sz(n);
  std::vector<std::uint32_t> keys;
  std::vector<std::uint32_t> start;
  {
    std::vector<std::uint64_t> order(n);  // cell << 32 | particle
    for (std::size_t p = 0; p < n; ++p) {
      order[p] = static_cast<std::uint64_t>(cell_index(
                     (*particles.x)[p], (*particles.y)[p], (*particles.z)[p]))
                     << 32 |
                 p;
    }
    std::sort(order.begin(), order.end());
    for (std::size_t slot = 0; slot < n; ++slot) {
      const auto cell = static_cast<std::uint32_t>(order[slot] >> 32);
      const auto p = static_cast<std::uint32_t>(order[slot]);
      if (keys.empty() || keys.back() != cell) {
        keys.push_back(cell);
        start.push_back(static_cast<std::uint32_t>(slot));
      }
      slot_particle[slot] = p;
      sx[slot] = (*particles.x)[p];
      sy[slot] = (*particles.y)[p];
      sz[slot] = (*particles.z)[p];
    }
    start.push_back(static_cast<std::uint32_t>(n));
  }
  const std::size_t occupied = keys.size();
  constexpr std::uint32_t kNoCell = 0xffffffffu;
  int bits = 1;
  while ((std::size_t{1} << bits) < 2 * occupied) ++bits;
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  std::vector<std::uint32_t> lookup(mask + 1, kNoCell);
  auto bucket = [&](std::uint32_t key) {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                    (64 - bits));
  };
  for (std::size_t c = 0; c < occupied; ++c) {
    std::size_t h = bucket(keys[c]);
    while (lookup[h] != kNoCell) h = (h + 1) & mask;
    lookup[h] = static_cast<std::uint32_t>(c);
  }
  auto find_cell = [&](std::uint32_t key) {
    for (std::size_t h = bucket(key); lookup[h] != kNoCell;
         h = (h + 1) & mask) {
      if (keys[lookup[h]] == key) return lookup[h];
    }
    return kNoCell;
  };

  // Pair sweep over fixed ranges of the occupied cells, each range
  // building its own union-find; the per-range partitions are folded
  // together afterwards in ascending range order. Connected components are
  // the transitive closure of the pair relation, so the result is
  // independent of how cells are chunked or interleaved across threads.
  const long nc = static_cast<long>(ncell);
  auto sweep_cells = [&](DisjointSets& sets, std::size_t cell_begin,
                         std::size_t cell_end) {
    for (std::size_t c = cell_begin; c < cell_end; ++c) {
      const std::uint32_t cell = keys[c];
      const std::uint32_t home_begin = start[c];
      const std::uint32_t home_end = start[c + 1];
      const long ci = static_cast<long>(cell / (ncell * ncell));
      const long cj = static_cast<long>((cell / ncell) % ncell);
      const long ck = static_cast<long>(cell % ncell);
      // Half of the 27 neighbors (plus self) to visit each pair once.
      static const int kOffsets[14][3] = {
          {0, 0, 0},  {1, 0, 0},  {-1, 1, 0}, {0, 1, 0},  {1, 1, 0},
          {-1, -1, 1}, {0, -1, 1}, {1, -1, 1}, {-1, 0, 1}, {0, 0, 1},
          {1, 0, 1},  {-1, 1, 1}, {0, 1, 1},  {1, 1, 1}};
      for (const auto& off : kOffsets) {
        const auto ni = static_cast<std::size_t>(math::wrap(ci + off[0], nc));
        const auto nj = static_cast<std::size_t>(math::wrap(cj + off[1], nc));
        const auto nk = static_cast<std::size_t>(math::wrap(ck + off[2], nc));
        const std::uint32_t other =
            find_cell(static_cast<std::uint32_t>((ni * ncell + nj) * ncell + nk));
        if (other == kNoCell) continue;
        const std::uint32_t other_end = start[other + 1];
        const bool same = off[0] == 0 && off[1] == 0 && off[2] == 0;
        for (std::uint32_t a = home_begin; a < home_end; ++a) {
          const double ax = sx[a];
          const double ay = sy[a];
          const double az = sz[a];
          for (std::uint32_t b = same ? a + 1 : start[other]; b < other_end;
               ++b) {
            const double dx = periodic_delta(ax, sx[b]);
            const double dy = periodic_delta(ay, sy[b]);
            const double dz = periodic_delta(az, sz[b]);
            if (dx * dx + dy * dy + dz * dz <= ll2) {
              sets.unite(slot_particle[a], slot_particle[b]);
            }
          }
        }
      }
    }
  };

  DisjointSets sets(n);
  const std::size_t cell_grain =
      std::max<std::size_t>(1, (occupied + 7) / 8);  // <= 8 local partitions
  const std::size_t nchunks = parallel::chunk_count(0, occupied, cell_grain);
  if (nchunks <= 1 || parallel::thread_count() == 1 ||
      parallel::in_parallel_region()) {
    sweep_cells(sets, 0, occupied);
  } else {
    std::vector<DisjointSets> partials(nchunks, DisjointSets(n));
    parallel::for_each_chunk(
        0, occupied, cell_grain,
        [&](std::size_t c, std::size_t begin, std::size_t end) {
          sweep_cells(partials[c], begin, end);
        });
    for (auto& partial : partials) sets.merge(partial);
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
      const std::size_t root = sets.find(p);
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
