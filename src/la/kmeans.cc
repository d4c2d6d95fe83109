#include "la/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "la/simd.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace gale::la {

namespace {

// Minimum points per assignment shard: each point costs O(k d), so even
// modest chunks amortize dispatch. The shard count is thread-count
// independent (util::NumReduceShards), which fixes the partial-centroid
// summation tree and keeps Lloyd iterations bitwise reproducible under
// any GALE_NUM_THREADS.
constexpr size_t kAssignGrain = 256;

// Copies the centroids into lane panels for simd::DistanceSquared8: panel
// p holds centroids 8p..8p+7 coordinate-major, so one call measures a
// point against eight centroids. Lanes past k stay zero and are never
// scanned.
void BuildCentroidPanels(const Matrix& centroids, Matrix* panels) {
  constexpr size_t kLanes = simd::kDistanceLanes;
  const size_t k = centroids.rows();
  const size_t d = centroids.cols();
  panels->EnsureShape((k + kLanes - 1) / kLanes, d * kLanes);
  panels->Fill(0.0);
  for (size_t c = 0; c < k; ++c) {
    double* panel = panels->RowPtr(c / kLanes);
    const double* centroid = centroids.RowPtr(c);
    for (size_t j = 0; j < d; ++j) {
      panel[j * kLanes + c % kLanes] = centroid[j];
    }
  }
}

// One assignment shard: assigns points [i0, i1) to their nearest centroid
// and accumulates that slice's partial centroid sums and counts. Each
// distance is RowDistanceSquared's serial chain, eight centroids per
// kernel call, and the argmin scans the centroids in ascending order
// (first minimum wins). noinline keeps the distance loop out of the
// ParallelForShards closure, where the live closure pointer degrades
// register allocation (it forces the inner-loop bounds onto the stack).
__attribute__((noinline)) void AssignShard(const Matrix& data,
                                           const Matrix& panels, size_t k,
                                           size_t i0, size_t i1,
                                           size_t* assignments,
                                           double* distances, Matrix& sum,
                                           std::vector<size_t>& count,
                                           uint8_t* changed) {
  constexpr size_t kLanes = simd::kDistanceLanes;
  const size_t d = data.cols();
  double dist[kLanes];
  for (size_t i = i0; i < i1; ++i) {
    const double* row = data.RowPtr(i);
    size_t best = 0;
    double best_dist = std::numeric_limits<double>::max();
    for (size_t p = 0; p < panels.rows(); ++p) {
      simd::DistanceSquared8(dist, row, panels.RowPtr(p), d);
      const size_t lanes = std::min(kLanes, k - p * kLanes);
      for (size_t l = 0; l < lanes; ++l) {
        if (dist[l] < best_dist) {
          best_dist = dist[l];
          best = p * kLanes + l;
        }
      }
    }
    if (assignments[i] != best) {
      assignments[i] = best;
      *changed = 1;
    }
    distances[i] = best_dist;  // squared, sqrt'ed at the end
    count[best] += 1;
    double* acc = sum.RowPtr(best);
    for (size_t j = 0; j < d; ++j) acc[j] += row[j];
  }
}

}  // namespace

namespace {

// k-means++ seeding: first centroid uniform, subsequent ones proportional
// to squared distance from the nearest chosen centroid.
Matrix SeedCentroids(const Matrix& data, size_t k, util::Rng& rng) {
  const size_t n = data.rows();
  Matrix centroids(k, data.cols());

  std::vector<size_t> chosen;
  chosen.push_back(rng.UniformInt(n));
  std::vector<double> min_dist(n, std::numeric_limits<double>::max());

  while (chosen.size() < k) {
    const size_t last = chosen.back();
    for (size_t i = 0; i < n; ++i) {
      min_dist[i] =
          std::min(min_dist[i], data.RowDistanceSquared(i, data, last));
    }
    const size_t next = rng.Categorical(min_dist);
    chosen.push_back(next);
  }
  for (size_t c = 0; c < k; ++c) {
    std::copy(data.RowPtr(chosen[c]), data.RowPtr(chosen[c]) + data.cols(),
              centroids.RowPtr(c));
  }
  return centroids;
}

}  // namespace

util::Result<KMeansResult> KMeans(const Matrix& data,
                                  const KMeansOptions& options,
                                  util::Rng& rng) {
  if (data.rows() == 0 || data.cols() == 0) {
    return util::Status::InvalidArgument("KMeans: empty data");
  }
  if (options.num_clusters == 0) {
    return util::Status::InvalidArgument("KMeans: num_clusters == 0");
  }
  const size_t n = data.rows();
  const size_t d = data.cols();
  const size_t k = std::min(options.num_clusters, n);

  obs::Span span("gale.la.kmeans");
  span.Arg("points", static_cast<double>(n));

  KMeansResult result;
  result.centroids = SeedCentroids(data, k, rng);
  result.assignments.assign(n, 0);
  result.distances.assign(n, 0.0);

  const size_t num_shards = util::NumReduceShards(n, kAssignGrain);
  std::vector<Matrix> shard_sums(num_shards);
  std::vector<std::vector<size_t>> shard_counts(num_shards);
  std::vector<uint8_t> shard_changed(num_shards);

  std::vector<size_t> counts(k, 0);
  Matrix panels;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    BuildCentroidPanels(result.centroids, &panels);
    // Fused assignment + partial-sum step: each shard assigns its slice of
    // points (disjoint writes) and accumulates per-shard centroid sums.
    shard_changed.assign(num_shards, 0);
    util::ParallelForShards(
        0, n, kAssignGrain, [&](size_t s, size_t i0, size_t i1) {
          if (shard_sums[s].rows() != k || shard_sums[s].cols() != d) {
            shard_sums[s] = Matrix(k, d);
          } else {
            shard_sums[s].Fill(0.0);
          }
          shard_counts[s].assign(k, 0);
          AssignShard(data, panels, k, i0, i1,
                      result.assignments.data(), result.distances.data(),
                      shard_sums[s], shard_counts[s], &shard_changed[s]);
        });

    // Reduce the partials in ascending shard order (fixed summation tree).
    bool changed = false;
    Matrix new_centroids(k, d);
    counts.assign(k, 0);
    for (size_t s = 0; s < num_shards; ++s) {
      if (shard_changed[s]) changed = true;
      new_centroids += shard_sums[s];
      for (size_t c = 0; c < k; ++c) counts[c] += shard_counts[s][c];
    }
    double movement = 0.0;
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Empty cluster: re-seed at the farthest point to keep k clusters.
        size_t far = 0;
        double far_dist = -1.0;
        for (size_t i = 0; i < n; ++i) {
          if (result.distances[i] > far_dist) {
            far_dist = result.distances[i];
            far = i;
          }
        }
        std::copy(data.RowPtr(far), data.RowPtr(far) + d,
                  new_centroids.RowPtr(c));
        changed = true;
      } else {
        double* acc = new_centroids.RowPtr(c);
        for (size_t j = 0; j < d; ++j) {
          acc[j] /= static_cast<double>(counts[c]);
        }
      }
      movement +=
          new_centroids.RowDistanceSquared(c, result.centroids, c);
    }
    result.centroids = std::move(new_centroids);
    if (!changed || movement < options.tolerance) break;
  }

  result.inertia = 0.0;
  for (size_t i = 0; i < n; ++i) {
    result.inertia += result.distances[i];
    result.distances[i] = std::sqrt(result.distances[i]);
  }
  span.Arg("iterations", static_cast<double>(result.iterations));
  return result;
}

}  // namespace gale::la
