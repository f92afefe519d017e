#include "ann/pg_index.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <unordered_set>
#include <utility>

#include "ann/stamp_set.h"
#include "common/aligned_buffer.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "embed/model_io.h"
#include "embed/vector_ops.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "obs/trace.h"

namespace kpef {

namespace {

constexpr size_t kCacheLineBytes = 64;

// Pull a whole point row into cache ahead of its distance evaluation.
inline void PrefetchBytes(const void* p, size_t bytes) {
#if defined(__GNUC__) || defined(__clang__)
  const char* c = static_cast<const char*>(p);
  for (size_t off = 0; off < bytes; off += kCacheLineBytes) {
    __builtin_prefetch(c + off, /*rw=*/0, /*locality=*/3);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace

// Thread-local scratch reused across searches: the visited bitmap, heap
// storage and the per-hop list of fresh neighbors. A steady-state search
// allocates nothing.
struct PGIndex::SearchArena {
  VisitedBitset visited;
  std::vector<Neighbor> cand;   // min-heap (std::greater)
  std::vector<Neighbor> pool;   // max-heap (worst on top)
  std::vector<int32_t> fresh;   // unvisited neighbors of the popped node
  // Base+overlay concatenation scratch (used only while inserts pend).
  std::vector<int32_t> merged;
};

namespace {

// Replaces the top of a full max-heap pool with a strictly better
// element: one sift-down instead of push_heap + pop_heap. The heap
// holds the same element set either way (the displaced top is exactly
// what pop_heap would remove), but at half the comparison/move cost —
// which matters because on a full pool every improving candidate of
// the navigating node's highway scan takes this path.
inline void ReplaceHeapTop(std::vector<Neighbor>& heap, Neighbor next) {
  const size_t n = heap.size();
  size_t i = 0;
  for (;;) {
    size_t c = 2 * i + 1;
    if (c >= n) break;
    if (c + 1 < n && heap[c] < heap[c + 1]) ++c;
    if (!(next < heap[c])) break;
    heap[i] = heap[c];
    i = c;
  }
  heap[i] = next;
}

}  // namespace

PGIndex::SearchArena& PGIndex::LocalArena() {
  static thread_local SearchArena arena;
  return arena;
}

PGIndex PGIndex::Build(const Matrix& points, const PGIndexConfig& config,
                       PGIndexBuildStats* stats) {
  KPEF_TRACE_SPAN("pgindex.build");
  Timer total_timer;
  PGIndex index;
  const size_t n = points.rows();
  const size_t d = points.cols();
  PGIndexBuildStats local_stats;
  if (n == 0) {
    index.points_ = points;
    index.points_.ShareRowsOnCopy();
    if (stats) *stats = local_stats;
    return index;
  }
  ThreadPool& pool = config.nndescent.pool != nullptr
                         ? *config.nndescent.pool
                         : ThreadPool::Default();
  // The graph is built over *external* ids (row numbers of `points`);
  // FinalizeLayout at the end relabels everything into the cache-aware
  // internal order.
  std::vector<std::vector<int32_t>> adjacency(n);
  int32_t navigating = -1;
  // All hot-loop distances below are squared L2 over padded rows: the
  // square root is monotone, so every comparison (argmin, sort, occlusion
  // check) is unchanged, and padded rows let the kernel run tail-free.
  auto squared = [&](int32_t a, int32_t b) {
    return SquaredL2Distance(points.PaddedRow(a), points.PaddedRow(b));
  };

  // --- Navigating node selection (lines 1-2): nearest to the centroid.
  // The centroid sum stays serial (row order matters for float rounding);
  // the argmin fans out over fixed-size chunks whose per-chunk winners
  // merge serially, so the choice is independent of the pool size.
  AlignedVector centroid(points.stride(), 0.0f);
  for (size_t i = 0; i < n; ++i) {
    auto row = points.Row(i);
    for (size_t k = 0; k < d; ++k) centroid[k] += row[k];
  }
  for (size_t k = 0; k < d; ++k) centroid[k] /= static_cast<float>(n);
  {
    const std::span<const float> centroid_span(centroid.data(),
                                               centroid.size());
    constexpr size_t kArgminChunk = 2048;
    const size_t num_chunks = (n + kArgminChunk - 1) / kArgminChunk;
    std::vector<Neighbor> chunk_best(num_chunks, Neighbor{-1, 0.0f});
    ParallelFor(pool, num_chunks, [&](size_t c) {
      const size_t begin = c * kArgminChunk;
      const size_t end = std::min(n, begin + kArgminChunk);
      Neighbor best{-1, 0.0f};
      for (size_t i = begin; i < end; ++i) {
        const Neighbor cand{static_cast<int32_t>(i),
                            SquaredL2Distance(points.PaddedRow(i),
                                              centroid_span)};
        if (best.id < 0 || cand < best) best = cand;
      }
      chunk_best[c] = best;
    });
    Neighbor best{-1, 0.0f};
    for (const Neighbor& cand : chunk_best) {
      if (cand.id >= 0 && (best.id < 0 || cand < best)) best = cand;
    }
    navigating = best.id;
    local_stats.distance_computations += n;
  }

  // --- Initialize kNN graph (lines 3-6); NNDescent shares the pool.
  Timer knn_timer;
  KnnGraph knn = config.exact_knn
                     ? BuildExactKnnGraph(points, config.knn_k)
                     : BuildKnnGraph(points, [&] {
                         NNDescentConfig c = config.nndescent;
                         c.k = config.knn_k;
                         c.pool = &pool;
                         return c;
                       }());
  local_stats.knn_seconds = knn_timer.ElapsedSeconds();
  local_stats.distance_computations += knn.distance_computations;
  KPEF_COUNTER_ADD(obs::kPgindexNndescentIterations, knn.iterations_run);
  for (const auto& nbrs : knn.neighbors) {
    local_stats.edges_after_knn += nbrs.size();
  }

  // --- Refine neighbors: long-distance extension + occlusion pruning,
  // parallel over nodes (each node reads the shared kNN graph and writes
  // only its own adjacency list and tally slots).
  Timer refine_timer;
  std::vector<uint64_t> refine_dists(n, 0);
  std::vector<uint32_t> extension_edges(n, 0);
  ParallelFor(pool, n, [&](size_t p) {
    uint64_t dist_count = 0;
    auto distance = [&](int32_t a, int32_t b) {
      ++dist_count;
      return squared(a, b);
    };
    // Long-distance neighbors extension (lines 7-8): N(p) plus N(x) for
    // every x in N(p). Seed distances come from the kNN graph (true L2),
    // so square them to stay comparable.
    std::vector<Neighbor> candidates;
    candidates.reserve(knn.neighbors[p].size());
    for (const Neighbor& nb : knn.neighbors[p]) {
      candidates.push_back({nb.id, nb.distance * nb.distance});
    }
    if (config.extend_neighbors) {
      std::unordered_set<int32_t> seen;
      seen.insert(static_cast<int32_t>(p));
      for (const Neighbor& nb : knn.neighbors[p]) seen.insert(nb.id);
      for (const Neighbor& x : knn.neighbors[p]) {
        for (const Neighbor& y : knn.neighbors[x.id]) {
          if (seen.insert(y.id).second) {
            candidates.push_back(
                {y.id, distance(static_cast<int32_t>(p), y.id)});
          }
        }
      }
    }
    std::sort(candidates.begin(), candidates.end());
    extension_edges[p] = static_cast<uint32_t>(candidates.size());

    // Redundant neighbors removal (lines 9-12): scanning nearest-first,
    // drop y when some kept x satisfies δ(x, y) <= δ(y, p).
    auto& out = adjacency[p];
    out.clear();
    if (config.remove_redundant) {
      std::vector<Neighbor> kept;
      for (const Neighbor& y : candidates) {
        if (kept.size() >= config.max_degree) break;
        bool redundant = false;
        for (const Neighbor& x : kept) {
          if (distance(x.id, y.id) <= y.distance) {
            redundant = true;
            break;
          }
        }
        if (!redundant) kept.push_back(y);
      }
      out.reserve(kept.size());
      for (const Neighbor& nb : kept) out.push_back(nb.id);
    } else {
      const size_t limit = std::min(candidates.size(), config.max_degree);
      out.reserve(limit);
      for (size_t i = 0; i < limit; ++i) out.push_back(candidates[i].id);
    }
    refine_dists[p] = dist_count;
  });
  for (size_t p = 0; p < n; ++p) {
    local_stats.edges_after_extension += extension_edges[p];
    local_stats.distance_computations += refine_dists[p];
  }
  local_stats.refine_seconds = refine_timer.ElapsedSeconds();

  // --- Reverse-edge pass: occlusion pruning keeps *out*-edges only, so
  // the directed graph fragments at scale — a large fraction of nodes
  // ends up with no in-edge from the navigating node's component, and
  // every fragment would need its own highway below. Inserting p into
  // q's list for each kept edge p->q (only while q has spare capacity,
  // so the refine degree cap still holds) makes the graph near-symmetric,
  // which repairs most of that fragmentation up front and gives the
  // greedy search a way back "up" toward a query's cluster. Serial with
  // a fixed visit order, so builds stay bit-identical across pool sizes.
  {
    std::vector<uint32_t> base_degree(n);
    for (size_t p = 0; p < n; ++p) {
      base_degree[p] = static_cast<uint32_t>(adjacency[p].size());
    }
    for (size_t p = 0; p < n; ++p) {
      for (uint32_t i = 0; i < base_degree[p]; ++i) {
        const int32_t q = adjacency[p][i];
        auto& back = adjacency[q];
        if (back.size() >= config.max_degree) continue;
        if (std::find(back.begin(), back.end(), static_cast<int32_t>(p)) ==
            back.end()) {
          back.push_back(static_cast<int32_t>(p));
          ++local_stats.reverse_edges;
        }
      }
    }
  }

  // --- Connectivity repair: even after the reverse pass, far-apart
  // clusters can be unreachable from the navigating node. Link the
  // navigating node to the nearest point of each unreachable component
  // (these are exactly the "highway" edges of §IV-A, guaranteeing the
  // greedy search can leave the entry cluster — and giving every query
  // a one-hop teleport toward its cluster). The reverse pass above is
  // what keeps this affordable at scale: without it, directed pruning
  // fragments each cluster into many single-node components and the
  // navigating node degenerates into a hub whose expansion costs
  // O(fragments) distance computations on every search; with it, the
  // highway count is the number of genuine clusters.
  {
    // Reachability is judged over *strong* edges only: p -> q counts
    // only while d(p, q) <= 2x p's shortest kept edge (a factor of 4
    // on squared distances). Candidate pools leave a few long one-way
    // edges between far clusters; through those a cluster is
    // technically reachable, but the best-first search never follows
    // them (a weak link's far endpoint never outranks the local
    // frontier), so without a highway every query into that cluster
    // misses. Filtering weak edges out of this pass — the search graph
    // itself is untouched — makes such clusters count as unreached and
    // earn a proper highway. On smoothly-distributed data edge lengths
    // are comparable, nothing is filtered, and this degenerates to
    // plain reachability.
    constexpr float kStrongEdgeFactor = 4.0f;  // squared-distance ratio
    std::vector<std::vector<int32_t>> strong(n);
    std::vector<float> edge_dist;
    for (size_t p = 0; p < n; ++p) {
      const auto& nbrs = adjacency[p];
      if (nbrs.empty()) continue;
      edge_dist.resize(nbrs.size());
      float dmin = std::numeric_limits<float>::max();
      for (size_t i = 0; i < nbrs.size(); ++i) {
        ++local_stats.distance_computations;
        edge_dist[i] = squared(static_cast<int32_t>(p), nbrs[i]);
        dmin = std::min(dmin, edge_dist[i]);
      }
      auto& out = strong[p];
      out.reserve(nbrs.size());
      for (size_t i = 0; i < nbrs.size(); ++i) {
        if (edge_dist[i] <= kStrongEdgeFactor * dmin) out.push_back(nbrs[i]);
      }
    }
    std::vector<char> reachable(n, 0);
    std::vector<int32_t> stack;
    auto bfs_from = [&](int32_t start) {
      stack.push_back(start);
      reachable[start] = 1;
      while (!stack.empty()) {
        const int32_t v = stack.back();
        stack.pop_back();
        for (int32_t u : strong[v]) {
          if (!reachable[u]) {
            reachable[u] = 1;
            stack.push_back(u);
          }
        }
      }
    };
    bfs_from(navigating);
    for (;;) {
      int32_t nearest = -1;
      float nearest_dist = 0.0f;
      for (size_t u = 0; u < n; ++u) {
        if (reachable[u]) continue;
        ++local_stats.distance_computations;
        const float dist = squared(navigating, static_cast<int32_t>(u));
        if (nearest < 0 || dist < nearest_dist) {
          nearest = static_cast<int32_t>(u);
          nearest_dist = dist;
        }
      }
      if (nearest < 0) break;
      adjacency[navigating].push_back(nearest);
      ++local_stats.connectivity_edges;
      bfs_from(nearest);
    }
  }

  index.FinalizeLayout(points, std::move(adjacency), navigating);

  local_stats.edges_final = index.NumEdges();
  local_stats.build_seconds = total_timer.ElapsedSeconds();
  KPEF_COUNTER_ADD(obs::kPgindexBuildsTotal, 1);
  KPEF_COUNTER_ADD(obs::kPgindexBuildDistanceComputations,
                   local_stats.distance_computations);
  if (stats) *stats = local_stats;
  return index;
}

void PGIndex::FinalizeLayout(const Matrix& ext_points,
                             std::vector<std::vector<int32_t>>&& ext_adjacency,
                             int32_t navigating_external) {
  const size_t n = ext_points.rows();
  const size_t d = ext_points.cols();
  navigating_node_ = navigating_external;

  // BFS relabeling from the navigating node: the greedy search expands
  // nodes roughly in BFS order, so storing rows in that order turns graph
  // locality into memory locality. FIFO order with neighbors taken in
  // their stored (refinement) order makes the permutation a pure function
  // of the external graph — Build and a later Load agree bit-for-bit.
  std::vector<int32_t> to_external;
  to_external.reserve(n);
  std::vector<char> seen(n, 0);
  if (n > 0 && navigating_external >= 0) {
    size_t head = 0;
    to_external.push_back(navigating_external);
    seen[navigating_external] = 1;
    while (head < to_external.size()) {
      const int32_t v = to_external[head++];
      for (int32_t u : ext_adjacency[v]) {
        if (!seen[u]) {
          seen[u] = 1;
          to_external.push_back(u);
        }
      }
    }
  }
  // Unreachable stragglers (possible only in degenerate graphs) keep
  // their relative order at the end.
  for (size_t v = 0; v < n; ++v) {
    if (!seen[v]) to_external.push_back(static_cast<int32_t>(v));
  }
  std::vector<int32_t> to_internal(n, -1);
  for (size_t i = 0; i < n; ++i) {
    to_internal[to_external[i]] = static_cast<int32_t>(i);
  }

  // Permuted copies: points, then the adjacency flattened to CSR (ids
  // remapped to internal, per-node order preserved). Everything is built
  // fresh, so copies of the previous layout keep reading theirs.
  Matrix points(n, d);
  for (size_t i = 0; i < n; ++i) {
    const auto src = ext_points.Row(to_external[i]);
    auto dst = points.Row(i);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  size_t total_edges = 0;
  for (const auto& nbrs : ext_adjacency) total_edges += nbrs.size();
  Adjacency adj;
  adj.offsets.assign(n + 1, 0);
  adj.targets.reserve(total_edges);
  for (size_t i = 0; i < n; ++i) {
    for (int32_t u : ext_adjacency[to_external[i]]) {
      adj.targets.push_back(to_internal[u]);
    }
    adj.offsets[i + 1] = static_cast<int64_t>(adj.targets.size());
  }
  ext_adjacency.clear();

  points_ = std::move(points);
  points_.ShareRowsOnCopy();
  adj_ = std::make_shared<const Adjacency>(std::move(adj));
  to_external_ = AppendStore<int32_t>(std::move(to_external));
  to_internal_ = AppendStore<int32_t>(std::move(to_internal));
  extra_.clear();
  extra_edges_ = 0;
}

std::span<const int32_t> PGIndex::MergedNeighbors(
    int32_t internal, std::vector<int32_t>& scratch) const {
  const auto base = InternalNeighbors(internal);
  const auto extra = ExtraNeighbors(internal);
  if (extra.empty()) return base;
  scratch.assign(base.begin(), base.end());
  scratch.insert(scratch.end(), extra.begin(), extra.end());
  return {scratch.data(), scratch.size()};
}

std::vector<int32_t> PGIndex::NeighborsOf(int32_t node) const {
  const int32_t internal = to_internal_[node];
  std::vector<int32_t> out;
  out.reserve(InternalNeighbors(internal).size() +
              ExtraNeighbors(internal).size());
  for (int32_t u : InternalNeighbors(internal)) out.push_back(to_external_[u]);
  for (int32_t u : ExtraNeighbors(internal)) out.push_back(to_external_[u]);
  return out;
}

Status PGIndex::InsertBatch(const Matrix& new_points,
                            const InsertParams& params, InsertStats* stats) {
  if (new_points.rows() == 0) return Status::OK();
  if (points_.rows() == 0) {
    return Status::FailedPrecondition(
        "PGIndex::InsertBatch requires a non-empty base index");
  }
  if (new_points.cols() != points_.cols()) {
    return Status::InvalidArgument(
        "inserted point dimensionality does not match the index");
  }
  const size_t max_degree = std::max<size_t>(1, params.max_degree);
  const DistanceKernel& kernel = ActiveKernel();
  const size_t width = points_.stride();
  auto squared = [&](int32_t a, int32_t b) {
    return kernel.squared_l2(points_.PaddedRow(a).data(),
                             points_.PaddedRow(b).data(), width);
  };
  InsertStats local;
  std::vector<std::pair<float, int32_t>> cands;  // (squared dist, internal)
  std::vector<int32_t> kept;
  for (size_t r = 0; r < new_points.rows(); ++r) {
    // Locate the neighborhood with the regular greedy search.
    SearchParams sp;
    sp.m = max_degree;
    sp.ef = std::max(params.ef, max_degree + 8);
    SearchStats search_stats;
    const std::vector<Neighbor> found =
        Search(new_points.Row(r), sp, &search_stats);
    cands.clear();
    cands.reserve(found.size());
    for (const Neighbor& nb : found) {
      // Search returns true (rooted) L2 over external ids.
      cands.emplace_back(nb.distance * nb.distance, to_internal_[nb.id]);
    }
    std::sort(cands.begin(), cands.end());
    // Occlusion prune (Algorithm 2 lines 9-12): walking candidates
    // nearest-first, drop y when some kept x satisfies
    // d(x, y) <= d(y, p) — x "covers" the direction of y.
    kept.clear();
    for (const auto& [dist_yp, y] : cands) {
      if (kept.size() >= max_degree) break;
      bool occluded = false;
      for (const int32_t x : kept) {
        if (squared(x, y) <= dist_yp) {
          occluded = true;
          break;
        }
      }
      if (!occluded) kept.push_back(y);
    }
    // Append the point: new external id == new internal id (both are the
    // next row number), so the relabeling maps stay consistent without
    // touching existing entries.
    const int32_t fresh = static_cast<int32_t>(points_.rows());
    points_.AppendRow(new_points.Row(r));
    to_external_.push_back(fresh);
    to_internal_.push_back(fresh);
    const int32_t entry = to_internal_[navigating_node_];
    if (kept.empty()) kept.push_back(entry);
    extra_[fresh].assign(kept.begin(), kept.end());
    local.edges_added += kept.size();
    // Reverse edges keep the new node reachable from the base graph;
    // capacity-capped like the build's reverse pass, with at least one
    // in-edge forced so the greedy search can always arrive.
    size_t reverse_added = 0;
    for (const int32_t q : kept) {
      const size_t degree =
          InternalNeighbors(q).size() + ExtraNeighbors(q).size();
      if (degree >= max_degree) continue;
      extra_[q].push_back(fresh);
      ++reverse_added;
    }
    if (reverse_added == 0) {
      extra_[kept.front()].push_back(fresh);
      ++reverse_added;
    }
    local.edges_added += reverse_added;
    ++local.inserted;
  }
  extra_edges_ += local.edges_added;
  if (stats) *stats = local;
  return Status::OK();
}

void PGIndex::CompactDelta() {
  if (extra_edges_ == 0 && extra_.empty()) return;
  const size_t n = points_.rows();
  // Reassemble the external-order view (the layout Save writes), then
  // re-run the exact Build/Load finalization over the merged graph: BFS
  // relabel, CSR flatten.
  Matrix ext_points(n, points_.cols());
  for (size_t v = 0; v < n; ++v) {
    const auto src = std::as_const(points_).Row(to_internal_[v]);
    auto dst = ext_points.Row(v);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  std::vector<std::vector<int32_t>> ext_adjacency(n);
  std::vector<int32_t> scratch;
  for (size_t v = 0; v < n; ++v) {
    const auto merged = MergedNeighbors(to_internal_[v], scratch);
    auto& out = ext_adjacency[v];
    out.reserve(merged.size());
    for (int32_t u : merged) out.push_back(to_external_[u]);
  }
  FinalizeLayout(ext_points, std::move(ext_adjacency), navigating_node_);
}

size_t PGIndex::GreedySearch(std::span<const float> query,
                             const SearchParams& params, SearchArena& arena,
                             SearchStats* stats,
                             std::vector<Neighbor>* out) const {
  const size_t n = points_.rows();
  const size_t m = params.m;
  if (n == 0 || m == 0) return 0;
  const size_t pool_size = std::max(params.ef, m);

  const DistanceKernel& kernel = ActiveKernel();
  const size_t width = points_.stride();
  auto distance = [&](int32_t u) {
    ++stats->distance_computations;
    return kernel.squared_l2(points_.PaddedRow(u).data(), query.data(),
                             width);
  };
  const auto min_cmp = std::greater<Neighbor>{};

  auto& visited = arena.visited;
  auto& cand = arena.cand;
  auto& pool = arena.pool;
  visited.Begin(n);
  cand.clear();
  pool.clear();
  const int32_t entry = to_internal_[navigating_node_];
  const Neighbor first{entry, distance(entry)};
  cand.push_back(first);
  pool.push_back(first);
  visited.TestAndSet(entry);

  // Best-first loop: pop the nearest candidate, stop once it cannot
  // improve a full pool, else expand it. Expansion runs as two passes
  // over the adjacency list. The first marks visited and prefetches
  // each fresh neighbor's row the moment it is known to be needed; the
  // second scores those rows in the same order. Splitting the passes
  // keeps a hop's row fetches in flight together instead of each miss
  // serializing behind the previous kernel call.
  while (!cand.empty()) {
    std::pop_heap(cand.begin(), cand.end(), min_cmp);
    const Neighbor current = cand.back();
    cand.pop_back();
    if (pool.size() >= pool_size && current.distance > pool.front().distance) {
      break;  // cannot improve the pool anymore
    }
    ++stats->hops;
    const auto base_nbrs = InternalNeighbors(current.id);
    if (!base_nbrs.empty()) {
      PrefetchBytes(base_nbrs.data(), base_nbrs.size() * sizeof(int32_t));
    }
    const auto nbrs = MergedNeighbors(current.id, arena.merged);
    for (const int32_t u : nbrs) visited.Prefetch(u);
    auto& fresh = arena.fresh;
    fresh.clear();
    for (const int32_t u : nbrs) {
      if (visited.TestAndSet(u)) continue;
      PrefetchBytes(points_.PaddedRow(u).data(), width * sizeof(float));
      fresh.push_back(u);
    }
    for (const int32_t u : fresh) {
      const float dist = distance(u);
      if (pool.size() < pool_size || dist < pool.front().distance) {
        const Neighbor next{u, dist};
        cand.push_back(next);
        std::push_heap(cand.begin(), cand.end(), min_cmp);
        if (pool.size() < pool_size) {
          pool.push_back(next);
          std::push_heap(pool.begin(), pool.end());
        } else {
          ReplaceHeapTop(pool, next);
        }
      }
    }
  }

  // Finalization: order the surviving pool, cut to m, and translate
  // internal ids back to external. Distances returned are true (rooted)
  // L2.
  const size_t occupancy = pool.size();
  std::sort_heap(pool.begin(), pool.end());  // ascending (dist, id)
  const size_t count = std::min(pool.size(), m);
  out->clear();
  out->reserve(count);
  for (size_t r = 0; r < count; ++r) {
    out->push_back({to_external_[pool[r].id], std::sqrt(pool[r].distance)});
  }
  return occupancy;
}

std::vector<Neighbor> PGIndex::Search(std::span<const float> query, size_t m,
                                      size_t ef, SearchStats* stats) const {
  return Search(query, SearchParams{.m = m, .ef = ef}, stats);
}

std::vector<Neighbor> PGIndex::Search(std::span<const float> query,
                                      const SearchParams& params,
                                      SearchStats* stats) const {
  KPEF_TRACE_SPAN("pgindex.search");
  const AlignedVector padded = PadToAligned(query);
  return SearchPadded({padded.data(), padded.size()}, params, stats);
}

std::vector<Neighbor> PGIndex::SearchPadded(std::span<const float> padded,
                                            const SearchParams& params,
                                            SearchStats* stats) const {
  SearchStats local_stats;
  std::vector<Neighbor> result;
  Timer search_timer;
  const size_t occupancy =
      GreedySearch(padded, params, LocalArena(), &local_stats, &result);
  local_stats.search_ms = search_timer.ElapsedMillis();
  // The greedy loop above accumulated into stack-local stats only;
  // concurrent searches over a shared (const) index merge here, once.
  KPEF_COUNTER_ADD(obs::kPgindexSearchesTotal, 1);
  KPEF_COUNTER_ADD(obs::kPgindexDistanceComputations,
                   local_stats.distance_computations);
  KPEF_HISTOGRAM_OBSERVE(obs::kPgindexSearchHops, local_stats.hops);
  KPEF_HISTOGRAM_OBSERVE(obs::kPgindexCandidatePoolOccupancy, occupancy);
  if (stats) *stats = local_stats;
  return result;
}

std::vector<std::vector<Neighbor>> PGIndex::SearchBatch(
    const Matrix& queries, size_t m, size_t ef,
    std::vector<SearchStats>* stats, ThreadPool* pool) const {
  return SearchBatch(queries, SearchParams{.m = m, .ef = ef}, stats, pool);
}

std::vector<std::vector<Neighbor>> PGIndex::SearchBatch(
    const Matrix& queries, const SearchParams& params,
    std::vector<SearchStats>* stats, ThreadPool* pool) const {
  KPEF_TRACE_SPAN("pgindex.search_batch");
  const size_t batch = queries.rows();
  std::vector<std::vector<Neighbor>> results(batch);
  std::vector<SearchStats> local_stats(batch);
  if (batch == 0) {
    if (stats) stats->clear();
    return results;
  }
  KPEF_CHECK(points_.rows() == 0 || queries.cols() == points_.cols())
      << "query dimensionality does not match the index";
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::Default();
  // One task per query, each running Search's own body on its worker's
  // arena, so results and stats do not depend on the pool size or the
  // batch's composition.
  ParallelFor(p, batch, [&](size_t q) {
    results[q] = SearchPadded(queries.PaddedRow(q), params, &local_stats[q]);
  });
  if (stats) *stats = std::move(local_stats);
  return results;
}

size_t PGIndex::MemoryUsageBytes() const {
  size_t extra_bytes = 0;
  for (const auto& [node, list] : extra_) {
    extra_bytes += list.capacity() * sizeof(int32_t);
  }
  return points_.PaddedSize() * sizeof(float) +
         adj_->targets.size() * sizeof(int32_t) +
         adj_->offsets.size() * sizeof(int64_t) +
         (to_external_.size() + to_internal_.size()) * sizeof(int32_t) +
         extra_bytes;
}

namespace {

constexpr uint32_t kPGIndexMagic = 0x4B504749;  // "KPGI"
// fp32 points + adjacency, in external-id order. Older versions are
// refused, not converted.
constexpr uint32_t kPGIndexVersion = 3;

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

Status PGIndex::Save(std::ostream& out) const {
  const size_t n = points_.rows();
  WritePod(out, kPGIndexMagic);
  WritePod(out, kPGIndexVersion);
  WritePod(out, static_cast<uint64_t>(n));
  WritePod(out, static_cast<uint64_t>(points_.cols()));
  WritePod(out, navigating_node_);
  // Everything below is written in external-id order (dense, no padding),
  // so the artifact is independent of the in-memory relabeling.
  for (size_t r = 0; r < n; ++r) {
    const auto row = points_.Row(to_internal_[r]);
    out.write(reinterpret_cast<const char*>(row.data()),
              static_cast<std::streamsize>(row.size() * sizeof(float)));
  }
  std::vector<int32_t> nbrs;
  std::vector<int32_t> merged_scratch;
  for (size_t v = 0; v < n; ++v) {
    const auto internal =
        MergedNeighbors(to_internal_[v], merged_scratch);
    nbrs.clear();
    nbrs.reserve(internal.size());
    for (int32_t u : internal) nbrs.push_back(to_external_[u]);
    WritePod(out, static_cast<uint32_t>(nbrs.size()));
    out.write(reinterpret_cast<const char*>(nbrs.data()),
              static_cast<std::streamsize>(nbrs.size() * sizeof(int32_t)));
  }
  if (!out) return Status::IOError("write failed");
  return Status::OK();
}

Status PGIndex::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  KPEF_RETURN_IF_ERROR(Save(out));
  out.close();
  if (!out) return Status::IOError("flush failed for " + path);
  return Status::OK();
}

StatusOr<PGIndex> PGIndex::Load(std::istream& in) {
  uint32_t magic = 0, version = 0;
  uint64_t rows = 0, cols = 0;
  int32_t navigating = -1;
  if (!ReadPod(in, magic) || magic != kPGIndexMagic) {
    return Status::InvalidArgument("not a kpef PG-Index file");
  }
  if (!ReadPod(in, version)) {
    return Status::InvalidArgument("corrupt PG-Index header");
  }
  if (version != kPGIndexVersion) {
    return Status::InvalidArgument(
        "unsupported PG-Index version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kPGIndexVersion) +
        "); rebuild the model directory with kpef_cli build");
  }
  if (!ReadPod(in, rows) || !ReadPod(in, cols) || !ReadPod(in, navigating)) {
    return Status::InvalidArgument("corrupt PG-Index header");
  }
  if (!PlausibleMatrixDims(rows, cols)) {
    return Status::InvalidArgument("implausible PG-Index dimensions");
  }
  if (rows > 0 &&
      (navigating < 0 || static_cast<uint64_t>(navigating) >= rows)) {
    return Status::InvalidArgument("navigating node out of range");
  }
  // rows * cols floats, then at least a degree word per node.
  if (!StreamHolds(in, rows * (cols * sizeof(float) + sizeof(uint32_t)))) {
    return Status::InvalidArgument("PG-Index header declares more data "
                                   "than the file holds");
  }
  Matrix ext_points(rows, cols);
  for (uint64_t r = 0; r < rows; ++r) {
    auto row = ext_points.Row(r);
    in.read(reinterpret_cast<char*>(row.data()),
            static_cast<std::streamsize>(row.size() * sizeof(float)));
  }
  if (!in) return Status::InvalidArgument("truncated PG-Index embeddings");
  std::vector<std::vector<int32_t>> ext_adjacency(rows);
  for (uint64_t v = 0; v < rows; ++v) {
    uint32_t degree = 0;
    if (!ReadPod(in, degree) || degree > rows) {
      return Status::InvalidArgument("corrupt adjacency header");
    }
    auto& nbrs = ext_adjacency[v];
    nbrs.resize(degree);
    in.read(reinterpret_cast<char*>(nbrs.data()),
            static_cast<std::streamsize>(degree * sizeof(int32_t)));
    if (!in) return Status::InvalidArgument("truncated adjacency");
    for (int32_t u : nbrs) {
      if (u < 0 || static_cast<uint64_t>(u) >= rows) {
        return Status::InvalidArgument("neighbor id out of range");
      }
    }
  }
  PGIndex index;
  index.FinalizeLayout(ext_points, std::move(ext_adjacency), navigating);
  return index;
}

StatusOr<PGIndex> PGIndex::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  return Load(in);
}

}  // namespace kpef
