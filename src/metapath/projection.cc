#include "metapath/projection.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "metapath/p_neighbor.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"

namespace kpef {

HomogeneousProjection HomogeneousProjection::FromCsr(
    NodeTypeId node_type, std::vector<NodeId> nodes,
    std::vector<int64_t> offsets, std::vector<int32_t> neighbors) {
  const size_t n = nodes.size();
  KPEF_CHECK(offsets.size() == n + 1);
  KPEF_CHECK(offsets.empty() || offsets.front() == 0);
  KPEF_CHECK(offsets.empty() ||
             offsets.back() == static_cast<int64_t>(neighbors.size()));
  HomogeneousProjection proj;
  proj.node_type_ = node_type;
  proj.nodes_ = std::move(nodes);
  proj.offsets_ = std::move(offsets);
  proj.neighbors_ = std::move(neighbors);
  proj.degrees_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t degree = proj.offsets_[i + 1] - proj.offsets_[i];
    KPEF_CHECK(degree >= 0) << "offsets must be non-decreasing";
    proj.degrees_[i] = static_cast<int32_t>(degree);
  }
  return proj;
}

HomogeneousProjection HomogeneousProjection::FromAdjacency(
    NodeTypeId node_type, std::vector<NodeId> nodes,
    std::vector<std::vector<int32_t>> adjacency) {
  KPEF_CHECK(adjacency.size() == nodes.size());
  std::vector<int64_t> offsets(nodes.size() + 1, 0);
  for (auto& row : adjacency) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  for (size_t i = 0; i < adjacency.size(); ++i) {
    offsets[i + 1] = offsets[i] + static_cast<int64_t>(adjacency[i].size());
  }
  std::vector<int32_t> neighbors;
  neighbors.reserve(static_cast<size_t>(offsets.back()));
  for (const auto& row : adjacency) {
    neighbors.insert(neighbors.end(), row.begin(), row.end());
  }
  return FromCsr(node_type, std::move(nodes), std::move(offsets),
                 std::move(neighbors));
}

size_t HomogeneousProjection::MemoryUsageBytes() const {
  return nodes_.capacity() * sizeof(NodeId) +
         offsets_.capacity() * sizeof(int64_t) +
         degrees_.capacity() * sizeof(int32_t) +
         neighbors_.capacity() * sizeof(int32_t);
}

HomogeneousProjection ProjectHomogeneous(const HeteroGraph& graph,
                                         const MetaPath& path,
                                         const ProjectionOptions& options) {
  KPEF_CHECK(path.IsSymmetricEndpoints());
  Timer build_timer;
  ThreadPool& pool = options.pool != nullptr ? *options.pool
                                             : ThreadPool::Default();
  const NodeTypeId node_type = path.SourceType();
  const auto& nodes = graph.NodesOfType(node_type);
  const size_t n = nodes.size();

  // Pass 1 (count): offsets[i + 1] <- deg(i), then prefix-summed. Knowing
  // every row size up front lets pass 2 write rows straight into their
  // final flat slots (no per-row vectors, no growth).
  std::vector<int64_t> offsets(n + 1, 0);
  ParallelForChunks(pool, n, [&](size_t begin, size_t end) {
    // One finder per chunk: it keeps mutable BFS scratch and is not
    // thread-safe; the chunk amortizes its construction.
    PNeighborFinder finder(graph, path);
    for (size_t i = begin; i < end; ++i) {
      offsets[i + 1] = static_cast<int64_t>(finder.Degree(nodes[i]));
    }
  });
  for (size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
  const size_t entries = static_cast<size_t>(offsets[n]);

  // Pass 2 (fill): re-expand each node, writing local indices into its
  // slot, then sort the row. Local-index order equals NodeId order within
  // one type, so sorted rows are the canonical neighbor order shared with
  // the finder-backed searches.
  std::vector<int32_t> neighbors(entries);
  ParallelForChunks(pool, n, [&](size_t begin, size_t end) {
    PNeighborFinder finder(graph, path);
    for (size_t i = begin; i < end; ++i) {
      int32_t* row = neighbors.data() + offsets[i];
      const size_t degree = finder.NeighborLocalIndices(nodes[i], row);
      KPEF_CHECK(degree == static_cast<size_t>(offsets[i + 1] - offsets[i]));
      std::sort(row, row + degree);
    }
  });

  HomogeneousProjection proj = HomogeneousProjection::FromCsr(
      node_type, std::vector<NodeId>(nodes), std::move(offsets),
      std::move(neighbors));
  KPEF_COUNTER_ADD(obs::kProjectionBuildsTotal, 1);
  KPEF_COUNTER_ADD(obs::kProjectionEdges, entries);
  KPEF_HISTOGRAM_OBSERVE(obs::kProjectionBuildMs, build_timer.ElapsedMillis());
  return proj;
}

namespace {

// Walks the sorted-set union of one row across several projections,
// emitting each distinct neighbor once, ascending. `cursors` is reusable
// scratch sized to the projection count.
template <typename Emit>
void ForEachUnionNeighbor(
    const std::vector<HomogeneousProjection>& projections, int32_t row,
    std::vector<std::span<const int32_t>>& cursors, Emit emit) {
  cursors.clear();
  for (const HomogeneousProjection& proj : projections) {
    std::span<const int32_t> span = proj.Neighbors(row);
    if (!span.empty()) cursors.push_back(span);
  }
  while (!cursors.empty()) {
    int32_t min_value = cursors[0].front();
    for (size_t c = 1; c < cursors.size(); ++c) {
      min_value = std::min(min_value, cursors[c].front());
    }
    emit(min_value);
    for (size_t c = 0; c < cursors.size();) {
      if (cursors[c].front() == min_value) {
        cursors[c] = cursors[c].subspan(1);
        if (cursors[c].empty()) {
          cursors.erase(cursors.begin() + static_cast<ptrdiff_t>(c));
          continue;
        }
      }
      ++c;
    }
  }
}

}  // namespace

HomogeneousProjection UnionProjections(
    std::vector<HomogeneousProjection> projections) {
  KPEF_CHECK(!projections.empty());
  const NodeTypeId node_type = projections[0].node_type();
  const size_t n = projections[0].NumNodes();
  for (const HomogeneousProjection& proj : projections) {
    KPEF_CHECK(proj.node_type() == node_type);
    KPEF_CHECK(proj.NumNodes() == n);
  }
  if (projections.size() == 1) return std::move(projections[0]);

  ThreadPool& pool = ThreadPool::Default();
  // Same two-pass shape as the build: count each union row, prefix-sum,
  // then merge into exactly-sized slots.
  std::vector<int64_t> offsets(n + 1, 0);
  ParallelForChunks(pool, n, [&](size_t begin, size_t end) {
    std::vector<std::span<const int32_t>> cursors;
    for (size_t i = begin; i < end; ++i) {
      int64_t count = 0;
      ForEachUnionNeighbor(projections, static_cast<int32_t>(i), cursors,
                           [&](int32_t) { ++count; });
      offsets[i + 1] = count;
    }
  });
  for (size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];

  std::vector<int32_t> neighbors(static_cast<size_t>(offsets[n]));
  ParallelForChunks(pool, n, [&](size_t begin, size_t end) {
    std::vector<std::span<const int32_t>> cursors;
    for (size_t i = begin; i < end; ++i) {
      int32_t* out = neighbors.data() + offsets[i];
      ForEachUnionNeighbor(projections, static_cast<int32_t>(i), cursors,
                           [&](int32_t value) { *out++ = value; });
    }
  });

  return HomogeneousProjection::FromCsr(node_type, projections[0].nodes(),
                                        std::move(offsets),
                                        std::move(neighbors));
}

}  // namespace kpef
