#include "analysis/ffg.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/contracts.hpp"
#include "common/thread_pool.hpp"
#include "core/compiled_space.hpp"

namespace bat::analysis {

namespace {

constexpr std::uint32_t kNoNode = std::numeric_limits<std::uint32_t>::max();

}  // namespace

FitnessFlowGraph::FitnessFlowGraph(const core::SearchSpace& space,
                                   const core::Dataset& ds) {
  const auto& compiled = space.compiled();

  // Nodes: the valid rows, in dataset order.
  std::vector<core::ConfigIndex> index_of_node;
  index_of_node.reserve(ds.size());
  for (std::size_t r = 0; r < ds.size(); ++r) {
    if (!ds.row_ok(r)) continue;
    index_of_node.push_back(ds.config_index(r));
    times_.push_back(ds.time_ms(r));
  }
  BAT_EXPECTS(!times_.empty());
  const std::size_t n = times_.size();

  // Index-native build: ConfigIndex -> valid-ordinal (rank) -> node id
  // via one flat array. A dataset row outside the compiled valid set
  // (foreign or stale CSV) disables ordinal mode; such datasets take the
  // tolerant hash-keyed path below.
  bool ordinal_mode = compiled.has_valid_set();
  std::vector<std::uint32_t> node_of_ordinal;
  if (ordinal_mode) {
    node_of_ordinal.assign(static_cast<std::size_t>(compiled.num_valid()),
                           kNoNode);
    for (std::size_t node = 0; node < n; ++node) {
      const auto ordinal = compiled.rank(index_of_node[node]);
      if (!ordinal) {
        ordinal_mode = false;
        break;
      }
      node_of_ordinal[static_cast<std::size_t>(*ordinal)] =
          static_cast<std::uint32_t>(node);
    }
  }

  if (ordinal_mode) {
    // One parallel pass emits edges into per-worker buffers whose
    // concatenation is already in node order (chunks are contiguous
    // ascending node ranges).
    auto& pool = common::ThreadPool::global();
    std::vector<std::size_t> degree(n, 0);
    std::vector<std::vector<std::uint32_t>> worker_edges(pool.size());
    pool.parallel_for_chunked(
        0, n, [&](std::size_t lo, std::size_t hi, std::size_t worker) {
          core::NeighborScratch scratch;
          auto& out = worker_edges[worker];
          for (std::size_t node = lo; node < hi; ++node) {
            const double time = times_[node];
            std::size_t emitted = 0;
            compiled.for_each_neighbor_index(
                index_of_node[node], scratch, [&](core::ConfigIndex nidx) {
                  const auto ordinal = compiled.rank(nidx);
                  if (!ordinal) return;  // invalid: not part of the graph
                  const auto v =
                      node_of_ordinal[static_cast<std::size_t>(*ordinal)];
                  if (v == kNoNode) return;  // unmeasured/failed row
                  if (times_[v] < time) {
                    out.push_back(v);
                    ++emitted;
                  }
                });
            degree[node] = emitted;
          }
        });

    graph_.offsets.assign(n + 1, 0);
    for (std::size_t node = 0; node < n; ++node) {
      graph_.offsets[node + 1] = graph_.offsets[node] + degree[node];
    }
    graph_.edges.reserve(graph_.offsets[n]);
    for (const auto& chunk : worker_edges) {
      graph_.edges.insert(graph_.edges.end(), chunk.begin(), chunk.end());
    }
    BAT_EXPECTS(graph_.edges.size() == graph_.offsets[n]);
    return;
  }

  // Streamed (huge) space: hash-keyed fallback.
  std::unordered_map<core::ConfigIndex, std::uint32_t> node_of;
  node_of.reserve(n);
  for (std::size_t node = 0; node < n; ++node) {
    node_of.emplace(index_of_node[node], static_cast<std::uint32_t>(node));
  }
  std::vector<std::vector<std::uint32_t>> adjacency(n);
  common::parallel_for_chunked(
      0, n, [&](std::size_t lo, std::size_t hi, std::size_t) {
        core::NeighborScratch scratch;
        for (std::size_t node = lo; node < hi; ++node) {
          auto& out = adjacency[node];
          compiled.for_each_neighbor_index(
              index_of_node[node], scratch, [&](core::ConfigIndex nidx) {
                const auto it = node_of.find(nidx);
                if (it == node_of.end()) return;
                if (times_[it->second] < times_[node]) {
                  out.push_back(it->second);
                }
              });
        }
      });
  graph_ = CsrGraph::from_adjacency(adjacency);
}

std::vector<std::uint32_t> FitnessFlowGraph::local_minima() const {
  std::vector<std::uint32_t> minima;
  for (std::size_t n = 0; n < num_nodes(); ++n) {
    if (graph_.out_degree(n) == 0) {
      minima.push_back(static_cast<std::uint32_t>(n));
    }
  }
  return minima;
}

double FitnessFlowGraph::best_time() const {
  return *std::min_element(times_.begin(), times_.end());
}

}  // namespace bat::analysis
