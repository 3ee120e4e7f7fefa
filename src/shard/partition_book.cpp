#include "shard/partition_book.hpp"

#include <algorithm>
#include <unordered_map>

#include "support/check.hpp"

namespace dgnn::shard {

namespace {

/// splitmix64 finalizer — the standard 64-bit avalanche mix.
uint64_t
SplitMix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

int32_t
HashShard(int64_t node, int32_t num_shards, uint64_t seed)
{
    return static_cast<int32_t>(
        SplitMix64(static_cast<uint64_t>(node) ^ seed) %
        static_cast<uint64_t>(num_shards));
}

}  // namespace

const char*
ToString(PartitionerKind kind)
{
    switch (kind) {
      case PartitionerKind::kHash:
        return "hash";
      case PartitionerKind::kGreedy:
        return "greedy";
    }
    return "?";
}

PartitionBook::PartitionBook(int32_t num_shards,
                             std::vector<int32_t> assignment)
    : num_shards_(num_shards), assignment_(std::move(assignment))
{
    DGNN_CHECK(num_shards_ >= 1, "partition book needs >= 1 shard, got ",
               num_shards_);
    for (size_t i = 0; i < assignment_.size(); ++i) {
        DGNN_CHECK(assignment_[i] >= 0 && assignment_[i] < num_shards_,
                   "node ", i, " assigned to out-of-range shard ",
                   assignment_[i]);
    }
}

int32_t
PartitionBook::ShardOf(int64_t node) const
{
    if (node >= 0 && node < NumNodes()) {
        return assignment_[static_cast<size_t>(node)];
    }
    // Out-of-book fold: deterministic, id-only (no seed is stored), so
    // node-blind requests (src = -1) and past-the-dataset ids still route.
    const int64_t shards = num_shards_;
    return static_cast<int32_t>(((node % shards) + shards) % shards);
}

std::vector<int64_t>
PartitionBook::ShardSizes() const
{
    std::vector<int64_t> sizes(static_cast<size_t>(num_shards_), 0);
    for (const int32_t shard : assignment_) {
        ++sizes[static_cast<size_t>(shard)];
    }
    return sizes;
}

double
PartitionBook::BalanceFactor() const
{
    if (assignment_.empty()) {
        return 1.0;
    }
    const std::vector<int64_t> sizes = ShardSizes();
    const int64_t largest = *std::max_element(sizes.begin(), sizes.end());
    const double ideal = static_cast<double>(NumNodes()) /
                         static_cast<double>(num_shards_);
    return static_cast<double>(largest) / ideal;
}

PartitionBook
HashPartition(int64_t num_nodes, int32_t num_shards, uint64_t seed)
{
    DGNN_CHECK(num_nodes >= 0, "negative node count ", num_nodes);
    DGNN_CHECK(num_shards >= 1, "need >= 1 shard, got ", num_shards);
    std::vector<int32_t> assignment(static_cast<size_t>(num_nodes));
    for (int64_t node = 0; node < num_nodes; ++node) {
        assignment[static_cast<size_t>(node)] =
            HashShard(node, num_shards, seed);
    }
    return PartitionBook(num_shards, std::move(assignment));
}

PartitionBook
GreedyEdgeCutPartition(int64_t num_nodes, int32_t num_shards,
                       const std::vector<std::pair<int64_t, int64_t>>& edges,
                       uint64_t seed)
{
    DGNN_CHECK(num_nodes >= 0, "negative node count ", num_nodes);
    DGNN_CHECK(num_shards >= 1, "need >= 1 shard, got ", num_shards);

    // CSR adjacency over the in-book endpoints (out-of-book endpoints carry
    // no state rows to co-locate, so they do not steer placement).
    std::vector<int64_t> degree(static_cast<size_t>(num_nodes), 0);
    for (const auto& [u, v] : edges) {
        if (u >= 0 && u < num_nodes && v >= 0 && v < num_nodes && u != v) {
            ++degree[static_cast<size_t>(u)];
            ++degree[static_cast<size_t>(v)];
        }
    }
    std::vector<int64_t> offset(static_cast<size_t>(num_nodes) + 1, 0);
    for (int64_t node = 0; node < num_nodes; ++node) {
        offset[static_cast<size_t>(node) + 1] =
            offset[static_cast<size_t>(node)] +
            degree[static_cast<size_t>(node)];
    }
    std::vector<int64_t> adjacency(static_cast<size_t>(offset.back()));
    std::vector<int64_t> cursor = offset;
    for (const auto& [u, v] : edges) {
        if (u >= 0 && u < num_nodes && v >= 0 && v < num_nodes && u != v) {
            adjacency[static_cast<size_t>(cursor[static_cast<size_t>(u)]++)] =
                v;
            adjacency[static_cast<size_t>(cursor[static_cast<size_t>(v)]++)] =
                u;
        }
    }

    const int64_t capacity = std::max<int64_t>(
        1, static_cast<int64_t>(
               static_cast<double>((num_nodes + num_shards - 1) / num_shards) *
               1.1) +
               1);
    std::vector<int64_t> sizes(static_cast<size_t>(num_shards), 0);
    std::vector<int32_t> assignment(static_cast<size_t>(num_nodes), -1);
    std::vector<int64_t> placed_neighbors(static_cast<size_t>(num_shards), 0);

    for (int64_t node = 0; node < num_nodes; ++node) {
        std::fill(placed_neighbors.begin(), placed_neighbors.end(), 0);
        for (int64_t i = offset[static_cast<size_t>(node)];
             i < offset[static_cast<size_t>(node) + 1]; ++i) {
            const int32_t owner =
                assignment[static_cast<size_t>(adjacency[static_cast<size_t>(
                    i)])];
            if (owner >= 0) {
                ++placed_neighbors[static_cast<size_t>(owner)];
            }
        }
        int32_t best = -1;
        double best_score = 0.0;
        for (int32_t shard = 0; shard < num_shards; ++shard) {
            if (sizes[static_cast<size_t>(shard)] >= capacity) {
                continue;
            }
            const double penalty =
                1.0 - static_cast<double>(sizes[static_cast<size_t>(shard)]) /
                          static_cast<double>(capacity);
            const double score =
                static_cast<double>(
                    placed_neighbors[static_cast<size_t>(shard)]) *
                penalty;
            // Strict > keeps ties on the lowest shard id — deterministic.
            if (best < 0 || score > best_score) {
                best = shard;
                best_score = score;
            }
        }
        if (best_score == 0.0) {
            // No placed neighbors (or all-full penalty): fall back to the
            // hash shard so unconnected prefixes do not pile onto shard 0.
            const int32_t hashed = HashShard(node, num_shards, seed);
            if (sizes[static_cast<size_t>(hashed)] < capacity) {
                best = hashed;
            }
        }
        DGNN_CHECK(best >= 0, "greedy partitioner found no open shard for ",
                   "node ", node);
        assignment[static_cast<size_t>(node)] = best;
        ++sizes[static_cast<size_t>(best)];
    }
    return PartitionBook(num_shards, std::move(assignment));
}

int64_t
EdgeCut(const PartitionBook& book,
        const std::vector<std::pair<int64_t, int64_t>>& edges)
{
    int64_t cut = 0;
    for (const auto& [u, v] : edges) {
        if (book.ShardOf(u) != book.ShardOf(v)) {
            ++cut;
        }
    }
    return cut;
}

}  // namespace dgnn::shard
