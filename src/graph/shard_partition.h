#ifndef PQSDA_GRAPH_SHARD_PARTITION_H_
#define PQSDA_GRAPH_SHARD_PARTITION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/shard_router.h"
#include "graph/multi_bipartite.h"

namespace pqsda {

/// Partitioning knobs: the serving shards, or unsharded the cache
/// validation components (see IndexSnapshot::partition).
struct ShardPartitionOptions {
  size_t shards = 1;
  /// Query rows whose total query->object degree (summed over the three
  /// bipartites) reaches this are *hot boundary rows*: they are reached
  /// from nearly every expansion frontier, so instead of paying a
  /// cross-shard fetch per round they are replicated to every shard and
  /// answered locally. 0 disables replication (strict ownership — what the
  /// routing-discipline tests use).
  size_t hot_row_min_degree = 48;
};

/// A query-hash partition of one MultiBipartite: which shard owns each
/// query row, which rows are replicated everywhere, and a content
/// fingerprint per shard that detects whether a rebuild actually changed
/// the shard's slice of the graph.
///
/// The partition is a *view* over the immutable snapshot, not a physical
/// re-layout: every shard reads the shared CSR storage, and ownership is
/// enforced at the fetch API (ShardedWalkBackend), where a read of a row
/// that is neither owned nor replicated is a routing bug the differential
/// harness turns into a loud failure. Splitting the physical row storage
/// behind the same view API is mechanical follow-up work; the semantics —
/// what the scatter-gather layer is allowed to read where — are fixed here.
struct ShardPartition {
  size_t shards = 1;
  /// Owning shard of each global query id (ShardRouter::QueryShardOf over
  /// the query *string*, so ownership survives id renumbering between
  /// generations).
  std::vector<uint32_t> query_owner;
  /// 1 for hot boundary rows replicated to every shard.
  std::vector<uint8_t> hot;
  size_t replicated_rows = 0;

  struct PerShard {
    size_t owned_queries = 0;
    /// query->object nonzeros of the owned rows, summed over the three
    /// bipartites (the shard's share of the walkable graph).
    size_t owned_nnz = 0;
    /// Content fingerprint of everything this shard serves (owned + hot
    /// rows). Defined over query/URL/term *strings* and the full
    /// object->query row contents of every adjacent object — never
    /// interned ids — and combined order-independently, so it is stable
    /// under the id renumbering a rebuild may cause and changes exactly
    /// when the data a walk through the shard's rows can read changes.
    /// Covering adjacent objects' whole rows (not just their identities)
    /// matters: an edge-count delta on a query owned by another shard
    /// still changes the contributions flowing through a shared object
    /// into this shard's rows. IndexManager bumps a shard's generation only
    /// on a fingerprint change, which is what lets a single-shard delta
    /// invalidate only the cache entries whose served content it could
    /// actually have affected.
    uint64_t content_fingerprint = 0;
  };
  std::vector<PerShard> shard;

  bool Owns(size_t s, StringId q) const { return query_owner[q] == s; }
  /// Whether shard `s` can answer a fetch of query row `q` (owned or hot).
  bool HasRow(size_t s, StringId q) const {
    return query_owner[q] == s || hot[q] != 0;
  }
};

/// Partitions `mb` into `options.shards` shards. Deterministic: same
/// representation and options, same partition (including fingerprints).
ShardPartition BuildShardPartition(const MultiBipartite& mb,
                                   const ShardPartitionOptions& options);

}  // namespace pqsda

#endif  // PQSDA_GRAPH_SHARD_PARTITION_H_
