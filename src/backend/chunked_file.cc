#include "backend/chunked_file.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/crc32c.h"
#include "common/fault_injector.h"

namespace chunkcache::backend {

using storage::RowId;
using storage::Tuple;

namespace {

/// CRC32C of every dimension's chunk ranges, level by level.
uint32_t RangesCrc(const chunks::ChunkingScheme& scheme) {
  uint32_t crc = 0;
  for (uint32_t d = 0; d < scheme.num_dims(); ++d) {
    const chunks::DimensionChunking& dc = scheme.dim_chunking(d);
    for (uint32_t level = 1; level <= dc.depth(); ++level) {
      const uint32_t n = dc.NumRanges(level);
      crc = Crc32c(&n, sizeof(n), crc);
      for (uint32_t i = 0; i < n; ++i) {
        const schema::OrdinalRange r = dc.Range(level, i);
        const uint32_t ends[2] = {r.begin, r.end};
        crc = Crc32c(ends, sizeof(ends), crc);
      }
    }
  }
  return crc;
}

}  // namespace

std::vector<RowRun> CoalesceRowRuns(std::vector<RowRun> runs,
                                    uint64_t max_rows) {
  std::sort(runs.begin(), runs.end(), [](const RowRun& a, const RowRun& b) {
    return a.first < b.first;
  });
  std::vector<RowRun> merged;
  merged.reserve(runs.size());
  for (const RowRun& r : runs) {
    if (!merged.empty() &&
        merged.back().first + merged.back().count == r.first &&
        (max_rows == 0 || merged.back().count + r.count <= max_rows)) {
      merged.back().count += r.count;
      merged.back().chunks += r.chunks;
    } else {
      merged.push_back(r);
    }
  }
  return merged;
}

Result<ChunkedFile> ChunkedFile::BulkLoad(storage::BufferPool* pool,
                                          const chunks::ChunkingScheme* scheme,
                                          std::vector<Tuple> tuples,
                                          bool clustered) {
  const chunks::GroupBySpec base = scheme->BaseSpec();
  const uint64_t num_chunks = scheme->GridFor(base).num_chunks();
  CHUNKCACHE_CHECK(tuples.size() <= std::numeric_limits<uint32_t>::max());
  CHUNKCACHE_CHECK(num_chunks <= std::numeric_limits<uint32_t>::max());
  // Each tuple's base chunk number, then the load order: input order, or
  // when clustering, a counting sort by chunk number (stable, so tuples of
  // one chunk keep their input order). The same pass folds the tuples'
  // records into the fingerprint.
  const storage::TupleDesc desc = scheme->schema().tuple_desc();
  const uint64_t num_tuples = tuples.size();
  uint32_t tuples_crc = Crc32c(&num_tuples, sizeof(num_tuples));
  uint8_t record[storage::kMaxDims * 4 + 8];
  std::vector<uint32_t> chunk_of(tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    chunks::ChunkCoords cell{};
    for (uint32_t d = 0; d < scheme->num_dims(); ++d) {
      cell[d] = tuples[i].keys[d];
    }
    chunk_of[i] = static_cast<uint32_t>(scheme->ChunkOfCell(base, cell));
    tuples[i].Serialize(desc, record);
    tuples_crc = Crc32c(record, desc.RecordSize(), tuples_crc);
  }
  std::vector<uint32_t> order(tuples.size());
  if (clustered) {
    std::vector<uint32_t> start(num_chunks + 1, 0);
    for (uint32_t c : chunk_of) ++start[c + 1];
    for (uint64_t c = 0; c < num_chunks; ++c) start[c + 1] += start[c];
    for (uint32_t i = 0; i < tuples.size(); ++i) {
      order[start[chunk_of[i]]++] = i;
    }
  } else {
    std::iota(order.begin(), order.end(), 0);
  }

  CHUNKCACHE_ASSIGN_OR_RETURN(storage::FactFile fact,
                              storage::FactFile::Create(pool, desc));
  CHUNKCACHE_ASSIGN_OR_RETURN(const RowId first,
                              fact.AppendInOrder(tuples, order));
  CHUNKCACHE_RETURN_IF_ERROR(fact.SyncHeader());
  // Chunk runs in the appended order.
  std::vector<std::pair<uint64_t, index::BTreePayload>> runs;
  if (clustered) {
    for (size_t pos = 0; pos < order.size(); ++pos) {
      const uint32_t chunk = chunk_of[order[pos]];
      if (runs.empty() || runs.back().first != chunk) {
        runs.push_back({chunk, index::BTreePayload{first + pos, 1}});
      } else {
        runs.back().second.v2++;
      }
    }
  }

  ChunkedFile file(std::move(fact), scheme, clustered,
                   uint64_t{RangesCrc(*scheme)} << 32 | tuples_crc);
  if (clustered) {
    CHUNKCACHE_ASSIGN_OR_RETURN(index::BTree tree, index::BTree::Create(pool));
    CHUNKCACHE_RETURN_IF_ERROR(tree.BulkLoad(runs));
    file.chunk_index_.emplace(std::move(tree));
  }
  return file;
}

Result<std::pair<RowId, uint64_t>> ChunkedFile::ChunkRun(uint64_t chunk_num) {
  if (!clustered_) {
    return Status::Unsupported("ChunkRun on an unclustered file");
  }
  auto payload = chunk_index_->Get(chunk_num);
  if (!payload.ok()) return payload.status();
  return std::make_pair(payload->v1, payload->v2);
}

Result<std::vector<RowRun>> ChunkedFile::CoalescedRuns(
    const std::vector<uint64_t>& chunk_nums, uint64_t max_rows) {
  if (!clustered_) {
    return Status::Unsupported("CoalescedRuns on an unclustered file");
  }
  CHUNKCACHE_FAULT_POINT(FaultSite::kFactScan);
  std::vector<RowRun> runs;
  runs.reserve(chunk_nums.size());
  for (uint64_t chunk_num : chunk_nums) {
    auto payload = chunk_index_->Get(chunk_num);
    if (!payload.ok()) {
      if (payload.status().code() == StatusCode::kNotFound) continue;
      return payload.status();
    }
    runs.push_back(RowRun{payload->v1, payload->v2, 1});
  }
  return CoalesceRowRuns(std::move(runs), max_rows);
}

}  // namespace chunkcache::backend
