#include "backend/chunked_file.h"

#include <algorithm>

#include "common/fault_injector.h"

namespace chunkcache::backend {

using storage::RowId;
using storage::Tuple;

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
  // Pair each tuple with its base chunk number; cluster if requested.
  std::vector<std::pair<uint64_t, uint32_t>> order(tuples.size());
  for (uint32_t i = 0; i < tuples.size(); ++i) {
    chunks::ChunkCoords cell{};
    for (uint32_t d = 0; d < scheme->num_dims(); ++d) {
      cell[d] = tuples[i].keys[d];
    }
    order[i] = {scheme->ChunkOfCell(base, cell), i};
  }
  if (clustered) {
    std::stable_sort(order.begin(), order.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
  }

  CHUNKCACHE_ASSIGN_OR_RETURN(
      storage::FactFile fact,
      storage::FactFile::Create(pool, scheme->schema().tuple_desc()));
  // Append in (possibly clustered) order, recording chunk runs.
  std::vector<std::pair<uint64_t, index::BTreePayload>> runs;
  for (const auto& [chunk, idx] : order) {
    CHUNKCACHE_ASSIGN_OR_RETURN(RowId rid, fact.Append(tuples[idx]));
    if (clustered) {
      if (runs.empty() || runs.back().first != chunk) {
        runs.push_back({chunk, index::BTreePayload{rid, 1}});
      } else {
        runs.back().second.v2++;
      }
    }
  }
  CHUNKCACHE_RETURN_IF_ERROR(fact.SyncHeader());

  ChunkedFile file(std::move(fact), scheme, clustered);
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
