#include "backend/engine.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"

namespace chunkcache::backend {

using chunks::ChunkBox;
using chunks::ChunkCoords;
using chunks::GroupBySpec;
using schema::OrdinalRange;
using storage::AggTuple;
using storage::RowId;
using storage::Tuple;

BackendEngine::BackendEngine(storage::BufferPool* pool, ChunkedFile* file,
                             const chunks::ChunkingScheme* scheme,
                             BackendOptions options)
    : pool_(pool), file_(file), scheme_(scheme), options_(options) {}

Status BackendEngine::BuildBitmapIndexes() {
  bitmap_indexes_.clear();
  std::vector<index::BitmapIndex::Column> columns;
  for (uint32_t d = 0; d < scheme_->num_dims(); ++d) {
    const auto& h = scheme_->schema().dimension(d).hierarchy;
    columns.push_back({d, h.LevelCardinality(h.depth())});
  }
  CHUNKCACHE_ASSIGN_OR_RETURN(
      bitmap_indexes_,
      index::BitmapIndex::BuildMany(pool_, &file_->fact_file(), columns));
  return Status::OK();
}

Status BackendEngine::MaterializeAggregate(const GroupBySpec& spec) {
  if (!spec.CoarserOrEqual(scheme_->BaseSpec())) {
    return Status::InvalidArgument("MaterializeAggregate: invalid spec");
  }
  for (const auto& m : materialized_) {
    if (m.spec() == spec) {
      return Status::AlreadyExists("aggregate already materialized");
    }
  }
  // Aggregate the whole base table to `spec`.
  HashAggregator agg(scheme_, spec);
  CHUNKCACHE_RETURN_IF_ERROR(file_->Scan([&](RowId, const Tuple& t) {
    agg.AddBase(t);
    return true;
  }));
  std::vector<AggTuple> rows = agg.TakeRows();
  // Cluster rows by their chunk number in spec's grid.
  std::vector<std::pair<uint64_t, uint32_t>> order(rows.size());
  for (uint32_t i = 0; i < rows.size(); ++i) {
    ChunkCoords cell{};
    for (uint32_t d = 0; d < scheme_->num_dims(); ++d) {
      cell[d] = rows[i].coords[d];
    }
    order[i] = {scheme_->ChunkOfCell(spec, cell), i};
  }
  std::stable_sort(
      order.begin(), order.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });

  CHUNKCACHE_ASSIGN_OR_RETURN(AggFile file,
                              AggFile::Create(pool_, scheme_->num_dims()));
  std::vector<std::pair<uint64_t, index::BTreePayload>> runs;
  for (const auto& [chunk, idx] : order) {
    CHUNKCACHE_ASSIGN_OR_RETURN(uint64_t rid, file.Append(rows[idx]));
    if (runs.empty() || runs.back().first != chunk) {
      runs.push_back({chunk, index::BTreePayload{rid, 1}});
    } else {
      runs.back().second.v2++;
    }
  }
  CHUNKCACHE_ASSIGN_OR_RETURN(index::BTree tree,
                              index::BTree::BulkLoad(pool_, runs));
  materialized_.emplace_back(spec, std::move(file), std::move(tree));
  return Status::OK();
}

std::optional<size_t> BackendEngine::PickSource(
    const GroupBySpec& target) const {
  // Cheapest source = fewest expected rows scanned per target chunk.
  // Expected rows per chunk of source s ~= |s| / #chunks(target): each
  // target chunk pulls the same fraction of any eligible source.
  std::optional<size_t> best;
  double best_rows = static_cast<double>(file_->num_tuples());
  for (size_t i = 0; i < materialized_.size(); ++i) {
    const auto& m = materialized_[i];
    if (!target.CoarserOrEqual(m.spec())) continue;
    const double rows = static_cast<double>(m.num_rows());
    if (rows < best_rows) {
      best_rows = rows;
      best = i;
    }
  }
  return best;
}

Result<std::vector<ChunkData>> BackendEngine::ComputeChunks(
    const GroupBySpec& target, const std::vector<uint64_t>& chunk_nums,
    const std::vector<NonGroupByPredicate>& non_group_by,
    WorkCounters* work) {
  const auto disk_before = pool_->disk()->stats();
  // Non-group-by predicates reference base-level detail, so they force
  // computation from the base table.
  std::optional<size_t> source =
      non_group_by.empty() ? PickSource(target) : std::nullopt;
  const GroupBySpec source_spec =
      source ? materialized_[*source].spec() : scheme_->BaseSpec();

  // Precompute base-level ranges of the non-group-by predicates.
  std::array<OrdinalRange, storage::kMaxDims> pre_filter{};
  std::array<bool, storage::kMaxDims> has_filter{};
  for (const auto& p : non_group_by) {
    const auto& h = scheme_->schema().dimension(p.dim).hierarchy;
    const OrdinalRange base = h.BaseRangeOf(p.level, p.range);
    if (has_filter[p.dim]) {
      // Intersect multiple predicates on the same dimension.
      pre_filter[p.dim].begin = std::max(pre_filter[p.dim].begin, base.begin);
      pre_filter[p.dim].end = std::min(pre_filter[p.dim].end, base.end);
    } else {
      pre_filter[p.dim] = base;
      has_filter[p.dim] = true;
    }
  }

  // Unclustered fallback: without a chunk index the backend must scan the
  // whole table once and route tuples to the requested chunks — the very
  // cost (proportional to the table, not the chunks) the chunked file
  // organization exists to avoid. Kept for the ablation benchmarks. Each
  // requested chunk still folds through its own per-chunk kernel (dense
  // when the cell box allows it).
  if (!file_->clustered()) {
    std::unordered_map<uint64_t, ChunkAggregator> per_chunk;
    for (uint64_t chunk_num : chunk_nums) {
      per_chunk.try_emplace(chunk_num, scheme_, target, chunk_num,
                            options_.dense_cell_limit, &kernel_counters_);
    }
    uint64_t visited = 0;
    CHUNKCACHE_RETURN_IF_ERROR(file_->Scan([&](RowId, const Tuple& t) {
      ++visited;
      for (uint32_t d = 0; d < target.num_dims; ++d) {
        if (has_filter[d] && !pre_filter[d].Contains(t.keys[d])) return true;
      }
      ChunkCoords coords{};
      for (uint32_t d = 0; d < target.num_dims; ++d) {
        const auto& h = scheme_->schema().dimension(d).hierarchy;
        coords[d] = h.AncestorAt(h.depth(), t.keys[d], target.levels[d]);
      }
      auto it = per_chunk.find(scheme_->ChunkOfCell(target, coords));
      if (it != per_chunk.end()) it->second.AddBase(t);
      return true;
    }));
    work->tuples_processed += visited;
    std::vector<ChunkData> out;
    out.reserve(chunk_nums.size());
    for (uint64_t chunk_num : chunk_nums) {
      ChunkData data;
      data.chunk_num = chunk_num;
      data.cols = per_chunk.at(chunk_num).TakeColumns();
      out.push_back(std::move(data));
    }
    const auto scan_after = pool_->disk()->stats();
    work->pages_read += scan_after.reads - disk_before.reads;
    work->pages_written += scan_after.writes - disk_before.writes;
    return out;
  }

  // Each requested chunk maps to a disjoint set of source chunks (the
  // closure property), so each chunk folds its own source chunks into a
  // private aggregator.
  //
  // A chunk first resolves its source chunks to runs and merges the
  // back-to-back ones into maximal sequential reads (at most
  // max_merged_run_rows rows each), then bulk-decodes each read into a
  // columnar batch for the chunk's kernel. Runs are read in ascending row
  // order, which in a clustered file equals ascending source chunk number,
  // so the fold order — and the result, bit for bit — does not depend on
  // how runs were merged.
  const bool* filt = non_group_by.empty() ? nullptr : has_filter.data();
  MaterializedAggregate* mat = source ? &materialized_[*source] : nullptr;
  std::vector<ChunkData> out;
  out.reserve(chunk_nums.size());
  uint64_t tuples_scanned = 0;
  // One batch serves every run of every requested chunk: each read clears
  // it and refills it within the capacity earlier reads grew.
  storage::AggColumns agg_batch(scheme_->num_dims());
  storage::TupleColumns base_batch;
  base_batch.num_dims = scheme_->num_dims();
  for (uint64_t chunk_num : chunk_nums) {
    CHUNKCACHE_ASSIGN_OR_RETURN(
        const chunks::ChunkBox box,
        scheme_->SourceBox(target, chunk_num, source_spec));
    ChunkAggregator agg(scheme_, target, chunk_num, options_.dense_cell_limit,
                        &kernel_counters_);
    std::vector<uint64_t> src_chunks;
    box.ForEach(scheme_->GridFor(source_spec),
                [&](uint64_t src_chunk, const ChunkCoords&) {
                  src_chunks.push_back(src_chunk);
                });
    CHUNKCACHE_ASSIGN_OR_RETURN(
        const std::vector<RowRun> runs,
        mat != nullptr
            ? CoalescedChunkRuns(mat->chunk_index(), src_chunks,
                                 options_.max_merged_run_rows)
            : file_->CoalescedRuns(src_chunks, options_.max_merged_run_rows));
    for (const RowRun& run : runs) {
      if (run.chunks > 1) {
        kernel_counters_.coalesced_reads.fetch_add(1,
                                                   std::memory_order_relaxed);
        kernel_counters_.runs_merged.fetch_add(run.chunks,
                                               std::memory_order_relaxed);
      } else {
        kernel_counters_.single_run_reads.fetch_add(1,
                                                    std::memory_order_relaxed);
      }
      if (mat != nullptr) {
        agg_batch.Clear();
        CHUNKCACHE_RETURN_IF_ERROR(
            mat->file().ScanRangeColumns(run.first, run.count, &agg_batch));
        agg.AddAggColumns(agg_batch, source_spec);
      } else {
        base_batch.Clear();
        CHUNKCACHE_RETURN_IF_ERROR(file_->fact_file().ScanRangeColumns(
            run.first, run.count, &base_batch));
        agg.AddBaseColumns(base_batch, filt, pre_filter.data());
      }
    }
    tuples_scanned += agg.rows_consumed();
    ChunkData data;
    data.chunk_num = chunk_num;
    data.cols = agg.TakeColumns();
    out.push_back(std::move(data));
  }
  work->tuples_processed += tuples_scanned;
  const auto disk_after = pool_->disk()->stats();
  work->pages_read += disk_after.reads - disk_before.reads;
  work->pages_written += disk_after.writes - disk_before.writes;
  return out;
}

double BackendEngine::Selectivity(const StarJoinQuery& query) const {
  auto base_sel = BaseSelection(query);
  if (!base_sel) return 0.0;
  double fraction = 1.0;
  for (uint32_t d = 0; d < scheme_->num_dims(); ++d) {
    const auto& h = scheme_->schema().dimension(d).hierarchy;
    fraction *= static_cast<double>((*base_sel)[d].size()) /
                h.LevelCardinality(h.depth());
  }
  return fraction;
}

std::optional<std::array<OrdinalRange, storage::kMaxDims>>
BackendEngine::BaseSelection(const StarJoinQuery& query) const {
  std::array<OrdinalRange, storage::kMaxDims> base_sel{};
  for (uint32_t d = 0; d < scheme_->num_dims(); ++d) {
    const auto& h = scheme_->schema().dimension(d).hierarchy;
    base_sel[d] =
        h.BaseRangeOf(query.group_by.levels[d], query.selection[d]);
  }
  for (const auto& p : query.non_group_by) {
    const auto& h = scheme_->schema().dimension(p.dim).hierarchy;
    const OrdinalRange r = h.BaseRangeOf(p.level, p.range);
    base_sel[p.dim].begin = std::max(base_sel[p.dim].begin, r.begin);
    base_sel[p.dim].end = std::min(base_sel[p.dim].end, r.end);
    if (base_sel[p.dim].begin > base_sel[p.dim].end) return std::nullopt;
  }
  return base_sel;
}

Result<std::vector<ResultRow>> BackendEngine::ExecuteStarJoin(
    const StarJoinQuery& query, WorkCounters* work) {
  if (query.group_by.num_dims != scheme_->num_dims()) {
    return Status::InvalidArgument("query dimension count mismatch");
  }
  auto base_sel = BaseSelection(query);
  if (!base_sel) return std::vector<ResultRow>{};  // contradictory filters

  bool restricted = false;
  for (uint32_t d = 0; d < scheme_->num_dims(); ++d) {
    const auto& h = scheme_->schema().dimension(d).hierarchy;
    if ((*base_sel)[d].begin != 0 ||
        (*base_sel)[d].end + 1 != h.LevelCardinality(h.depth())) {
      restricted = true;
    }
  }
  if (restricted && has_bitmap_indexes() &&
      Selectivity(query) <= options_.bitmap_selectivity_threshold) {
    return BitmapAggregate(query, *base_sel, work);
  }
  return ScanAggregate(query, *base_sel, work);
}

Result<std::vector<ResultRow>> BackendEngine::ScanAggregate(
    const StarJoinQuery& query,
    const std::array<OrdinalRange, storage::kMaxDims>& base_sel,
    WorkCounters* work) {
  const auto disk_before = pool_->disk()->stats();
  HashAggregator agg(scheme_, query.group_by);
  uint64_t visited = 0;
  CHUNKCACHE_RETURN_IF_ERROR(file_->Scan([&](RowId, const Tuple& t) {
    ++visited;
    for (uint32_t d = 0; d < query.group_by.num_dims; ++d) {
      if (!base_sel[d].Contains(t.keys[d])) return true;
    }
    agg.AddBase(t);
    return true;
  }));
  work->tuples_processed += visited;
  std::vector<ResultRow> rows = agg.TakeRows();
  SortRows(&rows, query.group_by.num_dims);
  const auto disk_after = pool_->disk()->stats();
  work->pages_read += disk_after.reads - disk_before.reads;
  work->pages_written += disk_after.writes - disk_before.writes;
  return rows;
}

Result<std::vector<ResultRow>> BackendEngine::BitmapAggregate(
    const StarJoinQuery& query,
    const std::array<OrdinalRange, storage::kMaxDims>& base_sel,
    WorkCounters* work) {
  const auto disk_before = pool_->disk()->stats();
  index::Bitmap result;
  bool first = true;
  for (uint32_t d = 0; d < scheme_->num_dims(); ++d) {
    const auto& h = scheme_->schema().dimension(d).hierarchy;
    if (base_sel[d].begin == 0 &&
        base_sel[d].end + 1 == h.LevelCardinality(h.depth())) {
      continue;  // unrestricted dimension: skip its bitmaps entirely
    }
    index::Bitmap b;
    CHUNKCACHE_RETURN_IF_ERROR(bitmap_indexes_[d].EvaluateRange(
        base_sel[d].begin, base_sel[d].end, &b));
    if (first) {
      result = std::move(b);
      first = false;
    } else {
      result.And(b);
    }
  }
  CHUNKCACHE_DCHECK(!first);

  // Pull matching tuples (skipped-sequential: one pin per touched page).
  std::vector<RowId> rids = result.ToVector();
  std::vector<Tuple> tuples;
  CHUNKCACHE_RETURN_IF_ERROR(file_->fact_file().FetchRows(rids, &tuples));
  HashAggregator agg(scheme_, query.group_by);
  for (const Tuple& t : tuples) agg.AddBase(t);
  work->tuples_processed += tuples.size();
  std::vector<ResultRow> rows = agg.TakeRows();
  SortRows(&rows, query.group_by.num_dims);
  const auto disk_after = pool_->disk()->stats();
  work->pages_read += disk_after.reads - disk_before.reads;
  work->pages_written += disk_after.writes - disk_before.writes;
  return rows;
}

}  // namespace chunkcache::backend
