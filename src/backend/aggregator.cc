#include "backend/aggregator.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/simd.h"

#if CHUNKCACHE_SIMD_X86_64
#include <immintrin.h>
#endif

namespace chunkcache::backend {

using chunks::ChunkCoords;
using chunks::GroupBySpec;
using storage::AggColumns;
using storage::AggTuple;
using storage::Tuple;
using storage::TupleColumns;

namespace {

/// Reserving more buckets than this from a cell-box bound stops paying for
/// itself (the box bound is a ceiling, not an occupancy estimate; deep
/// fallback boxes are sparse by definition).
constexpr uint64_t kMaxReserveCells = 1ull << 18;

}  // namespace

AggKernelStats AggKernelCounters::Snapshot() const {
  AggKernelStats s;
  s.dense_kernels = dense_kernels.load(std::memory_order_relaxed);
  s.hash_kernels = hash_kernels.load(std::memory_order_relaxed);
  s.rows_folded_dense = rows_folded_dense.load(std::memory_order_relaxed);
  s.rows_folded_hash = rows_folded_hash.load(std::memory_order_relaxed);
  s.coalesced_reads = coalesced_reads.load(std::memory_order_relaxed);
  s.single_run_reads = single_run_reads.load(std::memory_order_relaxed);
  s.runs_merged = runs_merged.load(std::memory_order_relaxed);
  return s;
}

// ------------------------------ HashAggregator ------------------------------

HashAggregator::HashAggregator(const chunks::ChunkingScheme* scheme,
                               GroupBySpec target, uint64_t reserve_cells)
    : scheme_(scheme), target_(target) {
  // Mixed-radix multipliers over target-level cardinalities.
  uint64_t mult = 1;
  for (uint32_t d = target_.num_dims; d-- > 0;) {
    radix_mult_[d] = mult;
    const auto& h = scheme_->schema().dimension(d).hierarchy;
    mult *= h.LevelCardinality(target_.levels[d]);
  }
  CHUNKCACHE_CHECK_MSG(mult > 0, "group-by key space overflows 64 bits");
  if (reserve_cells > 0) {
    cells_.reserve(
        static_cast<size_t>(std::min(reserve_cells, kMaxReserveCells)));
  }
}

uint64_t HashAggregator::PackKey(const ChunkCoords& coords) const {
  uint64_t key = 0;
  for (uint32_t d = 0; d < target_.num_dims; ++d) {
    key += coords[d] * radix_mult_[d];
  }
  return key;
}

void HashAggregator::AddBase(const Tuple& t) {
  ChunkCoords coords{};
  for (uint32_t d = 0; d < target_.num_dims; ++d) {
    const auto& h = scheme_->schema().dimension(d).hierarchy;
    coords[d] = h.AncestorAt(h.depth(), t.keys[d], target_.levels[d]);
  }
  AggTuple& cell = cells_[PackKey(coords)];
  if (cell.count == 0) cell.coords = coords;
  cell.FoldMeasure(t.measure);
  ++rows_consumed_;
}

void HashAggregator::AddAgg(const AggTuple& row, const GroupBySpec& src) {
  CHUNKCACHE_DCHECK(target_.CoarserOrEqual(src));
  ChunkCoords coords{};
  for (uint32_t d = 0; d < target_.num_dims; ++d) {
    const auto& h = scheme_->schema().dimension(d).hierarchy;
    coords[d] =
        h.AncestorAt(src.levels[d], row.coords[d], target_.levels[d]);
  }
  AggTuple& cell = cells_[PackKey(coords)];
  if (cell.count == 0) cell.coords = coords;
  cell.FoldRow(row);
  ++rows_consumed_;
}

std::vector<AggTuple> HashAggregator::TakeRows() {
  std::vector<AggTuple> rows;
  rows.reserve(cells_.size());
  for (auto& [key, cell] : cells_) rows.push_back(cell);
  cells_.clear();
  rows_consumed_ = 0;
  return rows;
}

AggColumns HashAggregator::TakeColumns() {
  AggColumns cols(target_.num_dims);
  cols.Reserve(cells_.size());
  for (auto& [key, cell] : cells_) cols.PushRow(cell);
  cells_.clear();
  rows_consumed_ = 0;
  return cols;
}

// --------------------------- DenseChunkAggregator ---------------------------

DenseChunkAggregator::DenseChunkAggregator(
    const chunks::ChunkingScheme* scheme, GroupBySpec target,
    const std::array<schema::OrdinalRange, storage::kMaxDims>& extent)
    : scheme_(scheme), target_(target) {
  uint64_t mult = 1;
  for (uint32_t d = target_.num_dims; d-- > 0;) {
    base_[d] = extent[d].begin;
    width_[d] = extent[d].size();
    mult_[d] = mult;
    mult *= width_[d];
  }
  num_cells_ = mult;
  CHUNKCACHE_CHECK_MSG(num_cells_ > 0, "dense kernel: empty cell box");
  // Sentinels make FoldMeasureAt branch-free on the occupancy check.
  cells_.assign(num_cells_,
                Cell{0.0, 0, std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()});
}

void DenseChunkAggregator::AddBase(const Tuple& t) {
  uint32_t coords[storage::kMaxDims];
  for (uint32_t d = 0; d < target_.num_dims; ++d) {
    const auto& h = scheme_->schema().dimension(d).hierarchy;
    coords[d] = h.AncestorAt(h.depth(), t.keys[d], target_.levels[d]);
  }
  FoldMeasureAt(FoldOffset(coords), t.measure);
  ++rows_consumed_;
}

void DenseChunkAggregator::BuildBaseLut() {
  for (uint32_t d = 0; d < target_.num_dims; ++d) {
    const auto& h = scheme_->schema().dimension(d).hierarchy;
    const schema::OrdinalRange keys = h.BaseRangeOf(
        target_.levels[d],
        schema::OrdinalRange{base_[d], base_[d] + width_[d] - 1});
    lut_lo_[d] = keys.begin;
    std::vector<uint64_t>& lut = base_lut_[d];
    lut.resize(keys.size());
    if (target_.levels[d] == 0) {
      // ALL level: every key maps to the single cell at this dimension.
      std::fill(lut.begin(), lut.end(), 0);
      continue;
    }
    // Fill by target-level member: each member covers one contiguous run
    // of base keys (hierarchical clustering), so the build is one
    // BaseRange call per member plus sequential stores — not one rollup
    // lookup per base key.
    for (uint32_t m = base_[d]; m < base_[d] + width_[d]; ++m) {
      const schema::OrdinalRange run = h.BaseRange(target_.levels[d], m);
      const uint64_t contribution =
          static_cast<uint64_t>(m - base_[d]) * mult_[d];
      for (uint32_t k = run.begin; k <= run.end; ++k) {
        lut[k - keys.begin] = contribution;
      }
    }
  }
#if CHUNKCACHE_SIMD_X86_64
  // 32-bit LUT copies for the 8-wide gather kernel. Every contribution
  // is < num_cells_, so the narrowing is exact whenever the box fits.
  if (num_cells_ <= std::numeric_limits<uint32_t>::max()) {
    for (uint32_t d = 0; d < target_.num_dims; ++d) {
      base_lut32_[d].assign(base_lut_[d].begin(), base_lut_[d].end());
      // Affine detection: dimensions grouped at their leaf level map each
      // base key to its own cell (lut[rel] == rel * mult), and ALL-level
      // dimensions map every key to cell 0 — in both cases the table is
      // affine in the relative key and the AVX2 kernel can use a vector
      // multiply instead of a (slow) gather. Detected empirically so any
      // hierarchy whose table happens to be affine benefits.
      const std::vector<uint64_t>& lut = base_lut_[d];
      const uint64_t slope = lut.size() > 1 ? lut[1] - lut[0] : 0;
      bool affine = true;
      for (size_t rel = 0; rel < lut.size(); ++rel) {
        if (lut[rel] != lut[0] + rel * slope) {
          affine = false;
          break;
        }
      }
      lut_affine_[d] = affine;
      lut_slope32_[d] = static_cast<uint32_t>(slope);
      lut_icept32_[d] = static_cast<uint32_t>(lut[0]);
    }
  }
#endif
  lut_built_ = true;
}

void DenseChunkAggregator::FoldOffsetsU32(const uint32_t* offs,
                                          const double* measures, size_t n) {
#if CHUNKCACHE_SIMD_X86_64
  // The fold update as two 16-byte halves — [sum, count-bits] and
  // [min, max] — which halves the loads and stores per cell relative to
  // four scalar read-modify-writes. Plain SSE2, part of the x86-64
  // baseline: this is NOT dispatched code, it is the one fold both
  // dispatch levels run.
  //
  // Bit-exactness against the scalar FoldMeasureAt:
  //  - [sum, count]: ADDSD computes `c.sum + measure` with the cell sum
  //    as its first operand (the operand the IEEE add's NaN result
  //    propagates from, matching `c.sum += measure`), and the 64-bit
  //    integer add of [0, 1] touches only the count lane (+0 on the sum
  //    lane's bits is an integer no-op);
  //  - [min, max]: MINPD returns its *second* operand when either input
  //    is NaN or both are (signed) zeros, so lane 0's min(measure,
  //    c.min) equals the ternary `measure < c.min ? measure : c.min`
  //    for every input. Lane 1 computes max through min: max(a, b) ==
  //    -min(-a, -b) is exact under IEEE sign-bit flips, and the NaN /
  //    equal-zeros case again returns the flipped second operand, i.e.
  //    c.max — exactly `measure > c.max ? measure : c.max`.
  Cell* cells = cells_.data();
  const __m128d kFlipHi =
      _mm_castsi128_pd(_mm_set_epi64x(0x8000000000000000LL, 0));
  for (size_t j = 0; j < n; ++j) {
    CHUNKCACHE_DCHECK(offs[j] < num_cells_);
    double* cell = &cells[offs[j]].sum;
    const __m128d m = _mm_set_sd(measures[j]);    // [measure, 0]
    const __m128d sc = _mm_loadu_pd(cell);        // [sum, count-bits]
    const __m128i updated = _mm_add_epi64(
        _mm_castpd_si128(_mm_add_sd(sc, m)), _mm_set_epi64x(1, 0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(cell), updated);
    const __m128d mm = _mm_xor_pd(_mm_unpacklo_pd(m, m), kFlipHi);  // [m,-m]
    const __m128d mnmx = _mm_xor_pd(_mm_loadu_pd(cell + 2), kFlipHi);
    _mm_storeu_pd(cell + 2, _mm_xor_pd(_mm_min_pd(mm, mnmx), kFlipHi));
  }
#else
  for (size_t j = 0; j < n; ++j) {
    FoldMeasureAt(offs[j], measures[j]);
  }
#endif
}

#if CHUNKCACHE_SIMD_X86_64

namespace {

/// Pass 1 of the AVX2 fold kernel: computes the cell offsets for rows
/// [base, base + bn) into `out` and prefetches each row's target cell
/// (`cells` is the accumulator base, `cell_size` its stride). Affine
/// dimensions (leaf-level or ALL-level group-bys) contribute via an
/// 8-wide multiply — their per-row constant intercepts are pre-summed
/// into `icept_sum`; the rest gather their 32-bit LUT entries with
/// VPGATHERDD. The AllAffine specialization (the common leaf/base
/// group-by case, where every table is affine) compiles the per-dim
/// branch away entirely — the runtime `affine[d]` test, though
/// perfectly predicted, costs measurably inside an 8-row loop this
/// tight. A free function because lambdas do not inherit the enclosing
/// function's target("avx2") attribute.
template <uint32_t ND, bool AllAffine>
__attribute__((target("avx2"))) void GatherOffsetsAvx2(
    const uint32_t* const* keys, const uint32_t* const* luts,
    const uint32_t* los, const bool* affine, const uint32_t* slopes,
    uint32_t icept_sum, const char* cells, size_t cell_size, size_t base,
    size_t bn, uint32_t* out) {
  size_t i = 0;
  for (; i + 8 <= bn; i += 8) {
    __m256i off = _mm256_set1_epi32(static_cast<int>(icept_sum));
    for (uint32_t d = 0; d < ND; ++d) {
      const __m256i k = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(keys[d] + base + i));
      const __m256i rel =
          _mm256_sub_epi32(k, _mm256_set1_epi32(static_cast<int>(los[d])));
      const __m256i contrib =
          (AllAffine || affine[d])
              ? _mm256_mullo_epi32(
                    rel, _mm256_set1_epi32(static_cast<int>(slopes[d])))
              : _mm256_i32gather_epi32(
                    reinterpret_cast<const int*>(luts[d]), rel, 4);
      off = _mm256_add_epi32(off, contrib);
    }
    _mm256_store_si256(reinterpret_cast<__m256i*>(out + i), off);
    for (int r = 0; r < 8; ++r) {
      _mm_prefetch(cells + out[i + r] * cell_size, _MM_HINT_T0);
    }
  }
  for (; i < bn; ++i) {
    uint32_t off = 0;
    for (uint32_t d = 0; d < ND; ++d) {
      off += luts[d][keys[d][base + i] - los[d]];
    }
    out[i] = off;
    _mm_prefetch(cells + off * cell_size, _MM_HINT_T0);
  }
}

}  // namespace

template <uint32_t ND>
__attribute__((target("avx2"))) void DenseChunkAggregator::FoldBaseRowsAvx2(
    const uint32_t* const* keys, const uint32_t* const* luts,
    const uint32_t* los, const double* measures, size_t n) {
  // Blocked two-pass kernel. Per block, pass 1 computes every cell
  // offset with 8-wide VPGATHERDD gathers over the 32-bit LUTs (the
  // 64-bit gather variant covers only 4 rows per instruction and gather
  // throughput — not the fold — is what bounds this kernel) and issues a
  // prefetch for each target cell; pass 2 is the pure fold loop, freed
  // of all LUT indexing and running against cells the prefetches have
  // already pulled into L1. The block is sized so one block's cell lines
  // (<= 256 lines = 16 KiB) fit comfortably in L1 — prefetching a whole
  // multi-thousand-row batch up front would evict the early lines before
  // the fold reads them. Splitting the passes also keeps the serial
  // fold-dependency chain (rows hitting the same cell) from stalling the
  // offset arithmetic, which has no such dependency.
  //
  // 32-bit offsets are exact: the dispatcher only routes here when
  // num_cells_ fits in 32 bits, and each per-dimension contribution as
  // well as the final mixed-radix sum is < num_cells_.
  //
  // The two passes are software-pipelined one block apart: pass 1 of
  // block k+1 (gathers + prefetches) runs before pass 2 of block k, so
  // every prefetch gets a full block's worth of fold work (~256 rows)
  // to complete before its line is touched. Prefetching and folding the
  // same block back to back would leave the last rows' prefetches no
  // time to land.
  constexpr size_t kBlock = 256;
  alignas(32) uint32_t offs[2][kBlock];
  const char* cells = reinterpret_cast<const char*>(cells_.data());
  uint32_t icept_sum = 0;
  bool all_affine = true;
  for (uint32_t d = 0; d < ND; ++d) {
    if (lut_affine_[d]) icept_sum += lut_icept32_[d];
    all_affine = all_affine && lut_affine_[d];
  }
  auto* gather_offsets =
      all_affine ? &GatherOffsetsAvx2<ND, true> : &GatherOffsetsAvx2<ND, false>;
  const size_t num_blocks = (n + kBlock - 1) / kBlock;
  size_t prev_bn = 0;
  for (size_t k = 0; k < num_blocks; ++k) {
    const size_t base = k * kBlock;
    const size_t bn = n - base < kBlock ? n - base : kBlock;
    gather_offsets(keys, luts, los, lut_affine_.data(), lut_slope32_.data(),
                   icept_sum, cells, sizeof(Cell), base, bn, offs[k & 1]);
    // Folds stay in row order, so repeated hits on one cell accumulate
    // in the same sequence as the scalar kernel, and both kernels fold
    // through the one out-of-line FoldOffsetsU32 — bit-identity is
    // structural.
    if (k > 0) {
      FoldOffsetsU32(offs[(k - 1) & 1], measures + (k - 1) * kBlock, prev_bn);
    }
    prev_bn = bn;
  }
  if (num_blocks > 0) {
    FoldOffsetsU32(offs[(num_blocks - 1) & 1],
                   measures + (num_blocks - 1) * kBlock, prev_bn);
  }
}

#endif  // CHUNKCACHE_SIMD_X86_64

template <uint32_t ND>
void DenseChunkAggregator::FoldBaseRowsUnrolled(const uint32_t* const* keys,
                                                const uint64_t* const* luts,
                                                const uint32_t* los,
                                                const double* measures,
                                                size_t n) {
  if (num_cells_ <= std::numeric_limits<uint32_t>::max()) {
    // Same blocked two-pass shape as the AVX2 kernel, with scalar offset
    // arithmetic in pass 1 and the shared out-of-line fold in pass 2, so
    // both dispatch levels execute the very same fold machine code.
    constexpr size_t kBlock = 256;
    uint32_t offs[kBlock];
    for (size_t base = 0; base < n; base += kBlock) {
      const size_t bn = n - base < kBlock ? n - base : kBlock;
      for (size_t i = 0; i < bn; ++i) {
        uint64_t off = 0;
        for (uint32_t d = 0; d < ND; ++d) {
          off += luts[d][keys[d][base + i] - los[d]];
        }
        offs[i] = static_cast<uint32_t>(off);
      }
      FoldOffsetsU32(offs, measures + base, bn);
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    uint64_t off = 0;
    for (uint32_t d = 0; d < ND; ++d) {
      off += luts[d][keys[d][i] - los[d]];
    }
    FoldMeasureAt(off, measures[i]);
  }
}

void DenseChunkAggregator::AddBaseColumns(
    const TupleColumns& batch, const bool* has_filter,
    const schema::OrdinalRange* pre_filter) {
  const size_t n = batch.size();
  const uint32_t nd = target_.num_dims;
  if (!lut_built_) BuildBaseLut();
  if (has_filter == nullptr) {
    // Unfiltered fast path: the inner kernel is one table load per
    // dimension plus one indexed fold per row. Raw pointers hoisted so
    // the loop carries no vector indirection, and the common dimension
    // counts get fully unrolled offset computations.
    const uint32_t* keys[storage::kMaxDims];
    const uint64_t* luts[storage::kMaxDims];
    uint32_t los[storage::kMaxDims];
    for (uint32_t d = 0; d < nd; ++d) {
      keys[d] = batch.keys[d].data();
      luts[d] = base_lut_[d].data();
      los[d] = lut_lo_[d];
    }
    const double* measures = batch.measure.data();
#if CHUNKCACHE_SIMD_X86_64
    // One dispatch per bulk call; nd > 4 and boxes past 32-bit offsets
    // stay on the generic scalar loop.
    if (simd::ActiveLevel() == simd::IsaLevel::kAvx2 && nd <= 4 &&
        num_cells_ <= std::numeric_limits<uint32_t>::max()) {
      const uint32_t* luts32[storage::kMaxDims];
      for (uint32_t d = 0; d < nd; ++d) luts32[d] = base_lut32_[d].data();
      switch (nd) {
        case 1:
          FoldBaseRowsAvx2<1>(keys, luts32, los, measures, n);
          break;
        case 2:
          FoldBaseRowsAvx2<2>(keys, luts32, los, measures, n);
          break;
        case 3:
          FoldBaseRowsAvx2<3>(keys, luts32, los, measures, n);
          break;
        case 4:
          FoldBaseRowsAvx2<4>(keys, luts32, los, measures, n);
          break;
      }
      rows_consumed_ += n;
      return;
    }
#endif
    switch (nd) {
      case 1:
        FoldBaseRowsUnrolled<1>(keys, luts, los, measures, n);
        break;
      case 2:
        FoldBaseRowsUnrolled<2>(keys, luts, los, measures, n);
        break;
      case 3:
        FoldBaseRowsUnrolled<3>(keys, luts, los, measures, n);
        break;
      case 4:
        FoldBaseRowsUnrolled<4>(keys, luts, los, measures, n);
        break;
      default:
        for (size_t i = 0; i < n; ++i) {
          uint64_t off = 0;
          for (uint32_t d = 0; d < nd; ++d) {
            off += luts[d][keys[d][i] - los[d]];
          }
          FoldMeasureAt(off, measures[i]);
        }
        break;
    }
    rows_consumed_ += n;
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    uint64_t off = 0;
    bool pass = true;
    for (uint32_t d = 0; d < nd; ++d) {
      const uint32_t key = batch.keys[d][i];
      if (has_filter[d] && !pre_filter[d].Contains(key)) {
        pass = false;
        break;
      }
      off += base_lut_[d][key - lut_lo_[d]];
    }
    if (!pass) continue;
    FoldMeasureAt(off, batch.measure[i]);
    ++rows_consumed_;
  }
}

void DenseChunkAggregator::FoldAggRows(const AggRow* rows, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    const AggRow& r = rows[j];
    CHUNKCACHE_DCHECK(r.off < num_cells_);
    Cell& c = cells_[r.off];
    c.sum += r.sum;
    c.count += r.count;
    if (r.min < c.min) c.min = r.min;
    if (r.max > c.max) c.max = r.max;
  }
}

void DenseChunkAggregator::AddAggColumns(const AggColumns& batch,
                                         const GroupBySpec& src) {
  CHUNKCACHE_DCHECK(target_.CoarserOrEqual(src));
  const size_t n = batch.size();
  const uint32_t nd = target_.num_dims;
  const schema::Hierarchy* hier[storage::kMaxDims];
  for (uint32_t d = 0; d < nd; ++d) {
    hier[d] = &scheme_->schema().dimension(d).hierarchy;
  }
  const std::vector<double>& sums = batch.sums();
  const std::vector<uint64_t>& counts = batch.counts();
  const std::vector<double>& mins = batch.mins();
  const std::vector<double>& maxs = batch.maxs();
  AggRow rows[kAggBlock];
  size_t staged = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t off = 0;
    for (uint32_t d = 0; d < nd; ++d) {
      const uint32_t c = hier[d]->AncestorAt(
          src.levels[d], batch.coords(d)[i], target_.levels[d]);
      off += static_cast<uint64_t>(c - base_[d]) * mult_[d];
    }
    rows[staged++] = {off, sums[i], counts[i], mins[i], maxs[i]};
    if (staged == kAggBlock) {
      FoldAggRows(rows, staged);
      staged = 0;
    }
  }
  FoldAggRows(rows, staged);
  rows_consumed_ += n;
}

void DenseChunkAggregator::AddPayload(const storage::ChunkPayload& payload,
                                      const GroupBySpec& src) {
  CHUNKCACHE_DCHECK(target_.CoarserOrEqual(src));
  if (payload.empty()) return;
  const uint32_t nd = target_.num_dims;
  CHUNKCACHE_DCHECK(payload.num_dims() == nd);
  const schema::Hierarchy* hier[storage::kMaxDims];
  uint32_t begin[storage::kMaxDims];
  for (uint32_t d = 0; d < nd; ++d) {
    hier[d] = &scheme_->schema().dimension(d).hierarchy;
    begin[d] = payload.box_begin(d);
  }
  AggRow rows[kAggBlock];
  size_t staged = 0;
  payload.ForEachRow([&](const uint32_t* rel,
                         const storage::ChunkPayload::Measures& m) {
    uint64_t off = 0;
    for (uint32_t d = 0; d < nd; ++d) {
      const uint32_t c = hier[d]->AncestorAt(src.levels[d], begin[d] + rel[d],
                                             target_.levels[d]);
      off += static_cast<uint64_t>(c - base_[d]) * mult_[d];
    }
    rows[staged++] = {off, m.sum(), m.count, m.min(), m.max()};
    if (staged == kAggBlock) {
      FoldAggRows(rows, staged);
      staged = 0;
    }
  });
  FoldAggRows(rows, staged);
  rows_consumed_ += payload.size();
}

AggColumns DenseChunkAggregator::TakeColumns() {
  size_t occupied = 0;
  for (uint64_t off = 0; off < num_cells_; ++off) {
    if (cells_[off].count != 0) ++occupied;
  }
  AggColumns cols(target_.num_dims);
  cols.Reserve(occupied);
  // Walk offsets in order — that *is* row-major coordinate order — with an
  // odometer tracking the cell coordinates.
  uint32_t coords[storage::kMaxDims];
  for (uint32_t d = 0; d < target_.num_dims; ++d) coords[d] = base_[d];
  for (uint64_t off = 0; off < num_cells_; ++off) {
    const Cell& c = cells_[off];
    if (c.count != 0) {
      cols.PushCell(coords, c.sum, c.count, c.min, c.max);
    }
    for (uint32_t d = target_.num_dims; d-- > 0;) {
      if (++coords[d] < base_[d] + width_[d]) break;
      coords[d] = base_[d];
    }
  }
  cells_.clear();
  rows_consumed_ = 0;
  return cols;
}

// ----------------------------- ChunkAggregator ------------------------------

ChunkAggregator::ChunkAggregator(const chunks::ChunkingScheme* scheme,
                                 const GroupBySpec& target,
                                 uint64_t chunk_num,
                                 uint64_t dense_cell_limit,
                                 AggKernelCounters* counters)
    : scheme_(scheme), target_(target), counters_(counters) {
  const auto extent = scheme->ChunkExtent(target, chunk_num);
  // Saturating cell-box size: widths are per-dimension chunk-range sizes.
  uint64_t cells = 1;
  for (uint32_t d = 0; d < target.num_dims; ++d) {
    const uint64_t w = extent[d].size();
    if (cells > std::numeric_limits<uint64_t>::max() / w) {
      cells = std::numeric_limits<uint64_t>::max();
      break;
    }
    cells *= w;
  }
  if (cells <= dense_cell_limit) {
    dense_.emplace(scheme, target, extent);
    if (counters_ != nullptr) {
      counters_->dense_kernels.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    hash_.emplace(scheme, target, /*reserve_cells=*/cells);
    if (counters_ != nullptr) {
      counters_->hash_kernels.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void ChunkAggregator::AddBase(const Tuple& t) {
  if (dense_) {
    dense_->AddBase(t);
  } else {
    hash_->AddBase(t);
  }
}

void ChunkAggregator::AddBaseColumns(const TupleColumns& batch,
                                     const bool* has_filter,
                                     const schema::OrdinalRange* pre_filter) {
  if (dense_) {
    dense_->AddBaseColumns(batch, has_filter, pre_filter);
    return;
  }
  const size_t n = batch.size();
  for (size_t i = 0; i < n; ++i) {
    bool pass = true;
    if (has_filter != nullptr) {
      for (uint32_t d = 0; d < target_.num_dims; ++d) {
        if (has_filter[d] && !pre_filter[d].Contains(batch.keys[d][i])) {
          pass = false;
          break;
        }
      }
    }
    if (pass) hash_->AddBase(batch.TupleAt(i));
  }
}

void ChunkAggregator::AddAggColumns(const AggColumns& batch,
                                    const GroupBySpec& src) {
  if (dense_) {
    dense_->AddAggColumns(batch, src);
    return;
  }
  const size_t n = batch.size();
  for (size_t i = 0; i < n; ++i) hash_->AddAgg(batch.RowAt(i), src);
}

void ChunkAggregator::AddPayload(const storage::ChunkPayload& payload,
                                 const GroupBySpec& src) {
  if (dense_) {
    dense_->AddPayload(payload, src);
    return;
  }
  payload.ForEachRow(
      [&](const uint32_t* rel, const storage::ChunkPayload::Measures& m) {
        hash_->AddAgg(payload.Row(rel, m), src);
      });
}

AggColumns ChunkAggregator::TakeColumns() {
  const uint64_t folded = rows_consumed();
  if (dense_) {
    if (counters_ != nullptr) {
      counters_->rows_folded_dense.fetch_add(folded,
                                             std::memory_order_relaxed);
    }
    return dense_->TakeColumns();  // already row-major
  }
  if (counters_ != nullptr) {
    counters_->rows_folded_hash.fetch_add(folded, std::memory_order_relaxed);
  }
  AggColumns cols = hash_->TakeColumns();
  cols.SortRowMajor();
  return cols;
}

// -------------------------------- Row helpers -------------------------------

std::vector<AggTuple> FilterRows(
    std::vector<AggTuple> rows, uint32_t num_dims,
    const std::array<schema::OrdinalRange, storage::kMaxDims>& selection) {
  auto out_of_range = [&](const AggTuple& r) {
    for (uint32_t d = 0; d < num_dims; ++d) {
      if (!selection[d].Contains(r.coords[d])) return true;
    }
    return false;
  };
  rows.erase(std::remove_if(rows.begin(), rows.end(), out_of_range),
             rows.end());
  return rows;
}

void SortRows(std::vector<AggTuple>* rows, uint32_t num_dims) {
  std::sort(rows->begin(), rows->end(),
            [num_dims](const AggTuple& a, const AggTuple& b) {
              for (uint32_t d = 0; d < num_dims; ++d) {
                if (a.coords[d] != b.coords[d]) {
                  return a.coords[d] < b.coords[d];
                }
              }
              return false;
            });
}

}  // namespace chunkcache::backend
