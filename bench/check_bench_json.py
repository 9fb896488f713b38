#!/usr/bin/env python3
"""Validates the BENCH_*.json files the bench-smoke run leaves behind.

Each bench binary writes its BENCH_<name>.json into the working
directory. Run this from that directory after the benches, e.g.

  CHUNKCACHE_BENCH_SCALE=0.05 CHUNKCACHE_BENCH_QUERIES=60 \
    sh -c 'for b in build/bench/bench_*; do "$b"; done'
  python3 bench/check_bench_json.py

It checks each file's schema plus the claims the benches make (identity
gates, accounting, floors) and exits non-zero on the first failure.
"""
import json, sys
d = json.load(open('BENCH_agg.json'))
assert d.get('bench') == 'agg', 'bench tag missing'
assert isinstance(d['num_tuples'], int) and d['num_tuples'] > 0
k = d['kernel']
for key in ('group_by', 'rows_folded', 'dense_rows_per_sec',
            'hash_rows_per_sec', 'speedup'):
    assert key in k, f'kernel.{key} missing'
assert k['dense_rows_per_sec'] > 0 and k['hash_rows_per_sec'] > 0
rows = d['end_to_end']
assert isinstance(rows, list) and rows, 'end_to_end empty'
for row in rows:
    for key in ('range_fraction', 'num_chunks', 'default_ms',
                'hash_ms', 'single_run_ms', 'dense_kernels',
                'hash_kernels', 'coalesced_reads',
                'single_run_reads', 'runs_merged'):
        assert key in row, f'end_to_end.{key} missing'
print('BENCH_agg.json schema OK; kernel speedup %.2fx'
      % k['speedup'])
d = json.load(open('BENCH_faults.json'))
assert d.get('bench') == 'faults', 'bench tag missing'
assert isinstance(d['num_tuples'], int) and d['num_tuples'] > 0
for key in ('queries', 'hook_ns', 'checks_per_query',
            'disarmed_qps', 'armed_zero_qps', 'per_query_ns',
            'overhead_pct', 'storm'):
    assert key in d, f'{key} missing'
assert d['hook_ns'] >= 0 and d['checks_per_query'] > 0
assert d['disarmed_qps'] > 0
assert d['overhead_pct'] <= 1.0, \
    'disarmed fault hooks cost more than 1%% of a query'
s = d['storm']
for key in ('probability', 'queries', 'ok', 'io_errors',
            'corruption', 'resource_exhausted',
            'deadline_exceeded', 'unexpected_errors',
            'faults_injected', 'retries', 'degraded_answers',
            'checksum_failures', 'deadline_expired'):
    assert key in s, f'storm.{key} missing'
assert s['unexpected_errors'] == 0, 'storm produced foreign errors'
assert s['faults_injected'] > 0, 'storm injected nothing'
failed = (s['io_errors'] + s['corruption'] +
          s['resource_exhausted'] + s['deadline_exceeded'])
assert s['ok'] + failed == s['queries'], 'storm queries unaccounted'
print('BENCH_faults.json schema OK; hook overhead %.4f%%'
      % d['overhead_pct'])
d = json.load(open('BENCH_observability.json'))
assert d.get('bench') == 'observability', 'bench tag missing'
assert isinstance(d['num_tuples'], int) and d['num_tuples'] > 0
for key in ('queries', 'counter_inc_ns', 'histogram_record_ns',
            'span_ns', 'disarmed_span_ns',
            'metric_updates_per_query',
            'histogram_records_per_query', 'spans_per_query',
            'disarmed_qps', 'armed_qps', 'per_query_ns',
            'overhead_pct'):
    assert key in d, f'{key} missing'
assert d['counter_inc_ns'] >= 0 and d['histogram_record_ns'] >= 0
assert d['metric_updates_per_query'] > 0, 'no metrics recorded'
assert d['spans_per_query'] > 0, 'no spans recorded'
assert d['disarmed_qps'] > 0 and d['armed_qps'] > 0
assert d['overhead_pct'] <= 2.0, \
    'observability hooks cost more than 2%% of a query'
print('BENCH_observability.json schema OK; overhead %.4f%%'
      % d['overhead_pct'])
d = json.load(open('BENCH_compression.json'))
assert d.get('bench') == 'compression', 'bench tag missing'
assert isinstance(d['num_tuples'], int) and d['num_tuples'] > 0
assert d['queries_per_point'] > 0
c = d['codec']
for key in ('encode_gbps', 'decode_fast_gbps', 'decode_ref_gbps',
            'ratio'):
    assert key in c, f'codec.{key} missing'
assert c['encode_gbps'] > 0 and c['decode_fast_gbps'] > 0
assert 0 < c['ratio'] < 1, 'codec did not compress the payload'
sweep = d['sweep']
assert isinstance(sweep, list) and sweep, 'sweep empty'
for p in sweep:
    for key in ('cache_mb', 'on_hit_ratio', 'off_hit_ratio',
                'on_avg_ms', 'off_avg_ms', 'on_pages', 'off_pages',
                'compressed_chunks', 'decode_calls',
                'decoded_lru_hits', 'crossover_page_ms',
                'identical'):
        assert key in p, f'sweep.{key} missing'
    assert p['identical'], 'on/off results diverged'
    # Tiny smoke-scale caches are noisy; allow small wiggle but
    # never a real regression.
    assert p['on_hit_ratio'] >= p['off_hit_ratio'] - 0.03, \
        'compression lowered the hit ratio at fixed cache bytes'
assert d['identical_all'], 'compression ablation not bit-identical'
assert sweep[-1]['on_hit_ratio'] >= sweep[-1]['off_hit_ratio'], \
    'no hit-ratio win at the largest swept budget'
assert any(p['on_hit_ratio'] > p['off_hit_ratio'] for p in sweep), \
    'compression never raised the hit ratio'
print('BENCH_compression.json schema OK; ratio %.3f' % c['ratio'])
d = json.load(open('BENCH_simd.json'))
assert d.get('bench') == 'simd', 'bench tag missing'
assert isinstance(d['num_tuples'], int) and d['num_tuples'] > 0
assert 'avx2_available' in d
for sec in ('dense_fold', 'dense_fold_rollup'):
    f = d[sec]
    for key in ('rows_folded', 'scalar_rows_per_sec',
                'avx2_rows_per_sec', 'speedup', 'identical'):
        assert key in f, f'{sec}.{key} missing'
    assert f['identical'], f'{sec}: avx2 != scalar results'
    assert f['scalar_rows_per_sec'] > 0
c = d['codec_decode']
for key in ('scalar_gbps', 'avx2_gbps', 'speedup', 'ratio'):
    assert key in c, f'codec_decode.{key} missing'
assert c['scalar_gbps'] > 0 and 0 < c['ratio'] < 1
bm = d['bitmap']
assert isinstance(bm, list) and len(bm) == 3, 'bitmap rows missing'
for row in bm:
    for key in ('op', 'scalar_gbps', 'avx2_gbps', 'speedup'):
        assert key in row, f'bitmap.{key} missing'
e = d['end_to_end']
for key in ('queries', 'scalar_avg_ms', 'avx2_avg_ms', 'speedup',
            'identical'):
    assert key in e, f'end_to_end.{key} missing'
assert e['identical'], 'end_to_end: avx2 != scalar results'
if d['avx2_available']:
    # Noise-tolerant floors (full-scale runs show 1.5x+ fold and
    # 1.7x+ decode; smoke scale is noisier).
    assert d['dense_fold']['speedup'] >= 1.2, \
        'AVX2 leaf fold lost its speedup'
    assert d['codec_decode']['speedup'] >= 1.2, \
        'BMI2 codec decode lost its speedup'
print('BENCH_simd.json schema OK; fold %.2fx decode %.2fx'
      % (d['dense_fold']['speedup'], d['codec_decode']['speedup']))
d = json.load(open('BENCH_persistence.json'))
assert d.get('bench') == 'persistence', 'bench tag missing'
assert isinstance(d['num_tuples'], int) and d['num_tuples'] > 0
for key in ('queries', 'first_n', 'cache_mb',
            'cold_first_n_hit_ratio', 'warm_first_n_hit_ratio',
            'crash_first_n_hit_ratio', 'warm_recovery_ms',
            'crash_recovery_ms', 'warm_recovered_entries', 'snapshots',
            'snapshot_bytes', 'overhead_ms_per_query',
            'quarantined', 'identical', 'crash_identical'):
    assert key in d, f'{key} missing'
assert d['identical'], 'warm/cold restart results diverged'
assert d['crash_identical'], 'post-crash results diverged'
assert d['quarantined'] == 0, 'healthy run quarantined entries'
assert d['warm_recovered_entries'] > 0, 'nothing recovered'
assert d['snapshots'] > 0
assert d['warm_first_n_hit_ratio'] > d['cold_first_n_hit_ratio'], \
    'warm restart did not beat cold start'
assert d['crash_first_n_hit_ratio'] > d['cold_first_n_hit_ratio'], \
    'restart after a crash did not beat cold start'
print('BENCH_persistence.json schema OK; first-N warm %.3f, crash %.3f, '
      'cold %.3f, recovery %.1f ms'
      % (d['warm_first_n_hit_ratio'], d['crash_first_n_hit_ratio'],
         d['cold_first_n_hit_ratio'], d['warm_recovery_ms']))
d = json.load(open('BENCH_serving.json'))
assert d.get('bench') == 'serving', 'bench tag missing'
assert isinstance(d['num_tuples'], int) and d['num_tuples'] > 0
for key in ('stream_queries', 'session_stream_hash',
            'capacity_qps', 'num_tenants', 'server_workers',
            'identity', 'sweep'):
    assert key in d, f'{key} missing'
assert d['identity'], 'served results not bit-identical to direct'
assert d['capacity_qps'] > 0
sweep = d['sweep']
assert isinstance(sweep, list) and len(sweep) >= 3, 'sweep empty'
for p in sweep:
    for key in ('multiplier', 'offered_qps', 'offered', 'ok',
                'shed', 'errors', 'accounting_exact',
                'shed_fraction', 'p50_ms', 'p99_ms', 'p999_ms',
                'hit_ratio'):
        assert key in p, f'sweep.{key} missing'
    # The serving invariant, exact at every load point: every
    # offered query got exactly one terminal outcome.
    assert p['accounting_exact'], \
        f'accounting not exact at {p["multiplier"]}x'
    assert p['ok'] + p['shed'] + p['errors'] == p['offered']
    assert p['errors'] == 0, f'errors at {p["multiplier"]}x'
top = sweep[-1]
assert top['multiplier'] >= 2.0, 'sweep never reached overload'
# Shed-accounting floor: well past capacity, admission must shed
# explicitly (and plenty) while still serving admitted traffic.
assert top['shed_fraction'] > 0.1, \
    'no meaningful shedding at max overload'
assert top['ok'] > 0, 'overload starved all admitted traffic'
# Graceful degradation: admitted p99 stays bounded under overload
# (generous bound; CI machines are noisy).
assert top['p99_ms'] < 5000, 'admitted p99 unbounded at overload'
print('BENCH_serving.json schema OK; capacity %.0f qps, '
      'shed %.2f at %.1fx, admitted p99 %.1f ms'
      % (d['capacity_qps'], top['shed_fraction'],
         top['multiplier'], top['p99_ms']))
