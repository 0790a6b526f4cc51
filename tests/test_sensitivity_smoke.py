"""Smoke tests for the sensitivity sweeps at tiny scale.

These do not validate the paper shapes (the benchmarks do, at full
reproduction scale); they validate the sweep *plumbing*: parameter
injection, row production, fixed-LLC configs restored afterwards.
"""

import repro.workloads.hashtable as ht_module
from repro.experiments import sensitivity
from repro.experiments.pool import ExperimentPool

TINY_PHI = dict(n_vertices=256, n_edges=1024, n_threads=4, seed=7)
TINY_HATS = dict(n_vertices=256, n_edges=2048, n_communities=8, seed=31)
TINY_HT = dict(nodes_per_bucket=8, n_threads=4, lookups_per_thread=8)


def _pool():
    return ExperimentPool(jobs=1, cache_dir=None)


class TestSweepPlumbing:
    def test_fig22_rows(self):
        exp = sensitivity.plan_fig22(buffer_sizes=(1, 4), params=TINY_PHI).run(_pool())
        assert len(exp.rows) == 2
        assert {r["invoke_buffer_entries"] for r in exp.rows} == {1, 4}

    def test_fig23_rows_and_config_restored(self):
        import repro.workloads.hats as hats_module

        original = hats_module.hats_config
        exp = sensitivity.plan_fig23(buffer_sizes=(16, 64), params=TINY_HATS).run(_pool())
        assert len(exp.rows) == 2
        assert hats_module.hats_config is original

    def test_fig24_rows_and_config_restored(self):
        original = ht_module.hashtable_config
        exp = sensitivity.plan_fig24(bucket_counts=(16, 64), params=TINY_HT).run(_pool())
        assert len(exp.rows) == 2
        assert ht_module.hashtable_config is original
        # Table size grows monotonically across rows.
        sizes = [r["table_kb"] for r in exp.rows]
        assert sizes == sorted(sizes)

    def test_fig25_rows(self):
        exp = sensitivity.plan_fig25(tile_counts=(4, 8), params=TINY_HT).run(_pool())
        assert len(exp.rows) == 2
        assert all(r["speedup"] > 0 for r in exp.rows)
        assert all(r["lev_flit_hops"] < r["base_flit_hops"] for r in exp.rows)
