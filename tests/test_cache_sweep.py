"""End-to-end caching semantics: sweeps, checkpoints, byte-identity.

The contract under test is the issue's acceptance criterion: re-running
a sweep against a warm store executes **zero** simulations (asserted
via catalog hit counts) and emits a curve JSON document byte-identical
to the cold run — under the serial and the process-pool backend alike.
"""

import json
import os

import pytest

from repro.analysis.backends import ProcessPoolBackend, SerialBackend
from repro.analysis.harness import ResilientSweep, RunBudget
from repro.analysis.sweep import sweep_rate_delay
from repro.errors import ConfigurationError
from repro.store import ResultStore

RATES = [2.0, 8.0]
BUDGET = RunBudget(retries=0, wall_clock=120.0)


def _sweep(store=None, backend=None, refresh=False, seed=3,
           checkpoint_path=None):
    return sweep_rate_delay("vegas", RATES, rm=0.04, duration=3.0,
                            budget=BUDGET, backend=backend, seed=seed,
                            store=store, refresh=refresh,
                            checkpoint_path=checkpoint_path)


def _doc(curve):
    return json.dumps(curve.to_json(), sort_keys=True)


class TestColdWarmSweep:
    def test_warm_serial_rerun_executes_zero_simulations(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        cold = _sweep(store=store)
        assert cold.cache == {"hits": 0, "misses": len(RATES),
                              "resumed": 0}
        warm = _sweep(store=store)
        assert warm.cache == {"hits": len(RATES), "misses": 0,
                              "resumed": 0}
        # The catalog is the ground truth for "zero simulations ran".
        assert store.catalog.counts() == {"miss": len(RATES),
                                          "hit": len(RATES)}
        assert _doc(warm) == _doc(cold)

    def test_warm_pool_rerun_is_byte_identical(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        cold = _sweep(store=store, backend=ProcessPoolBackend(jobs=2))
        assert cold.cache["misses"] == len(RATES)
        warm = _sweep(store=store, backend=ProcessPoolBackend(jobs=2))
        assert warm.cache == {"hits": len(RATES), "misses": 0,
                              "resumed": 0}
        assert store.catalog.counts() == {"miss": len(RATES),
                                          "hit": len(RATES)}
        assert _doc(warm) == _doc(cold)

    def test_backends_share_one_cache(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        cold = _sweep(store=store, backend=SerialBackend())
        warm = _sweep(store=store, backend=ProcessPoolBackend(jobs=2))
        assert warm.cache == {"hits": len(RATES), "misses": 0,
                              "resumed": 0}
        assert _doc(warm) == _doc(cold)

    def test_cached_curve_json_matches_uncached(self, tmp_path):
        plain = _sweep()
        assert plain.cache is None
        cached = _sweep(store=ResultStore(str(tmp_path / "cache")))
        assert _doc(cached) == _doc(plain)
        # The cache accounting lives on the curve object only, never in
        # the JSON document.
        assert "cache" not in cached.to_json()

    def test_cache_dir_shorthand(self, tmp_path):
        # A store reopened on the same directory is already warm.
        cache_dir = str(tmp_path / "cache")
        cold = _sweep(store=ResultStore(cache_dir))
        warm = _sweep(store=ResultStore(cache_dir))
        assert warm.cache == {"hits": len(RATES), "misses": 0,
                              "resumed": 0}
        assert _doc(warm) == _doc(cold)

    def test_live_factory_cannot_cache(self, tmp_path):
        from repro.ccas.vegas import Vegas
        with pytest.raises(ConfigurationError):
            sweep_rate_delay(lambda: Vegas(), RATES, rm=0.04,
                             duration=3.0, budget=BUDGET,
                             store=ResultStore(str(tmp_path / "cache")))

    def test_refresh_recomputes_everything(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        cold = _sweep(store=store)
        forced = _sweep(store=store, refresh=True)
        assert forced.cache == {"hits": 0, "misses": len(RATES),
                                "resumed": 0}
        assert _doc(forced) == _doc(cold)

    def test_seed_changes_the_key(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        _sweep(store=store, seed=3)
        other = _sweep(store=store, seed=4)
        assert other.cache["hits"] == 0
        assert store.stats().entries == 2 * len(RATES)


class TestCheckpointStoreUnification:
    def _points(self):
        from repro.analysis.sweep import run_rate_delay_point
        from repro.spec import CCASpec, derive_seed, single_flow_scenario
        from repro import units
        points = []
        for rate_mbps in RATES:
            key = f"{rate_mbps:g}mbps"
            spec = single_flow_scenario(
                CCASpec("vegas"), rate=units.mbps(rate_mbps), rm=0.04
            ).with_seed(derive_seed(3, "sweep", key))
            points.append((key, {"scenario": spec.to_json(),
                                 "duration": 3.0, "warmup": 1.5}))
        return run_rate_delay_point, points

    def test_checkpoint_records_cache_keys_not_results(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        ckpt = str(tmp_path / "sweep.json")
        run_point, points = self._points()
        sweep = ResilientSweep(run_point, budget=BUDGET,
                               checkpoint_path=ckpt, store=store)
        outcome = sweep.run(points)
        assert outcome.misses == len(points)
        with open(ckpt) as fh:
            data = json.load(fh)
        assert data["version"] == ResilientSweep.CHECKPOINT_STORE_VERSION
        assert data["store"] == store.root
        assert sorted(data["completed"]) == sorted(k for k, _ in points)
        for key, cache_key in data["completed"].items():
            assert store.contains(cache_key)
            assert store.get(cache_key) == outcome.completed[key]
        assert data["inline"] == {}

    def test_resume_resolves_through_store(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        ckpt = str(tmp_path / "sweep.json")
        run_point, points = self._points()
        first = ResilientSweep(run_point, budget=BUDGET,
                               checkpoint_path=ckpt, store=store)
        baseline = first.run(points)
        again = ResilientSweep(run_point, budget=BUDGET,
                               checkpoint_path=ckpt, store=store)
        outcome = again.run(points)
        assert outcome.resumed == len(points)
        assert outcome.hits == outcome.misses == 0
        assert outcome.completed == baseline.completed

    def test_gc_lost_entry_reruns_from_checkpoint(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        ckpt = str(tmp_path / "sweep.json")
        run_point, points = self._points()
        first = ResilientSweep(run_point, budget=BUDGET,
                               checkpoint_path=ckpt, store=store)
        baseline = first.run(points)
        # Corrupt one entry; gc removes it; the checkpoint ref dangles.
        with open(ckpt) as fh:
            lost_key = json.load(fh)["completed"][points[0][0]]
        with open(store.path_for(lost_key), "w") as fh:
            fh.write("garbage")
        store.gc()
        again = ResilientSweep(run_point, budget=BUDGET,
                               checkpoint_path=ckpt, store=store)
        outcome = again.run(points)
        assert outcome.resumed == len(points) - 1
        assert outcome.misses == 1
        assert outcome.completed == baseline.completed

    def test_v1_checkpoint_migrates_into_store(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        ckpt = str(tmp_path / "sweep.json")
        run_point, points = self._points()
        # A pre-store sweep leaves a version-1 checkpoint behind.
        legacy = ResilientSweep(run_point, budget=BUDGET,
                                checkpoint_path=ckpt)
        baseline = legacy.run(points)
        with open(ckpt) as fh:
            assert json.load(fh)["version"] == \
                ResilientSweep.CHECKPOINT_VERSION
        # Attaching a store still resumes from the inline results:
        # no re-runs (a later v2 write keeps them under "inline").
        upgraded = ResilientSweep(run_point, budget=BUDGET,
                                  checkpoint_path=ckpt, store=store)
        outcome = upgraded.run(points)
        assert outcome.resumed == len(points)
        assert outcome.hits == outcome.misses == 0
        assert outcome.completed == baseline.completed

    def test_unwritable_checkpoint_degrades(self, tmp_path):
        # A checkpoint whose directory is a regular file cannot be
        # written: the sweep still finishes, flags the lost
        # resumability, and counts its points exactly as usual.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        store = ResultStore(str(tmp_path / "cache"))
        run_point, points = self._points()
        outcome = ResilientSweep(
            run_point, budget=BUDGET, store=store,
            checkpoint_path=str(blocker / "sweep.json")).run(points)
        assert outcome.checkpoint_degraded
        assert len(outcome.completed) == len(points)
        assert outcome.misses == len(points) and outcome.degraded == 0

    def test_checkpoint_without_store_still_v1(self, tmp_path):
        ckpt = str(tmp_path / "sweep.json")
        run_point, points = self._points()
        ResilientSweep(run_point, budget=BUDGET,
                       checkpoint_path=ckpt).run(points)
        with open(ckpt) as fh:
            data = json.load(fh)
        assert data["version"] == ResilientSweep.CHECKPOINT_VERSION
        assert sorted(data["completed"]) == sorted(k for k, _ in points)

    def test_v2_checkpoint_without_store_reruns(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        ckpt = str(tmp_path / "sweep.json")
        run_point, points = self._points()
        ResilientSweep(run_point, budget=BUDGET, checkpoint_path=ckpt,
                       store=store).run(points)
        bare = ResilientSweep(run_point, budget=BUDGET,
                              checkpoint_path=ckpt)
        outcome = bare.run(points)
        # The refs cannot be resolved without the store: points re-run.
        assert outcome.resumed == 0
        assert len(outcome.completed) == len(points)


class TestCliCacheFlow:
    """The CLI smoke path: cold sweep, warm sweep, identical JSON."""

    def _run_sweep(self, capsys, cache_dir, out, extra=()):
        from repro.cli import main
        argv = ["sweep", "--cca", "vegas", "--rates", "2,8",
                "--rm", "40", "--duration", "3", "--seed", "3",
                "--json", out, "--cache-dir", cache_dir, *extra]
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_cold_warm_cli_cycle(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        cold_out = str(tmp_path / "cold.json")
        warm_out = str(tmp_path / "warm.json")
        cold = self._run_sweep(capsys, cache_dir, cold_out)
        assert "cache: 0 hit(s), 2 miss(es)" in cold
        warm = self._run_sweep(capsys, cache_dir, warm_out)
        assert "cache: 2 hit(s), 0 miss(es)" in warm
        with open(cold_out, "rb") as fh:
            cold_bytes = fh.read()
        with open(warm_out, "rb") as fh:
            warm_bytes = fh.read()
        assert cold_bytes == warm_bytes

    def test_cache_stats_and_verify_cli(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        out = str(tmp_path / "c.json")
        self._run_sweep(capsys, cache_dir, out)
        from repro.cli import main
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        text = capsys.readouterr().out
        assert "entries    2" in text
        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 0
        assert "2 ok, 0 corrupt" in capsys.readouterr().out

    def test_no_cache_flag_disables_store(self, tmp_path, capsys):
        from repro.cli import main
        out = str(tmp_path / "c.json")
        argv = ["sweep", "--cca", "vegas", "--rates", "2", "--rm", "40",
                "--duration", "3", "--json", out,
                "--cache-dir", str(tmp_path / "cache"), "--no-cache"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "cache:" not in text
        assert not os.path.exists(str(tmp_path / "cache"))
