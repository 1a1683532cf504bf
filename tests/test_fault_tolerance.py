"""The resilient executor under real faults: no mocks, real processes.

Every failure mode here is injected through :mod:`repro.sim.faults`
(the ``REPRO_FAULTS`` environment variable) and recovered through the
production paths: workers really die (``os._exit``), cells really
exceed their wall-clock budget, checkpoints really get their bytes
flipped. The invariant throughout: whatever happens mid-campaign, the
final records are byte-identical to one clean serial run.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import signal

import pytest

from repro.errors import ConfigurationError
from repro.scenario import ScenarioSpec, run_scenario_fleet
from repro.scenario.fleet import FleetUnit
from repro.sim.faults import ENV_VAR, FaultInjector, active_injector
from repro.sim import resilience
from repro.sim.resilience import (
    FaultTolerantExecutor,
    FleetManifest,
    RetryPolicy,
    cell_result_from_dict,
    cell_result_to_dict,
    run_resilient_fleet,
    unit_key,
)
from repro.sim.sharding import make_executor

pytestmark = pytest.mark.usefixtures("clean_fault_env")


@pytest.fixture
def clean_fault_env():
    """Guarantee no fault plan leaks between tests."""
    os.environ.pop(ENV_VAR, None)
    yield
    os.environ.pop(ENV_VAR, None)


def _set_faults(**plan):
    os.environ[ENV_VAR] = json.dumps(plan)


def _specs(n=3, frames=25, seed0=0):
    return [
        ScenarioSpec(
            topology="random",
            topology_kwargs={"num_nodes": 7},
            model="packet-routing",
            scheduler="single-hop",
            frames=frames,
            seed=seed0 + i,
        )
        for i in range(n)
    ]


def _same_records(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert repr(left) == repr(right)


@pytest.fixture(scope="module")
def clean_records():
    return run_scenario_fleet(_specs()).records


# ----------------------------------------------------------------------
# The fault injector itself
# ----------------------------------------------------------------------


def test_no_env_means_no_injector():
    assert active_injector() is None


def test_bad_env_json_raises():
    os.environ[ENV_VAR] = "{not json"
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        active_injector()


def test_unknown_fault_kind_raises():
    with pytest.raises(ConfigurationError, match="unknown fault kind"):
        FaultInjector({"explode": []})


def test_entry_matching():
    injector = FaultInjector({"raise": [{"index": 1, "attempt": 0}]})
    with pytest.raises(RuntimeError, match="injected fault"):
        injector.on_cell(1, 0)
    injector.on_cell(1, 1)  # attempt mismatch: no fault
    injector.on_cell(0, 0)  # index mismatch: no fault


def test_kill_refuses_in_main_process():
    injector = FaultInjector({"kill": [{}]})
    with pytest.raises(RuntimeError, match="refusing to _exit"):
        injector.on_cell(0, 0)


# ----------------------------------------------------------------------
# Retry, quarantine, timeout — real process pools
# ----------------------------------------------------------------------


def test_clean_run_matches_serial(clean_records):
    result = run_resilient_fleet(_specs(), workers=2)
    assert result.complete
    _same_records(result.records, clean_records)


def test_worker_kill_is_retried(clean_records):
    """A hard worker death (os._exit) recovers via retry, records intact."""
    _set_faults(kill=[{"index": 1, "attempt": 0}])
    result = run_resilient_fleet(_specs(), workers=2)
    assert result.complete
    _same_records(result.records, clean_records)
    assert any("crash" in f for f in result.statuses[1].failures)


def test_timeout_is_retried(clean_records):
    """A wedged cell is blamed and retried; healthy cells are kept."""
    _set_faults(delay=[{"index": 0, "attempt": 0, "seconds": 60}])
    result = run_resilient_fleet(_specs(), workers=2, cell_timeout=6.0)
    assert result.complete
    _same_records(result.records, clean_records)
    assert any("timeout" in f for f in result.statuses[0].failures)


def test_deterministic_failure_quarantines(clean_records):
    """Two identical error signatures stop the retries early."""
    _set_faults(**{"raise": [{"index": 2}]})
    result = run_resilient_fleet(_specs(), workers=2, max_retries=5)
    assert result.quarantined_indices == [2]
    assert result.statuses[2].attempts == 2  # not 6: quarantined early
    assert result.records[2] is None
    _same_records(result.records[:2], clean_records[:2])
    assert result.summary is not None  # aggregated over the survivors
    assert result.summary.networks == 2


def test_transient_failure_exhausts_to_failed():
    """Distinct signatures keep retrying, then mark the cell failed."""
    units = [FleetUnit(spec=spec, index=i) for i, spec in enumerate(_specs(1))]

    class Flaky:
        """A unit whose error message changes every attempt."""

        index = 0
        calls = 0

        def run(self):
            Flaky.calls += 1
            raise RuntimeError(f"transient #{Flaky.calls}")

    executor = FaultTolerantExecutor(
        max_retries=2,
        use_processes=False,
        strict=False,
        retry_policy=RetryPolicy(max_retries=2, backoff_base=0.0),
    )
    results = executor.map([Flaky()])
    assert results == [None]
    assert executor.statuses[0].state == "failed"
    assert executor.statuses[0].attempts == 3  # initial + 2 retries
    del units


def test_strict_map_raises_naming_cells():
    _set_faults(**{"raise": [{"index": 0}]})
    units = [FleetUnit(spec=spec, index=i) for i, spec in enumerate(_specs(2))]
    executor = FaultTolerantExecutor(
        workers=2,
        use_processes=False,
        strict=True,
        retry_policy=RetryPolicy(max_retries=2, backoff_base=0.0),
    )
    with pytest.raises(ConfigurationError, match="cell 0 quarantined"):
        executor.map(units)


def test_serial_fallback_after_repeated_pool_crashes(clean_records):
    """Every attempt killed -> pool crashes twice -> serial completes it."""
    _set_faults(kill=[{"index": 0}])  # every attempt of cell 0, any pool
    result = run_resilient_fleet(_specs(), workers=2, max_retries=6)
    # In-process the kill fault degrades to a RuntimeError, which the
    # serial path records as a deterministic error -> quarantine; the
    # other cells must still complete with correct records.
    assert result.records[0] is None
    _same_records(result.records[1:], clean_records[1:])


# ----------------------------------------------------------------------
# Manifest: durability, torn writes, resume
# ----------------------------------------------------------------------


def test_manifest_roundtrip(tmp_path, clean_records):
    manifest = FleetManifest(str(tmp_path / "m"))
    units = [FleetUnit(spec=spec, index=i) for i, spec in enumerate(_specs())]
    key = unit_key(units[0])
    manifest.record_fleet("fp", 3)
    manifest.record_completed(key, 0, clean_records[0])
    reloaded = FleetManifest(str(tmp_path / "m"))
    assert reloaded.invalid_lines == 0
    assert reloaded.fleet_entry["fingerprint"] == "fp"
    recovered = reloaded.completed_result(key)
    assert repr(recovered) == repr(clean_records[0])


def test_manifest_skips_torn_final_line(tmp_path, clean_records):
    manifest = FleetManifest(str(tmp_path / "m"))
    units = [FleetUnit(spec=spec, index=i) for i, spec in enumerate(_specs())]
    manifest.record_completed(unit_key(units[0]), 0, clean_records[0])
    manifest.record_completed(unit_key(units[1]), 1, clean_records[1])
    with open(manifest.path, "a") as handle:
        handle.write('{"sha256": "feed", "entry": {"kind": "comp')  # torn
    reloaded = FleetManifest(str(tmp_path / "m"))
    assert reloaded.invalid_lines == 1
    assert len(reloaded.completed_keys()) == 2


def test_manifest_rejects_checksum_forgery(tmp_path, clean_records):
    manifest = FleetManifest(str(tmp_path / "m"))
    units = [FleetUnit(spec=spec, index=i) for i, spec in enumerate(_specs())]
    manifest.record_completed(unit_key(units[0]), 0, clean_records[0])
    text = open(manifest.path).read().replace('"index": 0', '"index": 7')
    with open(manifest.path, "w") as handle:
        handle.write(text)
    reloaded = FleetManifest(str(tmp_path / "m"))
    assert reloaded.invalid_lines == 1
    assert reloaded.completed_keys() == []


def test_manifest_rejects_different_fleet(tmp_path):
    manifest = FleetManifest(str(tmp_path / "m"))
    manifest.record_fleet("fleet-a", 3)
    with pytest.raises(ConfigurationError, match="different fleet"):
        FleetManifest(str(tmp_path / "m")).record_fleet("fleet-b", 3)


def test_cell_result_json_roundtrip_is_exact(clean_records):
    for record in clean_records:
        via_json = json.loads(json.dumps(cell_result_to_dict(record)))
        assert repr(cell_result_from_dict(via_json)) == repr(record)


def test_resume_skips_completed_cells(tmp_path, clean_records):
    """Interrupted fleet + resume: only unfinished cells run again."""
    specs = _specs()
    _set_faults(**{"raise": [{"index": 1}]})
    first = run_resilient_fleet(
        specs, workers=2, manifest_dir=str(tmp_path / "m")
    )
    assert first.quarantined_indices == [1]
    os.environ.pop(ENV_VAR)
    second = run_resilient_fleet(
        specs, workers=2, manifest_dir=str(tmp_path / "m"), resume=True
    )
    assert second.complete
    _same_records(second.records, clean_records)
    assert [s.source for s in second.statuses] == [
        "manifest", "run", "manifest",
    ]


def test_corrupt_checkpoint_recovery(tmp_path, clean_records):
    """Kill mid-run, corrupt the snapshot, still byte-identical records."""
    _set_faults(
        kill=[{"index": 0, "attempt": 0}],
        corrupt=[{"index": 0, "attempt": 1}],
    )
    result = run_resilient_fleet(
        _specs(),
        workers=2,
        manifest_dir=str(tmp_path / "m"),
        snapshot_interval=5,
    )
    assert result.complete
    _same_records(result.records, clean_records)


def test_resume_without_manifest_dir_raises():
    with pytest.raises(ConfigurationError, match="manifest_dir"):
        run_resilient_fleet(_specs(), resume=True)


# ----------------------------------------------------------------------
# Executor edge cases
# ----------------------------------------------------------------------


def test_empty_fleet_raises():
    with pytest.raises(ConfigurationError, match="at least one"):
        run_resilient_fleet([])


def test_empty_unit_list_maps_to_empty():
    executor = FaultTolerantExecutor(use_processes=False)
    assert executor.map([]) == []
    assert executor.statuses == []


def test_builder_error_during_resolution_quarantines():
    """A spec naming a nonexistent component fails cleanly, not fatally."""
    bad = _specs(1)[0].replace(scheduler="no-such-scheduler")
    good = _specs(2, seed0=5)
    result = run_resilient_fleet(
        [good[0], bad, good[1]], workers=2,
        retry_policy=RetryPolicy(max_retries=3, backoff_base=0.0),
    )
    assert result.quarantined_indices == [1]
    assert result.records[1] is None
    assert result.records[0] is not None
    assert result.records[2] is not None


def test_keyboard_interrupt_leaves_manifest_durable(tmp_path, clean_records):
    """Ctrl-C mid-fleet: completed cells survive in the manifest."""
    specs = _specs()
    _set_faults(interrupt=[{"index": 1}])
    with pytest.raises(KeyboardInterrupt):
        run_resilient_fleet(
            specs,
            manifest_dir=str(tmp_path / "m"),
            use_processes=False,  # serial: interrupt hits the main process
        )
    os.environ.pop(ENV_VAR)
    manifest = FleetManifest(str(tmp_path / "m"))
    assert len(manifest.completed_keys()) == 1  # cell 0 flushed pre-interrupt
    resumed = run_resilient_fleet(
        specs, manifest_dir=str(tmp_path / "m"), resume=True,
        use_processes=False,
    )
    assert resumed.complete
    _same_records(resumed.records, clean_records)
    assert resumed.statuses[0].source == "manifest"


def test_retry_policy_backoff_is_deterministic():
    policy = RetryPolicy(max_retries=3, backoff_base=0.1, jitter=0.25)
    assert policy.delay(1, "k") == policy.delay(1, "k")
    assert policy.delay(1, "k") != policy.delay(1, "other")
    assert policy.delay(5, "k") <= policy.backoff_max * 1.25
    assert RetryPolicy(jitter=0.0).delay(0, "k") == 0.1


def test_retry_policy_validation():
    with pytest.raises(ConfigurationError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ConfigurationError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ConfigurationError):
        FaultTolerantExecutor(workers=0)
    with pytest.raises(ConfigurationError):
        FaultTolerantExecutor(cell_timeout=0.0)
    # max_retries defaults to the policy's; both given must agree.
    policy = RetryPolicy(backoff_base=0.0)
    with pytest.raises(ConfigurationError, match="disagrees"):
        FaultTolerantExecutor(max_retries=6, retry_policy=policy)
    with pytest.raises(ConfigurationError, match="disagrees"):
        run_resilient_fleet(_specs(1), max_retries=6, retry_policy=policy)
    assert FaultTolerantExecutor().retry_policy.max_retries == 2
    assert FaultTolerantExecutor(max_retries=6).retry_policy.max_retries == 6
    agreed = FaultTolerantExecutor(
        max_retries=6, retry_policy=RetryPolicy(max_retries=6)
    )
    assert agreed.retry_policy.max_retries == 6
    assert FaultTolerantExecutor(
        retry_policy=RetryPolicy(max_retries=4)
    ).retry_policy.max_retries == 4


def test_make_executor_resilient():
    executor = make_executor("resilient", workers=2, max_retries=1)
    assert executor.name == "resilient"
    assert executor.retry_policy.max_retries == 1
    with pytest.raises(ConfigurationError, match="no extra options"):
        make_executor("serial", max_retries=1)


def test_one_pool_per_map(monkeypatch):
    """A clean map keeps ``workers`` cells in flight in a single pool."""
    built = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(
        resilience.concurrent.futures, "ProcessPoolExecutor", CountingPool
    )
    specs = _specs(6)
    units = [FleetUnit(spec=spec, index=i) for i, spec in enumerate(specs)]
    records = FaultTolerantExecutor(workers=2).map(units)
    assert built == [2]
    _same_records(records, run_scenario_fleet(specs).records)


def test_dead_worker_fails_the_process_executor():
    """No retries under ``process``: a dead worker raises, never hangs."""
    _set_faults(kill=[{"index": 1, "attempt": 0}])
    units = [FleetUnit(spec=spec, index=i) for i, spec in enumerate(_specs())]

    def hung(signum, frame):
        raise TimeoutError("the process executor hung on a dead worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(ConfigurationError, match="cell 1 failed"):
            make_executor("process", workers=2).map(units)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# The interrupt/resume soak (slow lane)
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_interrupt_resume_soak(tmp_path):
    """Interrupt a fleet at three different cells, resume each time.

    After the final resume the records must be byte-identical to one
    clean uninterrupted run — the end-to-end durability guarantee.
    """
    specs = _specs(n=5, frames=30)
    clean = run_scenario_fleet(specs).records
    manifest_dir = str(tmp_path / "soak")
    for victim in (0, 2, 4):
        _set_faults(interrupt=[{"index": victim}])
        with pytest.raises(KeyboardInterrupt):
            run_resilient_fleet(
                specs,
                manifest_dir=manifest_dir,
                resume=True,
                snapshot_interval=7,
                use_processes=False,
            )
        os.environ.pop(ENV_VAR)
    final = run_resilient_fleet(
        specs,
        manifest_dir=manifest_dir,
        resume=True,
        snapshot_interval=7,
        use_processes=False,
    )
    assert final.complete
    _same_records(final.records, clean)
    # Every interrupted round made durable progress: by the final round
    # at least the cells before the last victim came from the manifest.
    assert sum(1 for s in final.statuses if s.source == "manifest") >= 4
