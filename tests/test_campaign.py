"""The campaign engine's determinism and resume contracts.

A campaign's frontier document must be a pure function of the campaign
spec: grid expansion is order-stable, the bisection probes the same
rates in the same order regardless of executor or worker count, and an
interrupted campaign resumed from its manifest produces the document
an uninterrupted run produces — bit for bit. These are the acceptance
criteria of the survey layer: if any of this drifts, phase diagrams
stop being comparable across machines and reruns.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.scenario.campaign import (
    AxisComponent,
    CampaignSpec,
    FrontierSearch,
    campaign_from_data,
    load_campaign,
    run_campaign,
)
from repro.sim.sharding import ProcessExecutor, SerialExecutor

# One MAC network, two schedulers: round-robin brackets its boundary
# inside the search range, single-hop is unstable already at the low
# endpoint — the two cheapest probe workloads in the registry, so the
# bisection runs end-to-end in well under a second per campaign.
CAMPAIGN_DATA = {
    "name": "test-frontier",
    "axes": {
        "topology": [{"name": "mac", "kwargs": {"num_stations": 8}}],
        "model": ["mac"],
        "scheduler": ["round-robin", "single-hop"],
        "injection": ["uniform-pairs"],
    },
    "seeds": [0, 1],
    "frames": 40,
    "search": {"rate_low": 0.5, "rate_high": 2.0, "tolerance": 0.25},
}


def small_campaign() -> CampaignSpec:
    return campaign_from_data(CAMPAIGN_DATA)


# ---------------------------------------------------------------------
# Spec parsing and validation
# ---------------------------------------------------------------------


def test_round_trip_through_dict_and_fingerprint():
    spec = small_campaign()
    again = CampaignSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.fingerprint() == spec.fingerprint()


def test_campaign_wrapper_key_is_optional():
    wrapped = campaign_from_data({"campaign": CAMPAIGN_DATA})
    assert wrapped == small_campaign()


def test_load_campaign_reads_json_file(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(CAMPAIGN_DATA))
    assert load_campaign(path) == small_campaign()


def test_missing_required_axes_rejected():
    with pytest.raises(ConfigurationError, match="topology"):
        campaign_from_data({"axes": {"scheduler": ["round-robin"]}})
    with pytest.raises(ConfigurationError, match="scheduler"):
        campaign_from_data({"axes": {"topology": ["mac"]}})


def test_unknown_fields_rejected():
    data = dict(CAMPAIGN_DATA, extra=1)
    with pytest.raises(ConfigurationError, match="extra"):
        campaign_from_data(data)
    with pytest.raises(ConfigurationError, match="rate"):
        campaign_from_data(
            dict(CAMPAIGN_DATA, base={"rate": 0.5})
        )


def test_transform_only_on_scheduler_axis():
    with pytest.raises(ConfigurationError, match="scheduler axis"):
        AxisComponent(kind="topology", name="mac", transform=True)


def test_search_validation():
    with pytest.raises(ConfigurationError, match="rate_low"):
        FrontierSearch(rate_low=0.0)
    with pytest.raises(ConfigurationError, match="rate_high"):
        FrontierSearch(rate_low=1.0, rate_high=0.5)
    with pytest.raises(ConfigurationError, match="tolerance"):
        FrontierSearch(tolerance=0.0)
    with pytest.raises(ConfigurationError, match="rate_mode"):
        FrontierSearch(rate_mode="relative")


def test_duplicate_seeds_rejected():
    with pytest.raises(ConfigurationError, match="distinct"):
        campaign_from_data(dict(CAMPAIGN_DATA, seeds=[0, 0]))


def test_too_few_frames_rejected():
    # Every probe would simulate its horizon and then fail the
    # stability assessment, which needs 20 frames.
    with pytest.raises(ConfigurationError, match="frames must be >= 20"):
        campaign_from_data(dict(CAMPAIGN_DATA, frames=19))
    assert campaign_from_data(dict(CAMPAIGN_DATA, frames=20)).frames == 20


# ---------------------------------------------------------------------
# Grid expansion
# ---------------------------------------------------------------------


def test_expansion_is_order_stable():
    data = {
        "axes": {
            "topology": ["mac", "grid"],
            "model": ["mac"],
            "scheduler": ["round-robin", "single-hop", "decay"],
            "injection": ["uniform-pairs"],
        },
    }
    spec = campaign_from_data(data)
    cells = spec.expand()
    # itertools.product order: topology-major, axes in listed order.
    assert [c.index for c in cells] == list(range(6))
    assert [(c.topology.name, c.scheduler.name) for c in cells] == [
        ("mac", "round-robin"), ("mac", "single-hop"), ("mac", "decay"),
        ("grid", "round-robin"), ("grid", "single-hop"), ("grid", "decay"),
    ]
    # Expansion is a pure function of the document.
    assert spec.expand() == cells


def test_cells_inherit_search_and_base_fields():
    spec = campaign_from_data(
        dict(CAMPAIGN_DATA, base={"t_scale": 0.002, "metrics": "streaming"})
    )
    for cell in spec.expand():
        assert cell.base.rate == spec.search.rate_low
        assert cell.base.rate_mode == spec.search.rate_mode
        assert cell.base.frames == spec.frames
        assert cell.base.t_scale == 0.002
        assert cell.base.metrics == "streaming"


def test_scheduler_axis_carries_transform():
    spec = campaign_from_data({
        "axes": {
            "topology": ["mac"],
            "scheduler": ["round-robin",
                          {"name": "decay", "transform": True}],
        },
    })
    plain, transformed = spec.expand()
    assert not plain.base.transform
    assert transformed.base.transform
    assert transformed.scheduler.display == "decay+T"


# ---------------------------------------------------------------------
# Frontier search
# ---------------------------------------------------------------------


def test_frontier_statuses_and_bracket():
    result = run_campaign(small_campaign())
    by_scheduler = {
        cell.labels["scheduler"]: cell for cell in result.cells
    }
    rr = by_scheduler["round-robin"]
    assert rr.status == "bracketed"
    assert rr.converged
    assert rr.upper - rr.lower <= 0.25 + 1e-12
    assert rr.frontier == pytest.approx(0.5 * (rr.lower + rr.upper))
    sh = by_scheduler["single-hop"]
    assert sh.status == "below-range"
    assert sh.frontier is None and sh.lower is None
    assert sh.upper == 0.5
    # The bracket wave alone settles an out-of-range cell.
    assert sh.simulations == 2 * len(result.spec.seeds)


def test_bisection_beats_fixed_grid_cell_count():
    result = run_campaign(small_campaign())
    assert result.total_simulations < result.grid_equivalent_simulations


def test_majority_verdict_over_seeds_recorded():
    result = run_campaign(small_campaign())
    for cell in result.cells:
        for probe in cell.probes:
            assert len(probe.results) == 2
            votes = sum(
                1.0 for r in probe.results if r.verdict.stable
            ) / len(probe.results)
            assert probe.stable_fraction == votes
            assert probe.stable == (votes >= 0.5)


def test_document_is_json_safe_and_deterministic():
    first = run_campaign(small_campaign()).to_json()
    second = run_campaign(small_campaign()).to_json()
    assert first == second
    doc = json.loads(first)
    assert doc["kind"] == "campaign-frontier"
    assert doc["fingerprint"] == small_campaign().fingerprint()
    assert len(doc["cells"]) == 2


def test_frontier_bit_identical_across_executors():
    serial = run_campaign(small_campaign(), executor=SerialExecutor())
    one = run_campaign(
        small_campaign(), executor=ProcessExecutor(workers=1)
    )
    many = run_campaign(
        small_campaign(), executor=ProcessExecutor(workers=3)
    )
    assert serial.to_json() == one.to_json() == many.to_json()


def test_phase_diagram_renders_every_cell():
    result = run_campaign(small_campaign())
    diagram = result.phase_diagram()
    assert "round-robin" in diagram
    assert "single-hop" in diagram
    assert "# stable" in diagram


# ---------------------------------------------------------------------
# Manifest journaling and resume
# ---------------------------------------------------------------------


class InterruptingExecutor:
    """Runs ``waves`` executor waves, then dies — a crash mid-campaign."""

    def __init__(self, waves: int):
        self.waves = waves
        self.inner = SerialExecutor()

    def map(self, units):
        if self.waves <= 0:
            raise KeyboardInterrupt("interrupted mid-campaign")
        self.waves -= 1
        return self.inner.map(units)


def test_resume_matches_uninterrupted(tmp_path):
    baseline = run_campaign(small_campaign()).to_json()

    manifest_dir = str(tmp_path / "manifest")
    with pytest.raises(KeyboardInterrupt):
        run_campaign(
            small_campaign(),
            executor=InterruptingExecutor(waves=1),
            manifest_dir=manifest_dir,
        )
    # The completed bracket wave survived the crash...
    from repro.sim.resilience import FleetManifest

    journalled = len(FleetManifest(manifest_dir).completed_keys())
    assert journalled > 0
    # ...and the resumed run recovers it instead of re-simulating,
    # finishing with the exact uninterrupted document.
    resumed = run_campaign(
        small_campaign(), manifest_dir=manifest_dir, resume=True
    )
    assert resumed.to_json() == baseline


def test_full_manifest_resume_runs_nothing(tmp_path):
    manifest_dir = str(tmp_path / "manifest")
    baseline = run_campaign(
        small_campaign(), manifest_dir=manifest_dir
    ).to_json()

    class RefusingExecutor:
        def map(self, units):
            raise AssertionError(
                "resume of a finished campaign must not simulate"
            )

    replay = run_campaign(
        small_campaign(),
        executor=RefusingExecutor(),
        manifest_dir=manifest_dir,
        resume=True,
    )
    assert replay.to_json() == baseline


def test_manifest_refuses_a_different_campaign(tmp_path):
    manifest_dir = str(tmp_path / "manifest")
    run_campaign(small_campaign(), manifest_dir=manifest_dir)
    edited = campaign_from_data(dict(CAMPAIGN_DATA, seeds=[0, 1, 2]))
    with pytest.raises(ConfigurationError, match="different fleet"):
        run_campaign(edited, manifest_dir=manifest_dir, resume=True)


def test_resume_requires_manifest_dir():
    with pytest.raises(ConfigurationError, match="manifest_dir"):
        run_campaign(small_campaign(), resume=True)
