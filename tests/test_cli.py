"""Tests for the command-line interface."""

from __future__ import annotations

import importlib.util
import multiprocessing
import os

import pytest

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="process-executor CLI tests assume fork workers"
)

from repro.cli.builders import build_topology, scenario_names, topology_names
from repro.cli.main import main
from repro.cli.registry import EXPERIMENTS, experiment_ids
from repro.errors import ConfigurationError
from repro.scenario import PRESETS, ScenarioSpec, preset_spec, resolve

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks")


class TestBuilders:
    @pytest.mark.parametrize("name", scenario_names())
    def test_every_scenario_builds(self, name):
        scenario = preset_spec(name, nodes=9, seed=0).build(
            with_protocol=False
        )
        assert scenario.network.num_links > 0
        assert scenario.certified > 0
        # The algorithm bound is usable (protocol sizing needs it).
        m = scenario.network.size_m
        assert scenario.algorithm.network_bound(m).f(m) >= 1.0

    @pytest.mark.parametrize("kind", topology_names())
    def test_every_topology_builds(self, kind):
        net = build_topology(kind, nodes=8, seed=1)
        assert net.num_nodes >= 2
        assert net.num_links >= 1

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            preset_spec("nope", nodes=9, seed=0)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            build_topology("nope", nodes=9, seed=0)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            preset_spec("packet-routing", nodes=1, seed=0)
        with pytest.raises(ConfigurationError):
            build_topology("grid", nodes=1, seed=0)

    def test_registries_expose_names(self):
        assert scenario_names() == list(PRESETS)
        # Every CLI topology kind is a registered topology component.
        for kind in topology_names():
            assert callable(resolve("topology", kind))


class TestRegistry:
    def test_ids_unique(self):
        ids = experiment_ids()
        assert len(ids) == len(set(ids))

    def test_every_bench_file_exists(self):
        for entry in EXPERIMENTS:
            path = os.path.join(BENCH_DIR, entry.bench_file)
            assert os.path.exists(path), (
                f"registry lists {entry.bench_file} but it does not exist"
            )

    def test_every_bench_file_registered(self):
        listed = {entry.bench_file for entry in EXPERIMENTS}
        on_disk = {
            name
            for name in os.listdir(BENCH_DIR)
            if name.startswith("bench_") and name.endswith(".py")
        }
        missing = on_disk - listed
        assert not missing, f"benches not in the registry: {sorted(missing)}"

    def test_every_baseline_and_perf_bench_registered(self):
        """A retired bench cannot leave an orphan BENCH_*.json or a
        ``run_perf.py`` entry behind."""
        files = {entry.id.lower(): entry.bench_file for entry in EXPERIMENTS}
        root = os.path.join(BENCH_DIR, "..")
        baselines = {
            name[len("BENCH_"):-len(".json")]
            for name in os.listdir(root)
            if name.startswith("BENCH_") and name.endswith(".json")
        }
        orphans = baselines - set(files)
        assert not orphans, f"baselines of no registered bench: {orphans}"

        spec = importlib.util.spec_from_file_location(
            "run_perf", os.path.join(BENCH_DIR, "run_perf.py")
        )
        run_perf = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run_perf)
        for bench_id, (module, _) in run_perf.PERF_BENCHES.items():
            assert files.get(bench_id) == f"{module}.py", (
                f"run_perf.py bench '{bench_id}' has no registry row"
            )


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "PODC 2012" in out
        assert "sinr-linear" in out

    def test_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for entry in EXPERIMENTS:
            assert entry.id in out

    def test_topology_geometric(self, capsys):
        assert main(["topology", "--kind", "grid", "--nodes", "9"]) == 0
        out = capsys.readouterr().out
        assert "9 nodes" in out
        assert "geometric: True" in out

    def test_topology_non_geometric(self, capsys):
        assert main(["topology", "--kind", "mac", "--nodes", "4"]) == 0
        out = capsys.readouterr().out
        assert "geometric: False" in out

    def test_topology_truncates_link_table(self, capsys):
        assert main(
            ["topology", "--kind", "grid", "--nodes", "16", "--links", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "more links" in out

    def test_simulate_packet_routing(self, capsys):
        code = main(
            [
                "simulate",
                "--model", "packet-routing",
                "--nodes", "9",
                "--frames", "40",
                "--seed", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "injected" in out
        assert "queue series:" in out

    def test_simulate_with_check(self, capsys):
        code = main(
            [
                "simulate",
                "--model", "packet-routing",
                "--nodes", "9",
                "--frames", "40",
                "--check",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "drift/frame" in out
        assert "Little's law" in out

    def test_simulate_with_trace(self, capsys):
        code = main(
            [
                "simulate",
                "--model", "packet-routing",
                "--nodes", "9",
                "--frames", "40",
                "--trace",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "activated" in out
        assert "delivered" in out

    def test_simulate_mac(self, capsys):
        code = main(
            [
                "simulate",
                "--model", "mac",
                "--nodes", "5",
                "--frames", "40",
                "--rate-fraction", "0.4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario 'mac'" in out

    def test_compare(self, capsys):
        code = main(
            ["compare", "--nodes", "10", "--frames", "20", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "decay [Thm 19]" in out
        assert "HM-style [26]" in out
        assert "certified rate" in out

    def test_sweep(self, capsys):
        code = main(
            [
                "sweep",
                "--model", "packet-routing",
                "--nodes", "9",
                "--frames", "60",
                "--fractions", "0.3",
                "--seeds", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0.30x" in out
        assert "stable frac" in out

    @staticmethod
    def _executor_args(executor):
        if executor == "process" and not HAS_FORK:
            pytest.skip("process-executor CLI tests assume fork workers")
        return ["--executor", executor, "--workers", "2"]

    @pytest.mark.parametrize("executor", ["process"])
    def test_sweep_process_executor_output_identical(self, executor, capsys):
        # The executor is invisible in the results: byte-identical
        # stdout, serial vs a 2-worker process pool.
        argv = [
            "sweep",
            "--model", "packet-routing",
            "--nodes", "9",
            "--frames", "40",
            "--fractions", "0.3,0.8",
            "--seeds", "0,1",
        ]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + self._executor_args(executor)) == 0
        assert capsys.readouterr().out == serial

    @pytest.mark.slow
    @pytest.mark.parametrize("executor", ["process"])
    def test_compare_process_executor_output_identical(self, executor, capsys):
        argv = ["compare", "--nodes", "10", "--frames", "20", "--seed", "1"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + self._executor_args(executor)) == 0
        assert capsys.readouterr().out == serial

    @pytest.mark.slow
    def test_compare_provisions_overload_at_the_certified_rate(self, capsys):
        # Past the certified rate only the injection grows: every
        # contender's protocol (and so its frame T) stays provisioned
        # at the certified rate, as in sweep, fleet and campaign.
        def frame_lengths(fraction):
            argv = ["compare", "--nodes", "6", "--frames", "20",
                    "--rate-fraction", fraction]
            assert main(argv) == 0
            rows = capsys.readouterr().out.splitlines()[3:]
            return [row.split()[-5] for row in rows]

        at_certified = frame_lengths("1.0")
        assert len(at_certified) == 3
        assert frame_lengths("1.5") == at_certified

    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "--seeds", "-1"],
            ["compare", "--seed", "-1"],
            ["fleet", "--seed", "-1"],
            ["simulate", "--seed", "-1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_is_a_usage_error(self, command, capsys):
        assert main(command + ["--frames", "20"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "seed must be a non-negative integer" in err

    @pytest.mark.parametrize(
        "command",
        [
            ["sweep"],
            ["compare"],
            ["fleet"],
            ["campaign", "--spec", "unused.json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_batched_executor_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--executor", "batched"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'batched'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["simulate"],
            ["sweep", "--fractions", "0.5", "--seeds", "0"],
            ["compare"],
            ["fleet"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_too_few_frames_is_a_usage_error(
        self, command, capsys, monkeypatch
    ):
        # Rejected before any network is built or simulated.
        def no_build(*args, **kwargs):
            raise AssertionError("built a spec with too few frames")

        monkeypatch.setattr(ScenarioSpec, "build", no_build)
        assert main(command + ["--frames", "19"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "frames must be >= 20" in err
        assert "19" in err

    def test_sweep_rejects_bad_fractions(self, capsys):
        code = main(
            ["sweep", "--fractions", "abc", "--seeds", "0"]
        )
        assert code == 2
        assert "bad --fractions" in capsys.readouterr().err

    def test_sweep_rejects_empty_seeds(self, capsys):
        code = main(["sweep", "--fractions", "0.5", "--seeds", ""])
        assert code == 2

    def test_deterministic_output(self, capsys):
        argv = [
            "simulate",
            "--model", "packet-routing",
            "--nodes", "9",
            "--frames", "30",
            "--seed", "7",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


class TestScenariosCommand:
    def test_lists_every_registered_component(self, capsys):
        from repro.scenario import registry

        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for kind in ("topology", "model", "scheduler", "injection"):
            assert f"{kind}:" in out
            for name in registry.names(kind):
                assert name + "(" in out, f"{kind} '{name}' not listed"
        # Signatures are printed, not just names — the authoring aid.
        assert "rows" in out and "num_generators" in out
        assert "backend:" in out
        assert "presets:" in out


class TestFleetCommand:
    def test_generated_fleet(self, capsys):
        code = main(
            ["fleet", "--model", "packet-routing", "--nodes", "9",
             "--networks", "2", "--frames", "30"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 network(s)" in out
        assert "summary over 2 network(s)" in out
        assert "packet-routing" in out

    def test_spec_file_fleet(self, tmp_path, capsys):
        import json

        from repro.scenario import preset_spec

        specs = [
            preset_spec("packet-routing", nodes=9, seed=seed, frames=30)
            for seed in (0, 1)
        ]
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({"specs": [s.to_dict() for s in specs]}))
        assert main(["fleet", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"spec file {path}" in out
        assert "summary over 2 network(s)" in out

    @needs_fork
    def test_fleet_process_executor_output_identical(self, capsys):
        argv = ["fleet", "--model", "packet-routing", "--nodes", "9",
                "--networks", "2", "--frames", "30"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--executor", "process", "--workers", "2"]) == 0
        process = capsys.readouterr().out
        assert process.replace("'process'", "'serial'") == serial

    def test_fleet_rejects_bad_spec_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["fleet", "--spec", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_fleet_rejects_zero_networks(self, capsys):
        assert main(["fleet", "--networks", "0"]) == 2
        assert "--networks" in capsys.readouterr().err


CAMPAIGN_DATA = {
    "name": "cli-frontier",
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


class TestCampaignCommand:
    @pytest.fixture
    def spec_path(self, tmp_path):
        import json

        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(CAMPAIGN_DATA))
        return str(path)

    def test_campaign_prints_table_and_diagram(self, spec_path, capsys):
        assert main(["campaign", "--spec", spec_path]) == 0
        out = capsys.readouterr().out
        assert "campaign: cli-frontier" in out
        assert "round-robin" in out and "single-hop" in out
        assert "bracketed" in out and "below-range" in out
        assert "# stable   ? frontier bracket   . unstable" in out
        assert "fixed grid at the same resolution" in out

    def test_campaign_writes_deterministic_document(
        self, spec_path, tmp_path, capsys
    ):
        import json

        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(
            ["campaign", "--spec", spec_path, "--out", str(out_a)]
        ) == 0
        assert main(
            ["campaign", "--spec", spec_path, "--out", str(out_b)]
        ) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        doc = json.loads(out_a.read_text())
        assert doc["kind"] == "campaign-frontier"
        assert len(doc["cells"]) == 2

    @needs_fork
    def test_campaign_stdout_identical_across_executors(
        self, spec_path, capsys
    ):
        assert main(["campaign", "--spec", spec_path]) == 0
        serial = capsys.readouterr().out
        assert main(
            ["campaign", "--spec", spec_path,
             "--executor", "process", "--workers", "2"]
        ) == 0
        process = capsys.readouterr().out
        assert process.replace("'process'", "'serial'") == serial

    def test_campaign_resume_reproduces_document(
        self, spec_path, tmp_path, capsys
    ):
        base = tmp_path / "base.json"
        assert main(
            ["campaign", "--spec", spec_path, "--out", str(base)]
        ) == 0
        capsys.readouterr()
        ckpt = str(tmp_path / "ckpt")
        first = tmp_path / "first.json"
        assert main(
            ["campaign", "--spec", spec_path, "--out", str(first),
             "--checkpoint-dir", ckpt]
        ) == 0
        capsys.readouterr()
        resumed = tmp_path / "resumed.json"
        assert main(
            ["campaign", "--spec", spec_path, "--out", str(resumed),
             "--checkpoint-dir", ckpt, "--resume"]
        ) == 0
        assert base.read_bytes() == first.read_bytes()
        assert base.read_bytes() == resumed.read_bytes()

    def test_campaign_resume_needs_checkpoint_dir(self, spec_path, capsys):
        assert main(["campaign", "--spec", spec_path, "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_campaign_rejects_bad_spec_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["campaign", "--spec", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_scenarios_mentions_campaigns(self, capsys):
        assert main(["scenarios"]) == 0
        assert "campaign" in capsys.readouterr().out
