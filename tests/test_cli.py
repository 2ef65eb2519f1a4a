import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coopdyn import cli, harness
from coopdyn.errors import NumericalIntegrityError

REPO = Path(__file__).resolve().parent.parent


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def delta_scan_payload():
    return {
        "experiment": "delta_scan",
        "payoff": {"temptation": 5, "reward": 3, "punishment": 1, "sucker": 0},
        "grid": {"start": 0.1, "stop": 0.5, "step": 0.1},
    }


def test_delta_scan_roundtrip(tmp_path, capsys):
    config = write_config(tmp_path, delta_scan_payload())
    out = tmp_path / "run"
    code = cli.main(["delta-scan", "--config", str(config), "--out", str(out)])
    assert code == 0
    assert (out / "scan.csv").exists()
    assert "solved_threshold" in capsys.readouterr().out


def test_experiment_key_may_be_omitted(tmp_path):
    payload = delta_scan_payload()
    del payload["experiment"]
    config = write_config(tmp_path, payload)
    code = cli.main(["delta-scan", "--config", str(config), "--out", str(tmp_path / "r")])
    assert code == 0


def test_mismatched_subcommand_fails_validation(tmp_path):
    config = write_config(tmp_path, delta_scan_payload())
    code = cli.main(["dungeon", "--config", str(config), "--out", str(tmp_path / "r")])
    assert code == 1


def test_seed_override_lands_in_manifest(tmp_path):
    payload = {"experiment": "dungeon", "rounds": 3}
    config = write_config(tmp_path, payload)
    out = tmp_path / "run"
    code = cli.main(["dungeon", "--config", str(config), "--seed", "42", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 42


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_a_seed_override_outside_the_unsigned_64_bit_range_exits_one(tmp_path, capsys, seed):
    config = write_config(tmp_path, {"experiment": "dungeon", "rounds": 3})
    out = tmp_path / "run"
    code = cli.main(["dungeon", "--config", str(config), "--seed", seed, "--out", str(out)])
    assert code == 1
    assert "config.seed: must be >= 0 and < 2**64" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_config_exits_one(tmp_path, capsys):
    payload = delta_scan_payload()
    payload["mystery"] = True
    config = write_config(tmp_path, payload)
    code = cli.main(["delta-scan", "--config", str(config), "--out", str(tmp_path / "r")])
    assert code == 1
    assert "mystery" in capsys.readouterr().err


def test_missing_subcommand_exits_one(capsys):
    assert cli.main([]) == 1


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0


def test_subcommands_are_the_experiment_kinds_plus_report():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    kinds = [kind.replace("_", "-") for kind in harness.EXPERIMENT_KINDS]
    assert list(sub.choices) == [*kinds, "report"]


def test_numerical_integrity_exits_two(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path, delta_scan_payload())

    def explode(*args, **kwargs):
        raise NumericalIntegrityError("synthetic failure")

    monkeypatch.setitem(harness._KINDS, "delta_scan", (explode, harness._KINDS["delta_scan"][1]))
    code = cli.main(["delta-scan", "--config", str(config), "--out", str(tmp_path / "r")])
    assert code == 2
    assert "synthetic failure" in capsys.readouterr().err


def test_report_subcommand_rebuilds(tmp_path):
    config = write_config(tmp_path, delta_scan_payload())
    out = tmp_path / "run"
    assert cli.main(["delta-scan", "--config", str(config), "--out", str(out)]) == 0
    report = out / "report.md"
    original = report.read_bytes()
    report.unlink()
    assert cli.main(["report", "--config", str(out)]) == 0
    assert report.read_bytes() == original


def test_initial_law_with_tiny_negative_entries_simulates(tmp_path, capsys):
    # entries down to -1e-9 pass validation; the simulator must sample the
    # law the solver uses instead of failing inside the generator
    initial = [1 + 1e-10, -1e-10] + [0.0] * 19
    payload = {
        "experiment": "mfg_simulate",
        "params": {"n_agents": 20, "threshold": 8, "horizon": 5,
                   "initial_distribution": initial},
        "episodes": 20,
    }
    config = write_config(tmp_path, payload)
    code = cli.main(["mfg-simulate", "--config", str(config), "--out", str(tmp_path / "r")])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err


def test_more_episodes_than_one_multinomial_draw_takes_exit_one(tmp_path, capsys):
    payload = {
        "experiment": "mfg_simulate",
        "params": {"n_agents": 20, "threshold": 8, "horizon": 5},
        "episodes": 10**30,
        "policy": "uniform",
    }
    config = write_config(tmp_path, payload)
    out = tmp_path / "r"
    code = cli.main(["mfg-simulate", "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: config.episodes: episodes must be at most 9223372036854775807")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("episodes", [0, 10**30])
def test_an_episode_count_out_of_range_exits_one_before_the_solve(
    tmp_path, monkeypatch, capsys, episodes
):
    def unreachable(*args, **kwargs):
        raise AssertionError("solved before the episode count was checked")

    monkeypatch.setattr(harness, "solve_equilibrium", unreachable)
    payload = {
        "experiment": "mfg_simulate",
        "params": {"n_agents": 20, "threshold": 8, "horizon": 5},
        "episodes": episodes,
        "policy": "equilibrium",
    }
    config = write_config(tmp_path, payload)
    code = cli.main(["mfg-simulate", "--config", str(config), "--out", str(tmp_path / "r")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: config.episodes: episodes must be ")


def test_a_population_too_large_for_numpy_exits_one_before_the_solve(
    tmp_path, monkeypatch, capsys
):
    def unreachable(*args, **kwargs):
        raise AssertionError("solved a population numpy cannot hold")

    monkeypatch.setattr(harness, "solve_equilibrium", unreachable)
    payload = {"experiment": "mfg_solve", "params": {"n_agents": 10**17, "threshold": 8}}
    config = write_config(tmp_path, payload)
    out = tmp_path / "r"
    code = cli.main(["mfg-solve", "--config", str(config), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: config.params: n_agents, horizon: a (horizon + 1) x (n_agents + 1) x 2 "
        "float64 array is larger than numpy's size limit\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, runner",
    [
        ({"experiment": "dungeon", "rounds": 10**30}, "run_dungeon"),
        (
            {"experiment": "roles_run", "n_agents": 6, "threshold": 2, "rounds": 10**30},
            "intersection_episode",
        ),
    ],
    ids=["dungeon", "roles_run"],
)
def test_a_state_log_too_large_for_numpy_exits_one_before_the_episode(
    tmp_path, monkeypatch, capsys, payload, runner
):
    def unreachable(*args, **kwargs):
        raise AssertionError("ran an episode whose state log numpy cannot hold")

    monkeypatch.setattr(harness, runner, unreachable)
    config = write_config(tmp_path, payload)
    out = tmp_path / "r"
    command = payload["experiment"].replace("_", "-")
    code = cli.main([command, "--config", str(config), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: config: rounds, n_agents: a rounds x n_agents x 3 int64 state log "
        "is larger than numpy's size limit\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "error, detail",
    [
        (MemoryError("Unable to allocate 6.55 TiB"), "Unable to allocate 6.55 TiB"),
        (MemoryError(), "an allocation failed"),
    ],
    ids=["numpy", "bare"],
)
def test_a_run_out_of_memory_exits_one_with_one_line(
    tmp_path, monkeypatch, capsys, error, detail
):
    def exhaust(*args, **kwargs):
        raise error

    monkeypatch.setitem(harness._KINDS, "dungeon", (exhaust, harness._KINDS["dungeon"][1]))
    config = write_config(tmp_path, {"experiment": "dungeon", "rounds": 3})
    out = tmp_path / "r"
    code = cli.main(["dungeon", "--config", str(config), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: out of memory: {detail}\n"
    assert not out.exists()


def test_report_on_missing_run_exits_one(tmp_path):
    assert cli.main(["report", "--config", str(tmp_path)]) == 1


def _run_dir(tmp_path, manifest_text):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text(manifest_text)
    return ["report", "--config", str(run_dir)]


def _manifest_without_summary(tmp_path):
    config = write_config(tmp_path, delta_scan_payload())
    out = tmp_path / "done"
    assert cli.main(["delta-scan", "--config", str(config), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["summary"]
    return _run_dir(tmp_path, json.dumps(manifest))


def _manifest_with_config(config):
    manifest = {"config": config, "outputs": [], "summary": {}, "version": "0.1.0"}
    return lambda tmp_path: _run_dir(tmp_path, json.dumps(manifest))


def _non_utf8_config(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"grid": {"values": [0.5]}, "note": "café"}'.encode("latin-1"))
    return ["delta-scan", "--config", str(path)]


def _out_below_a_file(tmp_path):
    (tmp_path / "file").write_text("")
    config = write_config(tmp_path, delta_scan_payload())
    return ["delta-scan", "--config", str(config), "--out", str(tmp_path / "file" / "run")]


@pytest.mark.parametrize(
    "argv, message",
    [
        (lambda tmp: ["delta-scan", "--config", str(tmp / "absent.json")], "absent.json"),
        (_non_utf8_config, "latin1.json"),
        (lambda tmp: _run_dir(tmp, "{not json"), "invalid JSON"),
        (_manifest_without_summary, "'summary'"),
        (lambda tmp: _run_dir(tmp, "[]"), "top level must be an object"),
        (_out_below_a_file, "file/run"),
        (_manifest_with_config({}), "config.experiment: must be one of"),
        (_manifest_with_config({"experiment": "ipd_match"}),
         "config: missing required key 'payoff'"),
        (_manifest_with_config({"experiment": "ipd_match", "payoff": {"temptation": 5}}),
         "config.payoff: missing required key 'reward'"),
    ],
    ids=["missing", "non-utf8", "corrupt-manifest", "no-summary", "list-manifest", "unwritable",
         "empty-config", "config-without-payoff", "partial-payoff"],
)
def test_file_level_errors_exit_one_with_a_message(tmp_path, capsys, argv, message):
    code = cli.main(argv(tmp_path))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and message in err


def test_mfg_runs_leave_numpy_ma_unimported(tmp_path):
    # np.unique without return_inverse imports numpy.ma on its first call,
    # about 1.2 MB that no run needs; the kernel stack is built without it
    simulate = json.loads((REPO / "configs" / "mfg_simulate.json").read_text())
    # formula mode at N=100 holds more rows than _SELECT_CELLS: per-step products
    simulate["params"] = {"n_agents": 100, "threshold": 40, "temperature": 0.2,
                          "horizon": 10, "reward_mode": "formula"}
    simulate_path = write_config(tmp_path, simulate, "simulate.json")
    script = (
        "import sys\n"
        "from coopdyn import cli\n"
        f"assert cli.main(['mfg-solve', '--config', {str(REPO / 'configs' / 'mfg_solve.json')!r}, "
        f"'--out', {str(tmp_path / 'solve')!r}]) == 0\n"
        f"assert cli.main(['mfg-simulate', '--config', {str(simulate_path)!r}, "
        f"'--out', {str(tmp_path / 'simulate')!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.splitlines()[-1] == "False"
