"""The bench wraps program functions by (module, attribute); a refactor that
renames or stops exporting one would make its per-layer metrics silently
absent. These tests load `bench/tracing.py` from its path, without
installing its wrappers, and check that every boundary still resolves."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from coopdyn import envs, harness, ipd, mfg

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_bench_boundary_resolves(tracing):
    missing = [
        f"{module}.{attr}"
        for module, attr, _name, _counts in tracing.BOUNDARIES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_kernel_rows_are_an_ndarray_for_the_bench_counts():
    rows = mfg._binomial_pmf_rows(4, np.array([0.0, 0.3, 1.0]))
    assert isinstance(rows, np.ndarray) and rows.shape == (3, 5)


MFG_BOUNDARIES = ("forward_flow", "bellman_backward", "best_response_gap", "softmax_policy",
                  "_binomial_pmf_rows")


def counting_calls(monkeypatch, module=mfg, names=MFG_BOUNDARIES):
    """Count the calls that go through each named attribute of `module`."""
    calls = {}

    def counting(name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    for name in names:
        monkeypatch.setattr(module, name, counting(name))
    return calls


def test_the_solver_calls_through_every_traced_mfg_boundary(monkeypatch):
    # The bench counts these calls at the module attributes; a caller that
    # bound a function directly would bypass the wrapper and its metrics.
    calls = counting_calls(monkeypatch)
    params = mfg.default_params()
    mfg._induction_policy(params)
    induction = calls.pop("_binomial_pmf_rows")
    assert calls == {}
    result = mfg.solve_equilibrium(params)
    sweeps = result.iterations
    assert result.converged
    # the induction's pmf rows, then one stack per policy, each one block
    # of rows at N=20
    assert calls == {
        "forward_flow": sweeps + 1,
        "bellman_backward": sweeps + 1,
        "best_response_gap": 1,
        "softmax_policy": sweeps,
        "_binomial_pmf_rows": sweeps + 1 + induction,
    }


def test_the_simulator_calls_through_the_traced_mfg_boundaries(monkeypatch):
    # `population`'s kernel counts include the simulator's one mean-field
    # flow; a simulator that bound forward_flow directly would drop it.
    params = mfg.default_params()
    policy = mfg.uniform_policy(params)
    calls = counting_calls(monkeypatch)
    mfg.simulate_population(params, policy, episodes=3, seed=0)
    # one flow, whose stack is one block of rows at N=20
    assert calls == {"forward_flow": 1, "_binomial_pmf_rows": 1}


def test_a_tournament_calls_through_the_traced_ipd_boundary(monkeypatch):
    # The bench times and counts matches at `ipd.play_match`, and counts
    # rounds as len(trajectory); a tournament that bound the function
    # directly would leave ipd.matches and ipd.rounds_played absent.
    results = []
    play = ipd.play_match

    def counted(*args, **kwargs):
        results.append(play(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(ipd, "play_match", counted)
    entrants = [ipd.make_strategy(kind) for kind in ipd.STRATEGY_KINDS]
    config = ipd.MatchConfig(horizon=12)
    ipd.tournament(entrants, ipd.PayoffMatrix(5, 2, 1, 0), config)
    assert len(results) == len(entrants) ** 2
    assert all(len(result.trajectory) == config.horizon for result in results)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.stem)
def test_the_bench_counts_every_data_line_each_write_csv_call_writes(
    tracing, tmp_path, monkeypatch, path
):
    # harness.csv_rows is len(rows) taken by the bench's own count function
    # after each write_csv call; it must equal the lines the call wrote
    tables = {}
    write = harness.write_csv

    def recording(target, header, rows):
        write(target, header, rows)
        counts = tracing._csv_counts(None, (target, header, rows), {})
        lines = Path(target).read_bytes().count(b"\n") - 1
        tables[Path(target).name] = (type(rows), counts["rows"], lines)

    monkeypatch.setattr(harness, "write_csv", recording)
    harness.run(harness.load_config(path), out_dir=tmp_path)
    assert tables
    for name, (kind, counted, lines) in tables.items():
        assert counted == lines, name
        # every table reaches the writer as an array table, the one type it
        # formats, a column at a time
        assert kind is harness._ArrayTable, name


ROLES_BOUNDARIES = ("deterministic_assign", "stochastic_selection", "delayed_credit",
                    "fairness_report")


@pytest.mark.parametrize("name, runner", [
    ("roles_run", "intersection_episode"),
    ("roles_run_stochastic", "intersection_episode"),
    ("dungeon", "run_dungeon"),
])
def test_the_environments_call_through_every_traced_roles_boundary(
    tmp_path, monkeypatch, name, runner
):
    # roles.assign_*, roles.credit_s and roles.fairness_s are measured at
    # these `envs` attributes; an environment that bound one directly, or
    # credited a round twice, would move or blank those metrics
    calls = counting_calls(monkeypatch, envs, ROLES_BOUNDARIES)
    episodes = []
    play = getattr(harness, runner)

    def recording(*args, **kwargs):
        episodes.append(play(*args, **kwargs))
        return episodes[-1]

    monkeypatch.setattr(harness, runner, recording)
    config = harness.load_config(CONFIGS / f"{name}.json")
    harness.run(config, out_dir=tmp_path)
    (episode,) = episodes
    rounds = config["rounds"]
    # bench/tracing.py counts envs.rounds as len(episode.rounds)
    assert len(episode.rounds) == rounds
    # a round is credited when it passes (an intersection round's mover
    # count is within the threshold; a dungeon round always passes) and has
    # a sacrificing side
    threshold = config.get("threshold")
    credited = sum(
        bool((threshold is None or count <= threshold) and state[:, 0].any())
        for count, state in zip(episode.rounds.tolist(), episode.states)
    )
    assert 0 < credited <= rounds
    assign = "stochastic_selection" if name.endswith("stochastic") else "deterministic_assign"
    assert calls == {assign: rounds, "delayed_credit": credited, "fairness_report": 1}
