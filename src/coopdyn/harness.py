"""Config-driven experiment runner.

Loads a JSON config, validates it strictly (unknown keys are rejected),
executes one of the seven experiment kinds, and writes deterministic
artifacts into the output directory: the experiment CSVs, a manifest.json
holding the fully resolved config, and a human-readable report.md. Nothing
is written unless validation, execution and rendering all succeed; each
file then goes through a temporary sibling moved into place, so none is
ever half-written. Unreadable configs and manifests, and range errors such
as table-mode smoothing or reward_offset, are ConfigErrors with a key path.
Re-running a manifest reproduces the CSVs byte for byte.

Every runner returns its tables as numpy columns. The writer streams each
table into its temporary file one block of rows at a time, so its memory
does not grow with the table; it formats an int or bool column of narrow
range once per table, and any other column once per distinct value in
each block.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import sys
import types
from dataclasses import MISSING, asdict, astuple, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Iterable, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .envs import DungeonConfig, IntersectionConfig, intersection_episode, run_dungeon, switch_mode
from .errors import ConfigError, NumericalIntegrityError, ValidationError
from .errors import _check_discount, _check_unread
from .ipd import (
    Alternator,
    MatchConfig,
    PayoffMatrix,
    critical_discount,
    deviate_payoff,
    make_strategy,
    play_match,
    stick_payoff,
    tournament,
)
from .mfg import MfgParams, check_episodes, simulate_population, solve_equilibrium, uniform_policy
from .roles import PRIMARY, SACRIFICE, SwitchPolicy, default_switch

# a delta_scan start/stop/step grid may hold at most this many points
MAX_GRID_POINTS = 1_000_000


# ---------------------------------------------------------------------------
# formatting and file helpers
# ---------------------------------------------------------------------------


_CELL = {bool: "%d", int: "%d", float: "%.12g", str: "%s"}
# a table is formatted, encoded and written this many rows at a time, so the
# writer holds one block's cells whatever the table's length; a block is
# wider than the j column of an N=5000 solve (5001 values), which is then
# formatted once per table rather than once per block
_BLOCK_ROWS = 8192


class _ArrayTable:
    """Equal-length array columns, formatted when written; `len()` is the row count."""

    def __init__(self, *columns: np.ndarray):
        if len({len(column) for column in columns}) != 1:
            raise ValueError(f"table columns differ in length: {[len(c) for c in columns]}")
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])


def _cells(column: np.ndarray, end: str) -> np.ndarray:
    """The column's cells as text followed by `end`, each distinct value
    formatted once by the `%` format of its Python type in _CELL.
    Floats are keyed by their bits, so 0.0 and -0.0 stay apart."""
    floating = column.dtype.kind == "f"
    keys = column.view(f"i{column.itemsize}") if floating else column
    distinct, inverse = np.unique(keys, return_inverse=True)
    values = (distinct.view(column.dtype) if floating else distinct).tolist()
    template = _CELL[type(values[0])] + end if values else end
    return np.array(list(map(template.__mod__, values)), dtype=object)[inverse]


def _block_cells(name: str, column: np.ndarray, end: str):
    """cells(start, stop): the cells of rows start:stop as `_cells` gives
    them. An int or bool column whose value range is no wider than its first
    block indexes the strings of range(lo, hi + 1), formatted once per
    table; any other column formats each block's distinct values. An object
    column must hold one Python type, so no block switches template."""
    if column.dtype.kind in "biu" and len(column):
        keys = column.view(np.uint8) if column.dtype.kind == "b" else column
        lo, hi = int(keys.min()), int(keys.max())
        if hi - lo < min(len(column), _BLOCK_ROWS):
            strings = np.array(list(map(("%d" + end).__mod__, range(lo, hi + 1))), dtype=object)
            return lambda start, stop: strings[keys[start:stop] - lo]
    if column.dtype == object and len(kinds := {type(value) for value in column}) > 1:
        names = sorted(kind.__name__ for kind in kinds)
        raise ValueError(f"table column {name!r} mixes Python types: {', '.join(names)}")
    return lambda start, stop: _cells(column[start:stop], end)


def write_csv(path: Path, header: list[str], rows: _ArrayTable) -> None:
    """Write an array table, one type per column: bools as 1/0, ints as
    they are, floats at 12 significant digits, strings as they are. The
    header, then one block of _BLOCK_ROWS rows at a time, is formatted,
    encoded and written to the temporary file, so the writer's memory does
    not grow with the table. Narrow int and bool columns are formatted once
    per table, other columns once per distinct value in each block."""
    ends = [","] * (len(rows.columns) - 1) + ["\n"]
    columns = [
        _block_cells(name, column, end)
        for name, column, end in zip(header, rows.columns, ends, strict=True)
    ]
    blocks = (
        "".join(np.column_stack([cells(start, start + _BLOCK_ROWS) for cells in columns])
                .ravel().tolist())
        for start in range(0, len(rows), _BLOCK_ROWS)
    )
    _publish(path, itertools.chain([",".join(header) + "\n"], blocks))


def _publish(path: Path, chunks: Iterable[str]) -> None:
    """Write the text chunks, UTF-8 encoded one at a time, through a
    temporary sibling moved into place, so `path` always holds either its
    old or its new complete content."""
    temporary = path.with_name(path.name + ".tmp")
    try:
        with open(temporary, "wb") as file:
            for chunk in chunks:
                file.write(chunk.encode("utf-8"))
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# config reading: each key's type and default come from the dataclass field
# or function parameter it feeds
# ---------------------------------------------------------------------------

_EXPECTED = {
    int: "an integer",
    float: "a finite number",
    str: "a string",
    bool: "true/false",
    list: "an array",
    dict: "an object",
}


def _schema(target, skip=()) -> dict:
    """{key: (type, default)} for a dataclass's fields or a callable's
    parameters; MISSING marks a required key."""
    if is_dataclass(target):
        hints = get_type_hints(target)
        defaults = {f.name: f.default for f in fields(target)}
    else:
        hints = get_type_hints(target.__init__ if isinstance(target, type) else target)
        defaults = {
            p.name: MISSING if p.default is p.empty else p.default
            for p in inspect.signature(target).parameters.values()
        }
    return {key: (hints[key], d) for key, d in defaults.items() if key not in skip}


# Taken at import from the solver itself: the module attribute may later be
# replaced by a wrapper whose signature says nothing.
_SOLVER = _schema(solve_equilibrium, skip=("params",))
_SOLVER_DEFAULTS = {key: default for key, (_, default) in _SOLVER.items()}


def _value(value, tp, path, problems):
    """`value` checked against type `tp`, nested dataclasses built and
    nested schema dicts read; None after recording a problem."""
    if isinstance(tp, dict):
        return _read(value, tp, path, problems)
    # before Python 3.11, get_type_hints turns a parameter annotated
    # `X | None = None` into typing.Union[X, None]
    if get_origin(tp) in (Union, types.UnionType):
        if value is None:
            return None
        (tp,) = [arg for arg in get_args(tp) if arg is not type(None)]
    if is_dataclass(tp):
        return _build(tp, value, path, problems)
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            problems.append(f"{path}: expected an array")
            return None
        return tuple(
            _value(item, get_args(tp)[0], f"{path}[{i}]", problems)
            for i, item in enumerate(value)
        )
    if tp is float:
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, tp)
    if not ok or (isinstance(value, bool) and tp is not bool):
        problems.append(f"{path}: expected {_EXPECTED[tp]}")
        return None
    return float(value) if tp is float else value


def _read(raw, schema, path, problems) -> dict | None:
    """Values of config object `raw` checked against `schema`, defaults
    filled in; None after recording any problem."""
    if not isinstance(raw, dict):
        problems.append(f"{path}: expected an object")
        return None
    before = len(problems)
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        problems.append(f"{path}: unknown keys: {', '.join(unknown)}")
    values = {}
    for key, (tp, default) in schema.items():
        if key in raw:
            values[key] = _value(raw[key], tp, f"{path}.{key}", problems)
        elif default is MISSING:
            problems.append(f"{path}: missing required key '{key}'")
        else:
            values[key] = default
    return values if len(problems) == before else None


def _construct(factory, path, problems, *args, **kwargs):
    """factory(*args, **kwargs), or None after recording why it refused."""
    try:
        return factory(*args, **kwargs)
    except (ValidationError, OverflowError) as exc:
        problems.append(f"{path}: {exc}")
        return None


def _build(cls, raw, path, problems):
    """Dataclass `cls` from config object `raw`; range rules stay in the
    dataclass. None on any problem."""
    values = _read(raw, _schema(cls), path, problems)
    return None if values is None else _construct(cls, path, problems, **values)


def _switch(raw, env, cohort, problems):
    """The switch block; what it leaves unset comes from roles.default_switch
    for the mode it names, else the mode of the environment's own default.
    A block that names its midpoint never works out the default one."""
    mode = raw.get("mode", env.switch.mode)
    base = {"mode": mode}
    if "streak_midpoint" not in raw:
        default = _construct(default_switch, "config.switch", problems, env.n_agents, cohort, mode)
        if default is None:
            return None
        base = asdict(default)
    return _build(SwitchPolicy, {**base, **raw}, "config.switch", problems)


def _finish_validation(problems: list[str]) -> None:
    if problems:
        raise ConfigError(problems)


# ---------------------------------------------------------------------------
# experiment runners: each gets its checked top-level keys (_KINDS below),
# validates the rest, computes, and returns its resolved config, summary
# and {csv name: (header, rows)}
# ---------------------------------------------------------------------------


def _read_ipd(top, problems, exact=None):
    """Payoff, strategies and match config shared by both IPD kinds. Only
    the alternator strategy takes options, typed by its constructor."""
    blocks = top.pop("players")
    if exact is not None and len(blocks) != exact:
        problems.append(f"config.players: expected exactly {exact} entries")
    elif len(blocks) < 2:
        problems.append("config.players: expected at least 2 entries")
    players, entries = [], []
    for idx, block in enumerate(blocks):
        path = f"config.players[{idx}]"
        alternator = isinstance(block, dict) and block.get("kind") == "alternator"
        schema = {"kind": (str, MISSING), **(_schema(Alternator) if alternator else {})}
        entry = _read(block, schema, path, problems)
        players.append(entry and _construct(make_strategy, path, problems, **entry))
        entries.append(entry)
    payoff = top.pop("payoff")
    match = _construct(MatchConfig, "config", problems, **top)
    _finish_validation(problems)
    resolved = {**asdict(match), "payoff": asdict(payoff), "players": entries}
    return payoff, players, match, resolved


def _run_ipd_match(top, seed, problems):
    payoff, players, match, resolved = _read_ipd(top, problems, exact=2)
    result = play_match(players[0], players[1], payoff, match)
    x, y = np.array(result.trajectory, dtype=np.int64).T
    # mine[a, b]: the payoff of action a against action b
    mine = np.array([[payoff.payoffs(a, b)[0] for b in (0, 1)] for a in (0, 1)])
    letters = np.array(["C", "D"])
    rows = _ArrayTable(np.arange(len(x)), letters[x], letters[y], mine[x, y], mine[y, x])
    summary = {
        "regime": payoff.regime().value,
        "total_payoffs": list(result.total_payoffs),
        "discounted_payoffs": list(result.discounted_payoffs),
        "group_payoff_per_round": result.group_payoff_per_round,
    }
    header = ["round", "action_x", "action_y", "payoff_x", "payoff_y"]
    return resolved, summary, {"trajectory.csv": (header, rows)}


def _run_ipd_tournament(top, seed, problems):
    payoff, players, match, resolved = _read_ipd(top, problems)
    scores = tournament(players, payoff, match)
    rows = _ArrayTable(*map(np.array, zip(*map(astuple, scores))))
    best = max(scores, key=lambda r: r.mean_discounted)
    summary = {
        "regime": payoff.regime().value,
        "entrants": len(players),
        "best_label": best.label,
        "best_mean_discounted": best.mean_discounted,
    }
    header = ["label", "mean_discounted", "mean_group"]
    return resolved, summary, {"scores.csv": (header, rows)}


_GRID_RANGE = {"start": (float, 0.01), "stop": (float, 0.99), "step": (float, 0.01)}


def _read_grid(raw, problems) -> list[float]:
    """Explicit grid values, or a start/stop/step range bounded by
    MAX_GRID_POINTS before any point is made."""
    if "values" in raw:
        grid = _read(raw, {"values": (tuple[float, ...], MISSING)}, "config.grid", problems)
        return [] if grid is None else list(grid["values"])
    grid = _read(raw, _GRID_RANGE, "config.grid", problems)
    if grid is None:
        return []
    start, stop, step = grid["start"], grid["stop"], grid["step"]
    if step <= 0:
        problems.append("config.grid.step: must be positive")
        return []
    span = (stop - start) / step  # the range has round(span) + 1 points
    if span >= MAX_GRID_POINTS - 0.5:
        problems.append(f"config.grid: more than {MAX_GRID_POINTS} points")
        return []
    return [start + k * step for k in range(max(round(span) + 1, 0))]


def _run_delta_scan(top, seed, problems):
    grid = _read_grid(top["grid"], problems)
    # every point is a discount factor
    _construct(lambda: [_check_discount(value) for value in grid], "config.grid", problems)
    _finish_validation(problems)
    payoff = top["payoff"]
    threshold = critical_discount(payoff)
    t, p, s = payoff.temptation, payoff.punishment, payoff.sucker
    deltas = np.array(grid, dtype=float)
    stick = np.array([stick_payoff(t, s, d) for d in grid], dtype=float)
    deviate = np.array([deviate_payoff(t, p, d) for d in grid], dtype=float)
    # the sign of stick - deviate without forming it: with gradual underflow
    # a - b is 0 only when a == b, and both tests fail where it would be NaN
    sign = (stick > deviate).astype(np.int64) - (stick < deviate)
    # with no solved threshold, no point lies above it
    solved = np.inf if threshold.solved is None else threshold.solved
    resolved = {"payoff": asdict(payoff), "grid": {"values": grid}}
    summary = {
        "solved_threshold": threshold.solved,
        "quoted_threshold": threshold.quoted,
        "threshold_note": threshold.note,
        "points": len(grid),
        "points_favoring_stick": int(np.count_nonzero(sign > 0)),
    }
    header = ["delta", "stick", "deviate", "sign", "above_solved", "above_quoted"]
    rows = _ArrayTable(deltas, stick, deviate, sign, deltas > solved, deltas > threshold.quoted)
    return resolved, summary, {"scan.csv": (header, rows)}


def _solve_tables(result) -> dict:
    # (t, j) of each row; the policy table stops one time step earlier
    t, j = np.divmod(np.arange(result.flow.size), result.flow.shape[1])
    policy, q = result.policy.reshape(-1, 2).T, result.values.q.reshape(-1, 2).T
    size = policy.shape[1]
    residuals = np.array(result.residual_history).T
    iters = np.arange(1, residuals.shape[1] + 1)
    return {
        "policy.csv": (["t", "j", "pi_wait", "pi_move"], _ArrayTable(t[:size], j[:size], *policy)),
        "flow.csv": (["t", "j", "prob"], _ArrayTable(t, j, result.flow.reshape(-1))),
        "values.csv": (["t", "j", "q_wait", "q_move"], _ArrayTable(t, j, *q)),
        "diag.csv": (["iter", "policy_residual", "dist_residual"], _ArrayTable(iters, *residuals)),
    }


def _run_mfg_solve(top, seed, problems):
    params, solver = top["params"], top["solver"]
    result = solve_equilibrium(params, **solver)
    last = result.residual_history[-1]
    resolved = {"params": asdict(params), "solver": solver}
    summary = {
        "converged": result.converged,
        "iterations": result.iterations,
        "final_policy_residual": last[0],
        "final_dist_residual": last[1],
        "exploitability": result.exploitability,
        "mean_count_final_t": float(result.flow[-1] @ np.arange(params.n_agents + 1.0)),
    }
    return resolved, summary, _solve_tables(result)


def _equilibrium_policy(solves, params, solver, problems, path, reads, where):
    """The one gate for the optional solve: the solved policy and the
    summary's solve block; for a run that skips the solve, (None, None) once
    the solver block and each field of `params` (the block at `path`) that
    `reads` does not name are found at their defaults."""
    if not solves:
        unread = {f.name: getattr(params, f.name) for f in fields(params) if f.name not in reads}
        _construct(_check_unread, "config.solver", problems, solver, _SOLVER_DEFAULTS, where)
        _construct(_check_unread, path, problems, unread, vars(MfgParams), where)
        _finish_validation(problems)
        return None, None
    result = solve_equilibrium(params, **solver)
    return result.policy, {"converged": result.converged, "iterations": result.iterations}


def _run_mfg_simulate(top, seed, problems):
    # before any solve: an episode count the simulator refuses fails at once
    _construct(check_episodes, "config.episodes", problems, top["episodes"])
    if top["policy"] not in ("equilibrium", "uniform"):
        problems.append(
            f"config.policy: must be 'equilibrium' or 'uniform', got {top['policy']!r}"
        )
    _finish_validation(problems)
    params, episodes, policy_kind = top["params"], top["episodes"], top["policy"]
    # the uniform policy and the simulator read only the sizes and the start law
    policy, solve_summary = _equilibrium_policy(
        policy_kind == "equilibrium", params, top["solver"], problems, "config.params",
        ("n_agents", "threshold", "horizon", "initial_distribution"),
        "when policy is 'equilibrium'")
    if policy is None:
        policy = uniform_policy(params)
    stats = simulate_population(params, policy, episodes=episodes, seed=seed)
    gap = np.abs(stats.mean_states - stats.mf_mean_states) / params.n_agents
    rows = _ArrayTable(np.arange(params.horizon + 1), stats.mean_states, stats.mf_mean_states, gap)
    resolved = {**top, "params": asdict(params)}
    summary = {
        "episodes": episodes,
        "deviation": stats.deviation,
        "policy": policy_kind,
        "solve": solve_summary,
    }
    header = ["t", "empirical_mean_count", "mean_field_mean_count", "scaled_gap"]
    return resolved, summary, {"sim.csv": (header, rows)}


_ROLES_HEADER = [
    "round", "agent_id", "role", "streak", "cumulative_sacrifices", "credited_reward"
]


def _roles_table(episode) -> _ArrayTable:
    """Rows of _ROLES_HEADER, from the episode's (rounds, n_agents, 3)
    state log; each agent's ledger credit lands on the final round."""
    rounds, n_agents, _ = episode.states.shape
    sacrifice, streak, sacrifices = episode.states.reshape(-1, 3).T
    credited = np.zeros(rounds * n_agents)
    credited[-n_agents:] = [rec.credited_reward for rec in episode.ledger.records]
    return _ArrayTable(
        np.repeat(np.arange(rounds), n_agents),
        np.tile(np.arange(n_agents), rounds),
        np.array([PRIMARY, SACRIFICE])[sacrifice],
        streak,
        sacrifices,
        credited,
    )


def _run_roles(top, seed, problems):
    blocks = {key: top.pop(key) for key in ("switch", "mfg", "solver")}
    # switch and mfg defaults depend on the resolved sizes and cohort, so the
    # environment is checked first with its own defaults, less the default
    # midpoint C(n_agents - 1, cohort) (it may not fit a float) when the
    # switch block names one
    if "streak_midpoint" in blocks["switch"]:
        top["switch"] = SwitchPolicy(switch_mode(top["assignment"]))
    env = _construct(IntersectionConfig, "config", problems, seed=seed, **top)
    _finish_validation(problems)
    switch = _switch(blocks["switch"], env, env.cohort, problems)
    sizes = {"n_agents": env.n_agents, "threshold": env.threshold}
    params = _build(MfgParams, {**sizes, **blocks["mfg"]}, "config.mfg", problems)
    _finish_validation(problems)
    config = _construct(replace, "config", problems, env, switch=switch, params=params)
    _finish_validation(problems)
    # without a policy the episode reads only the sizes and the rewards
    policy, solve_summary = _equilibrium_policy(
        config.assignment == "policy", params, blocks["solver"], problems, "config.mfg",
        ("n_agents", "threshold", "reward_mode", "reward_table", "smoothing", "reward_offset"),
        "when assignment is 'policy'")
    episode = intersection_episode(config, policy=policy)
    resolved = {**asdict(config), "solver": blocks["solver"]}
    resolved["mfg"] = resolved.pop("params")
    passed = episode.rounds <= config.threshold
    summary = {
        "rounds": config.rounds,
        "passed_rounds": int(np.count_nonzero(passed)),
        "mover_count_gap": episode.fairness.sacrifice_gap,
        "credited_spread": episode.fairness.credited_spread,
        "solve": solve_summary,
    }
    rounds = _ArrayTable(np.arange(config.rounds), episode.rounds, passed)
    return resolved, summary, {
        "roles.csv": (_ROLES_HEADER, _roles_table(episode)),
        "rounds.csv": (["round", "n_moved", "passed"], rounds),
    }


def _run_dungeon(top, seed, problems):
    raw_switch = top.pop("switch")
    # the switch default depends on n_agents, so the environment is checked first
    env = _construct(DungeonConfig, "config", problems, seed=seed, **top)
    _finish_validation(problems)
    config = replace(env, switch=_switch(raw_switch, env, 1, problems))
    _finish_validation(problems)
    result = run_dungeon(config)
    sac_counts = {rec.agent_id: rec.times_sacrifice for rec in result.ledger.records}
    summary = {
        "rounds": config.rounds,
        "sacrifice_counts": sac_counts,
        "sacrifice_gap": result.fairness.sacrifice_gap,
        "credited_spread": result.fairness.credited_spread,
    }
    rounds = _ArrayTable(np.arange(config.rounds), result.rounds)
    return asdict(config), summary, {
        "roles.csv": (_ROLES_HEADER, _roles_table(result)),
        "rounds.csv": (["round", "sacrificer"], rounds),
    }


_IPD_KEYS = {"payoff": (PayoffMatrix, MISSING), "players": (list, MISSING), **_schema(MatchConfig)}
_SOLVER_KEY = {"solver": (_SOLVER, _SOLVER_DEFAULTS)}
# Each kind's runner and its top-level keys besides experiment, seed and
# out_dir. A block typed dict is read by the runner, against defaults it has
# to work out; a block typed by a schema dict is read with the config.
_KINDS = {
    "ipd_match": (_run_ipd_match, _IPD_KEYS),
    "ipd_tournament": (_run_ipd_tournament, _IPD_KEYS),
    "delta_scan": (_run_delta_scan, {"payoff": (PayoffMatrix, MISSING), "grid": (dict, MISSING)}),
    "mfg_solve": (_run_mfg_solve, {"params": (MfgParams, MISSING), **_SOLVER_KEY}),
    "mfg_simulate": (_run_mfg_simulate, {"params": (MfgParams, MISSING), **_SOLVER_KEY,
                                         "episodes": (int, MISSING),
                                         "policy": (str, "equilibrium")}),
    "roles_run": (_run_roles, {**_schema(IntersectionConfig, skip=("params", "switch", "seed")),
                               "switch": (dict, {}), "mfg": (dict, {}), **_SOLVER_KEY}),
    "dungeon": (_run_dungeon, {**_schema(DungeonConfig, skip=("seed",)), "switch": (dict, {})}),
}
EXPERIMENT_KINDS = tuple(_KINDS)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunArtifacts:
    out_dir: Path
    csv_files: tuple[str, ...]
    manifest_path: Path
    report_path: Path
    summary: dict


_COMMON = {"seed": (int, 0), "out_dir": (str | None, None)}


def _read_config(config) -> tuple[str, dict]:
    """The experiment kind and the checked top-level values of a config."""
    if not isinstance(config, dict):
        raise ConfigError(["config: expected a JSON object"])
    kind = config.get("experiment")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            [f"config.experiment: must be one of {list(EXPERIMENT_KINDS)}, got {kind!r}"]
        )
    problems: list[str] = []
    rest = {key: value for key, value in config.items() if key != "experiment"}
    top = _read(rest, {**_COMMON, **_KINDS[kind][1]}, "config", problems)
    if top is not None and not 0 <= top["seed"] < 2**64:
        problems.append("config.seed: must be >= 0 and < 2**64")
    _finish_validation(problems)
    return kind, top


def run(config: dict, out_dir=None) -> RunArtifacts:
    """Validate and execute one experiment config, then write all artifacts."""
    kind, top = _read_config(config)
    seed, configured_out = top.pop("seed"), top.pop("out_dir")
    resolved, summary, tables = _KINDS[kind][0](top, seed, [])
    manifest = {
        "config": {"experiment": kind, "seed": seed, **resolved},
        "version": __version__,
        "outputs": sorted(tables),
        "summary": summary,
    }
    try:
        manifest_text = json.dumps(manifest, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalIntegrityError(f"manifest: {exc}") from exc
    # rendered from the written text, as `regenerate_report` renders it
    report_text = render_report(json.loads(manifest_text))
    out = Path(out_dir if out_dir is not None else configured_out or f"runs/{kind}")
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        write_csv(out / name, header, rows)
    manifest_path, report_path = out / "manifest.json", out / "report.md"
    _publish(manifest_path, [manifest_text + "\n"])
    _publish(report_path, [report_text])
    return RunArtifacts(out, tuple(sorted(tables)), manifest_path, report_path, summary)


def load_config(path) -> dict:
    """The JSON object in a config or manifest file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError([f"{path}: cannot read ({exc.strerror})"]) from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, or not JSON
        raise ConfigError([f"{path}: invalid JSON ({exc})"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top level must be an object"])
    return raw


_MANIFEST = {"config": dict, "outputs": tuple[str, ...], "summary": dict, "version": str}


def _load_manifest(path) -> dict:
    """The manifest at `path`, its top-level keys checked."""
    problems: list[str] = []
    schema = {key: (tp, MISSING) for key, tp in _MANIFEST.items()}
    manifest = _read(load_config(path), schema, str(path), problems)
    _finish_validation(problems)
    return manifest


def run_from_manifest(manifest_path, out_dir=None) -> RunArtifacts:
    """Re-execute the fully resolved config stored in a manifest."""
    return run(_load_manifest(manifest_path)["config"], out_dir=out_dir)


def regenerate_report(run_dir) -> Path:
    """Rebuild report.md from the manifest in an existing run directory."""
    run_dir = Path(run_dir)
    manifest_path = run_dir if run_dir.name == "manifest.json" else run_dir / "manifest.json"
    report_path = manifest_path.parent / "report.md"
    manifest = _load_manifest(manifest_path)
    _read_config(manifest["config"])  # its config checked as `run` checks it
    _publish(report_path, [render_report(manifest)])
    return report_path


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def render_report(manifest: dict) -> str:
    config = manifest["config"]
    summary = manifest["summary"]
    kind = config["experiment"]
    lines = [
        f"# {kind} report",
        "",
        f"- version: {manifest['version']}",
        f"- seed: {config.get('seed', 0)}",
        f"- outputs: {', '.join(manifest['outputs'])}",
        "",
    ]
    if kind in ("ipd_match", "ipd_tournament", "delta_scan"):
        payoff = config["payoff"]
        lines += [
            "## payoff matrix",
            "",
            "| temptation | reward | punishment | sucker |",
            "|---|---|---|---|",
            "| {temptation} | {reward} | {punishment} | {sucker} |".format(
                **{k: _fmt(v) for k, v in payoff.items()}
            ),
            "",
        ]
    lines += ["## summary", "", "| quantity | value |", "|---|---|"]
    for key in sorted(summary):
        lines.append(f"| {key} | {_fmt(summary[key])} |")
    lines.append("")
    if kind == "delta_scan":
        lines += [
            "The solved threshold comes from bisecting the sign of stick - "
            "deviate; the quoted threshold is the commonly quoted closed form "
            "(P - S)/(T - R). They are reported side by side because they "
            "disagree whenever T - R differs from T - P.",
            "",
        ]
    return "\n".join(lines)
