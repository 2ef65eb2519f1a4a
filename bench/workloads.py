"""The benchmark's workloads: coopdyn configs generated from a workload seed,
and the checks their outputs must pass.

Sizes are fixed; the seed only picks run seeds and thresholds inside fixed
ranges, so one seed always yields the same configs and every seed yields
the same amount of work. This module imports nothing from coopdyn, so the
parent process can read a workload's run count without loading the program.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Every flow row and policy row is a probability vector and must sum to 1
# within ROW_SUM_TOL. The CSVs keep 12 significant digits, which alone moves
# a row sum by up to half a unit in the 12th digit of each cell (1.6e-12 is
# seen at N=20), so that rounding allowance is added to the tolerance.
ROW_SUM_TOL = 1e-12
THRESHOLD_TOL = 1e-9

SOLVE_PARAMS = {
    "discount": 0.9,
    "temperature": 0.2,
    "horizon": 30,
    "reward_mode": "table",
}
SOLVER = {"tol": 1e-8, "max_iter": 500, "damping": 0.5}
IPD_PAYOFF = {"temptation": 5, "reward": 2, "punishment": 1, "sucker": 0}
TOURNAMENT_ENTRANTS = (
    "alternator",
    "all_c",
    "all_d",
    "tit_for_tat",
    "grim_trigger",
    "win_stay_lose_shift",
)


@dataclass(frozen=True)
class Run:
    """One `coopdyn <command>` invocation: a generated config, or a config
    shipped under configs/ (`shipped`) run with a `--seed` override."""

    name: str
    command: str
    config: dict | None = None
    shipped: str | None = None
    seed: int = 0


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


def _mfg_solve(rng, name, n_agents, threshold) -> Run:
    params = dict(SOLVE_PARAMS, n_agents=n_agents, threshold=threshold)
    config = {"experiment": "mfg_solve", "seed": _seed(rng), "params": params, "solver": SOLVER}
    return Run(name, "mfg-solve", config)


def mfg_large(rng: random.Random) -> list[Run]:
    n = 1000
    return [_mfg_solve(rng, "solve_n1000", n, rng.randint(35 * n // 100, 45 * n // 100))]


def population(rng: random.Random) -> list[Run]:
    n = 200
    params = dict(SOLVE_PARAMS, n_agents=n, threshold=rng.randint(35 * n // 100, 45 * n // 100))
    config = {
        "experiment": "mfg_simulate",
        "seed": _seed(rng),
        "params": params,
        "episodes": 10_000,
        "policy": "equilibrium",
        "solver": SOLVER,
    }
    return [Run("simulate_n200", "mfg-simulate", config)]


def mixed_runs(rng: random.Random) -> list[Run]:
    runs = [_mfg_solve(rng, f"solve_n20_k{k}", 20, k) for k in range(4, 14)]
    players = [{"kind": kind} for kind in TOURNAMENT_ENTRANTS]
    runs.append(Run("tournament", "ipd-tournament", {
        "experiment": "ipd_tournament", "seed": _seed(rng), "payoff": IPD_PAYOFF,
        "horizon": 1000, "discount": 0.95, "players": players,
    }))
    runs.append(Run("alternator_match", "ipd-match", {
        "experiment": "ipd_match", "seed": _seed(rng), "payoff": IPD_PAYOFF,
        "horizon": 2000, "discount": 0.9,
        "players": [{"kind": "alternator"}, {"kind": "alternator"}],
    }))
    payoff = {"temptation": 4.5 + rng.random(), "reward": 3, "punishment": 1, "sucker": 0}
    runs.append(Run("delta_scan", "delta-scan", {
        "experiment": "delta_scan", "seed": _seed(rng), "payoff": payoff,
        "grid": {"start": 0.0, "stop": 0.9999, "step": 1e-4},
    }))
    for assignment in ("rotation", "stochastic"):
        threshold = rng.randint(14, 18)
        config = {
            "experiment": "roles_run", "seed": _seed(rng), "n_agents": 40,
            "threshold": threshold, "rounds": 1000, "cohort": threshold,
            "assignment": assignment,
        }
        if assignment == "stochastic":
            config["switch"] = {
                "mode": "stochastic_sigmoid", "streak_midpoint": 10, "streak_scale": 1.0,
            }
        runs.append(Run(f"roles_{assignment}", "roles-run", config))
    runs.append(Run("dungeon", "dungeon", {
        "experiment": "dungeon", "seed": _seed(rng), "n_agents": 3, "rounds": 3000,
    }))
    runs.append(Run("shipped_mfg_simulate", "mfg-simulate",
                    shipped="configs/mfg_simulate.json", seed=_seed(rng)))
    return runs


WORKLOADS = {"mfg_large": mfg_large, "population": population, "mixed_runs": mixed_runs}


def build(workload: str, seed: int) -> list[Run]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def argv(run: Run, config_dir: Path, out_dir: Path, root: Path) -> list[str]:
    """Write the run's config (if generated) and return its CLI argv."""
    if run.config is not None:
        path = config_dir / f"{run.name}.json"
        path.write_text(json.dumps(run.config), encoding="utf-8")
        extra = []
    else:
        path = root / run.shipped
        extra = ["--seed", str(run.seed)]
    return [run.command, "--config", str(path), "--out", str(out_dir / run.name), *extra]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _rows_sum_to_one(matrix: np.ndarray) -> bool:
    magnitude = np.floor(np.log10(np.abs(matrix), where=matrix != 0, out=np.zeros_like(matrix)))
    rounding = np.where(matrix != 0, 0.5 * 10.0 ** (magnitude - 11), 0.0).sum(axis=1)
    return bool(np.all(np.abs(matrix.sum(axis=1) - 1.0) <= ROW_SUM_TOL + rounding))


def check(out: Path) -> list[str]:
    """Problems found in one finished run's artifacts; empty when it passed."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    config, summary = manifest["config"], manifest["summary"]
    kind = config["experiment"]
    problems = []
    if kind == "mfg_solve":
        tol = config["solver"]["tol"]
        if not (summary["converged"] and summary["final_policy_residual"] < tol
                and summary["final_dist_residual"] < tol):
            problems.append("solver did not converge below tol")
        policy = np.loadtxt(out / "policy.csv", delimiter=",", skiprows=1, ndmin=2)
        if not _rows_sum_to_one(policy[:, 2:4]):
            problems.append("a policy row does not sum to 1")
        flow = np.loadtxt(out / "flow.csv", delimiter=",", skiprows=1, ndmin=2)
        n_states = config["params"]["n_agents"] + 1
        if not _rows_sum_to_one(flow[:, 2].reshape(-1, n_states)):
            problems.append("a flow row does not sum to 1")
    elif kind == "mfg_simulate":
        if summary["solve"] is not None and not summary["solve"]["converged"]:
            problems.append("equilibrium solve did not converge")
    elif kind == "delta_scan":
        p = config["payoff"]
        expected = (p["punishment"] - p["sucker"]) / (p["temptation"] - p["punishment"])
        if abs(summary["solved_threshold"] - expected) > THRESHOLD_TOL:
            problems.append(f"solved threshold {summary['solved_threshold']} != {expected}")
    elif kind == "roles_run" and config["assignment"] == "rotation":
        if summary["mover_count_gap"] > 1:
            problems.append(f"mover_count_gap {summary['mover_count_gap']} > 1")
    return problems


def digest(out: Path) -> str:
    """SHA-256 over the CSVs of one run, in file-name order."""
    sha = hashlib.sha256()
    for csv in sorted(out.glob("*.csv")):
        sha.update(f"{csv.name}\n".encode())
        sha.update(csv.read_bytes())
    return sha.hexdigest()


def combined_digest(digests: dict[str, str]) -> str:
    """One SHA-256 for a whole pass, from its per-run digests in run order."""
    return hashlib.sha256("".join(f"{k}:{v}\n" for k, v in digests.items()).encode()).hexdigest()
