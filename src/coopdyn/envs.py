"""Round-based environments binding rotation scheduling to concrete payoffs.

Two abstract settings: a dungeon where one agent per round sacrifices
itself so the others escape, and a threshold intersection where up to
`threshold` movers pass per round. Each config resolves its own defaults
when it is built. An episode logs one number per round (the sacrificer,
the mover count) and every agent's role state after it, the only record
of roles. Each round's group outcome is paid into a rotation ledger, split
among that round's sacrificing side, as the round ends; the ledger is the
only record of credit, and its fairness is tallied into an `EpisodeResult`.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np

from .errors import ValidationError, _check_count, _check_finite_fields, _check_unread
from .mfg import MOVE, MfgParams, _check_policy, initial_distribution_array, reward_array
from .roles import (
    PRIMARY,
    SACRIFICE,
    FairnessStats,
    RotationLedger,
    SwitchPolicy,
    _checked_ids,
    default_switch,
    delayed_credit,
    deterministic_assign,
    fairness_report,
    rotation_priority,
    stochastic_selection,
)


def _check_episode(config) -> None:
    """An episode's rounds and seed must be counts, and its (rounds,
    n_agents, 3) int64 state log an array numpy can describe; the log is
    allocated whole before round 0."""
    _check_count("rounds", config.rounds, 1)
    _check_count("seed", config.seed, 0)
    if 24 * config.rounds * config.n_agents > np.iinfo(np.intp).max:
        raise ValidationError("rounds, n_agents: a rounds x n_agents x 3 int64 state log "
                              "is larger than numpy's size limit")


# ---------------------------------------------------------------------------
# dungeon
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DungeonConfig:
    """One sacrificer per round enables n_agents - 1 escapes, each worth
    success_reward to it, credited as the round ends. An unset switch is
    roles.default_switch's deterministic rotation."""

    rounds: int
    n_agents: int = 3
    success_reward: float = 1.0
    switch: SwitchPolicy | None = None
    seed: int = 0

    def __post_init__(self):
        _check_finite_fields(self)
        _check_count("n_agents", self.n_agents, 2)
        _check_episode(self)
        if self.switch is None:
            object.__setattr__(
                self, "switch", default_switch(self.n_agents, 1, "deterministic_window")
            )


@dataclass(frozen=True)
class EpisodeResult:
    """One episode of either environment: one int64 per round (the
    dungeon's sacrificer id, the intersection's mover count), each agent's
    state after each round, the ledger after the last round (holding each
    agent's credit) and its fairness tally. `states[r, agent]` holds
    whether the agent was in the sacrifice role, its streak and its
    sacrifices so far."""

    rounds: np.ndarray
    states: np.ndarray
    ledger: RotationLedger
    fairness: FairnessStats


def _log_states(states: np.ndarray, round_index: int, ledger: RotationLedger) -> None:
    """Fill `states[round_index]` from the ledger's records, a column at a
    time (numpy converts three int lists faster than n_agents tuples)."""
    records, state = ledger.records, states[round_index]
    state[:, 0] = [rec.role == SACRIFICE for rec in records]
    state[:, 1] = [rec.streak for rec in records]
    state[:, 2] = [rec.times_sacrifice for rec in records]


def run_dungeon(config: DungeonConfig) -> EpisodeResult:
    """Play the dungeon for the configured rounds.

    Deterministic mode rotates the sacrifice to the least-served agent;
    stochastic mode draws volunteers by streak-keyed sigmoid flips, then
    resolves to exactly one sacrificer with the deterministic priority so
    a round can never fail for lack of a volunteer.
    """
    ledger = RotationLedger(config.n_agents)
    rng = random.Random(config.seed)
    stochastic = config.switch.mode == "stochastic_sigmoid"
    if stochastic:
        ledger.initialize_roles({0})
    sacrificers = np.zeros(config.rounds, dtype=np.int64)
    states = np.zeros((config.rounds, config.n_agents, 3), dtype=np.int64)
    escapes_value = config.success_reward * (config.n_agents - 1)
    for round_index in range(config.rounds):
        if stochastic:
            volunteers = stochastic_selection(ledger, config.switch, rng)
            pool = [ledger.records[a] for a in sorted(volunteers)] or ledger.records
            chosen = min(pool, key=lambda rec: rotation_priority(rec, SACRIFICE))
            assignment = ledger.record_round({chosen.agent_id})
        else:
            assignment = deterministic_assign(ledger, 1)
        (sacrificers[round_index],) = assignment.sacrificers
        _log_states(states, round_index, ledger)
        ledger.apply_credits(delayed_credit(assignment, escapes_value))
    return EpisodeResult(sacrificers, states, ledger, fairness_report(ledger))


# ---------------------------------------------------------------------------
# intersection
# ---------------------------------------------------------------------------

ASSIGNMENT_MODES = ("static", "rotation", "stochastic", "policy")


def switch_mode(assignment: str) -> str:
    """The switch mode an intersection assignment runs with."""
    return "stochastic_sigmoid" if assignment == "stochastic" else "deterministic_window"


@dataclass(frozen=True)
class IntersectionConfig:
    """Per round, a mover set forms; if its size stays within the threshold
    all movers pass, otherwise nobody does. Rewards are evaluated at the
    realized mover count. Unset, cohort is the threshold, params are
    MfgParams' defaults at these sizes, and switch is roles.default_switch's
    for the assignment's mode."""

    n_agents: int
    threshold: int
    rounds: int
    cohort: int | None = None
    assignment: str = "rotation"
    params: MfgParams | None = None
    switch: SwitchPolicy | None = None
    static_movers: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        _check_count("n_agents", self.n_agents, 2)
        _check_count("threshold", self.threshold, 1, self.n_agents)
        _check_episode(self)
        if self.assignment not in ASSIGNMENT_MODES:
            raise ValidationError(
                f"assignment must be one of {ASSIGNMENT_MODES}, got {self.assignment!r}"
            )
        if self.cohort is None:
            object.__setattr__(self, "cohort", self.threshold)
        _check_count("cohort", self.cohort, 1, self.n_agents)
        if self.params is None:
            object.__setattr__(
                self, "params", MfgParams(n_agents=self.n_agents, threshold=self.threshold)
            )
        if self.params.n_agents != self.n_agents:
            raise ValidationError("params.n_agents must match the environment")
        if self.params.threshold != self.threshold:
            raise ValidationError("params.threshold must match the environment")
        mode = switch_mode(self.assignment)
        if self.switch is None:
            object.__setattr__(
                self, "switch", default_switch(self.n_agents, self.cohort, mode)
            )
        if self.switch.mode != mode:
            raise ValidationError(
                "switch mode must be 'stochastic_sigmoid' exactly when assignment is 'stochastic'"
            )
        if self.assignment != "static":
            _check_unread({"static_movers": self.static_movers}, vars(IntersectionConfig),
                          "when assignment is 'static'")
        if self.assignment == "policy" or self.static_movers is not None:
            _check_unread({"cohort": self.cohort}, {"cohort": self.threshold},
                          "when neither a policy nor static_movers picks the movers")
        if self.static_movers is not None:
            ids = _checked_ids("static_movers id", self.static_movers, self.n_agents)
            if len(ids) != len(self.static_movers):
                raise ValidationError("static_movers ids must be distinct")


def _sample_categorical(rng: random.Random, probs) -> int:
    """The first state whose running sum of `probs` exceeds a uniform draw, else the last."""
    cumulative = list(accumulate(probs))
    return min(bisect_right(cumulative, rng.random()), len(cumulative) - 1)


def intersection_episode(config: IntersectionConfig, policy=None) -> EpisodeResult:
    """Run one intersection episode under the configured mover source.

    static keeps one mover set forever (the stagnation case); rotation and
    stochastic rotate it through the ledger, stochastic by the config's
    switch; policy samples each agent's action from a solved policy table,
    checked as mfg checks a policy, given the previous realized count. When
    a round passes, the movers' combined haul is credited to that round's
    waiters in equal shares.
    """
    params = config.params
    ledger = RotationLedger(config.n_agents, rotated_role=PRIMARY)
    rng = random.Random(config.seed)
    if config.assignment == "stochastic":
        ledger.initialize_roles(set(range(config.cohort)))
    if config.assignment == "policy":
        if policy is None:
            raise ValidationError("policy assignment needs a policy table")
        policy = _check_policy(policy, params)
        state = _sample_categorical(rng, initial_distribution_array(params))
    statics = (
        frozenset(config.static_movers)
        if config.static_movers is not None
        else frozenset(range(config.cohort))
    )
    move_rewards = reward_array(params)[:, MOVE].tolist()
    moved = np.zeros(config.rounds, dtype=np.int64)
    states = np.zeros((config.rounds, config.n_agents, 3), dtype=np.int64)
    for round_index in range(config.rounds):
        if config.assignment == "static":
            assignment = ledger.record_round(statics)
        elif config.assignment == "rotation":
            assignment = deterministic_assign(ledger, config.cohort)
        elif config.assignment == "stochastic":
            assignment = ledger.record_round(stochastic_selection(ledger, config.switch, rng))
        else:
            t = min(round_index, params.horizon - 1)
            movers = {
                agent
                for agent in range(config.n_agents)
                if rng.random() < policy[t, state, MOVE]
            }
            assignment = ledger.record_round(movers)
        n_moved = config.n_agents - len(assignment.sacrificers)
        # policy mode draws the next round's movers given this count
        moved[round_index] = state = n_moved
        _log_states(states, round_index, ledger)
        if n_moved <= config.threshold and assignment.sacrificers:
            # the movers' combined reward at the realized count, summed one
            # mover at a time (n * reward can round differently)
            haul = sum(repeat(move_rewards[n_moved], n_moved))
            ledger.apply_credits(delayed_credit(assignment, haul))
    return EpisodeResult(moved, states, ledger, fairness_report(ledger))
