"""Role rotation with fairness bookkeeping.

A round-based scheduler hands the scarce role (the dungeon sacrificer, the
intersection mover cohort) to k agents per round. Deterministic mode picks
the least-served agents, so from a fresh ledger the role goes round the
agents in id order, k at a time; stochastic mode lets every agent flip
roles independently with a sigmoid probability of its streak length. A
round's `RoleAssignment` names its sacrifice-role agents; the rest are
primary.
Each round's group outcome, produced by that round's sacrificing side, is
credited back to it in equal shares as the round ends (delayed credit);
the ledger's `credited_reward` is the only record of that credit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Iterable

from .errors import ValidationError, _check_count, _check_finite_fields
from .errors import _check_number, _check_unread

SACRIFICE = "sacrifice"
PRIMARY = "primary"


@dataclass
class AgentRecord:
    """Per-agent rotation memory.

    `streak` counts consecutive earlier rounds spent in the current role
    and resets to 0 whenever the role changes.
    """

    agent_id: int
    streak: int = 0
    times_sacrifice: int = 0
    credited_reward: float = 0.0
    last_selected_round: int | None = None
    role: str | None = None


@dataclass(frozen=True)
class RoleAssignment:
    sacrificers: frozenset[int]


class RotationLedger:
    """Single-writer rotation state for one environment instance.

    `rotated_role` names the role the scheduler's selected set receives:
    "sacrifice" for dungeon-style selection of who gives itself up,
    "primary" for intersection-style selection of who gets to move.
    """

    def __init__(self, n_agents: int, rotated_role: str = SACRIFICE):
        _check_count("n_agents", n_agents, 1)
        if rotated_role not in (SACRIFICE, PRIMARY):
            raise ValidationError(
                f"rotated_role must be {SACRIFICE!r} or {PRIMARY!r}"
            )
        self.n_agents = n_agents
        self.rotated_role = rotated_role
        self.records = [AgentRecord(agent_id=i) for i in range(n_agents)]
        self.rounds_completed = 0

    def initialize_roles(self, selected: Iterable[int]) -> None:
        """Seed current roles without consuming a round (stochastic mode
        needs a starting assignment to flip from)."""
        selected = _checked_ids("agent id", selected, self.n_agents)
        other = PRIMARY if self.rotated_role == SACRIFICE else SACRIFICE
        for record in self.records:
            record.role = self.rotated_role if record.agent_id in selected else other
            record.streak = 0

    def record_round(self, selected: Iterable[int]) -> RoleAssignment:
        """Commit one round's selection and update all per-agent memory."""
        selected = _checked_ids("agent id", selected, self.n_agents)
        other = PRIMARY if self.rotated_role == SACRIFICE else SACRIFICE
        for record in self.records:
            now_selected = record.agent_id in selected
            role_now = self.rotated_role if now_selected else other
            record.streak = record.streak + 1 if record.role == role_now else 0
            record.role = role_now
            if role_now == SACRIFICE:
                record.times_sacrifice += 1
            if now_selected:
                record.last_selected_round = self.rounds_completed
        self.rounds_completed += 1
        if self.rotated_role == SACRIFICE:
            return RoleAssignment(selected)
        return RoleAssignment(frozenset(range(self.n_agents)) - selected)

    def apply_credits(self, credits: dict[int, float]) -> None:
        """Add each agent's credited amount to its record."""
        _checked_ids("agent id", credits, self.n_agents)
        for agent_id, amount in credits.items():
            self.records[agent_id].credited_reward += amount


def _checked_ids(name: str, ids: Iterable[int], n_agents: int) -> frozenset[int]:
    """The distinct ids in `ids`, each an int in [0, n_agents)."""
    ids = frozenset(ids)
    for i in ids:
        _check_count(name, i, 0, n_agents)
    return ids


def rotation_priority(record: AgentRecord, rotated_role: str):
    """Sort key for who serves next: fewest times served, then longest
    since last serving, then lowest id.

    A ledger's records have all played the same rounds, so the fewest
    primary rounds are the most sacrifices.
    """
    served = record.times_sacrifice if rotated_role == SACRIFICE else -record.times_sacrifice
    last = record.last_selected_round
    return (served, -1 if last is None else last, record.agent_id)


def deterministic_assign(ledger: RotationLedger, k: int) -> RoleAssignment:
    """Hand the rotated role to the k least-served agents: fewest times
    served, then longest since last serving, then lowest id.

    From a fresh ledger this is the cycle 0..n-1, k agents a round, so no
    agent serves again before every other agent has served once.
    """
    _check_count("cohort", k, 1, ledger.n_agents)
    chosen = sorted(
        ledger.records, key=lambda rec: rotation_priority(rec, ledger.rotated_role)
    )[:k]
    return ledger.record_round({rec.agent_id for rec in chosen})


@dataclass(frozen=True)
class SwitchPolicy:
    """How roles rotate: deterministic least-served rotation (the mode keeps
    its historical name `deterministic_window`), or stochastic sigmoid
    switching with midpoint `streak_midpoint` and scale `streak_scale`.
    Deterministic mode reads neither, so both keep their defaults there and
    an unset (None) midpoint records as 1.0. `resolve_switch` sets an unset
    stochastic midpoint, as each environment config does when built."""

    mode: str = "deterministic_window"
    streak_midpoint: float | None = None
    streak_scale: float = 1.0

    def __post_init__(self):
        if self.streak_midpoint is not None:
            _check_number("streak_midpoint", self.streak_midpoint)
        _check_finite_fields(self)
        if self.mode not in ("deterministic_window", "stochastic_sigmoid"):
            raise ValidationError(
                "mode must be 'deterministic_window' or 'stochastic_sigmoid'"
            )
        if self.mode == "deterministic_window":
            if self.streak_midpoint is None:
                object.__setattr__(self, "streak_midpoint", 1.0)
            defaults = {"streak_midpoint": 1.0, "streak_scale": 1.0}
            _check_unread({key: getattr(self, key) for key in defaults}, defaults,
                          "in stochastic_sigmoid mode")
        if self.streak_midpoint is not None and self.streak_midpoint < 1:
            raise ValidationError("streak_midpoint must be >= 1")
        if not self.streak_scale > 0:
            raise ValidationError("streak_scale must be positive")


def resolve_switch(policy: SwitchPolicy, n_agents: int, cohort: int) -> SwitchPolicy:
    """`policy` with an unset midpoint set to C(n_agents-1, cohort), the
    number of possible cohorts among the other agents; a policy whose
    midpoint is set, as every deterministic one is, comes back as it is."""
    if policy.streak_midpoint is not None:
        return policy
    _check_number("n_agents", n_agents)
    _check_count("cohort", cohort, 1, n_agents)
    try:
        # log C refuses a huge count before the slow exact one; lgamma errs far below 1
        log_count = math.lgamma(n_agents) - math.lgamma(cohort + 1) - math.lgamma(n_agents - cohort)
        if log_count > math.log(sys.float_info.max) + 1.0:
            raise OverflowError
        midpoint = float(math.comb(n_agents - 1, cohort))
    except OverflowError:
        raise ValidationError(
            f"streak_midpoint: C({n_agents - 1}, {cohort}) is beyond the float range"
        ) from None
    return replace(policy, streak_midpoint=midpoint)


def sigmoid_switch_probability(streak: int, policy: SwitchPolicy) -> float:
    """Probability of abandoning the current role after `streak` rounds."""
    if policy.mode != "stochastic_sigmoid":
        raise ValidationError("switch probability requires stochastic_sigmoid mode")
    if policy.streak_midpoint is None:
        raise ValidationError("streak_midpoint is unset; set it or resolve it with resolve_switch")
    _check_count("streak", streak, 0)
    try:
        x = (streak - policy.streak_midpoint) / policy.streak_scale
    except OverflowError:
        raise ValidationError("streak is beyond the float range") from None
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def stochastic_selection(ledger: RotationLedger, policy: SwitchPolicy, rng) -> set[int]:
    """Draw the next rotated-role holders without recording the round:
    every agent independently flips roles with its streak-keyed sigmoid
    probability. The result may have any size."""
    if policy.mode != "stochastic_sigmoid":
        raise ValidationError("stochastic selection requires stochastic_sigmoid mode")
    if any(record.role is None for record in ledger.records):
        raise ValidationError("roles are uninitialized; call initialize_roles first")
    selected = set()
    for record in ledger.records:
        flip = rng.random() < sigmoid_switch_probability(record.streak, policy)
        holds_rotated = record.role == ledger.rotated_role
        if holds_rotated != flip:
            selected.add(record.agent_id)
    return selected


def stochastic_assign(ledger: RotationLedger, policy: SwitchPolicy, rng) -> RoleAssignment:
    """Commit one stochastically drawn round."""
    return ledger.record_round(stochastic_selection(ledger, policy, rng))


def delayed_credit(assignment: RoleAssignment, group_outcome: float) -> dict[int, float]:
    """Split a round's group outcome evenly among its sacrifice-role agents."""
    sacrificers = sorted(assignment.sacrificers)
    return {agent: group_outcome / len(sacrificers) for agent in sacrificers}


@dataclass(frozen=True)
class FairnessStats:
    sacrifice_gap: int
    credited_spread: float


def fairness_report(ledger: RotationLedger) -> FairnessStats:
    """The sacrifice-count gap and credited-reward dispersion across all
    agents. Every round gives each agent exactly one role, so the
    primary-count gap is the sacrifice-count gap."""
    if ledger.rounds_completed < 1:
        raise ValidationError("fairness report needs at least one completed round")
    records = ledger.records
    sacrifice = [rec.times_sacrifice for rec in records]
    credited = [rec.credited_reward for rec in records]
    return FairnessStats(
        sacrifice_gap=max(sacrifice) - min(sacrifice),
        credited_spread=max(credited) - min(credited),
    )
