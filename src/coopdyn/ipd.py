"""Two-player iterated prisoner's dilemma.

Covers payoff-regime classification, the classic memory-one strategies
(one table of first moves and responses), a turn-taking Alternator that
trades the temptation payoff back and forth, and the discount-factor
analysis deciding when sticking to the alternating agreement beats grabbing
the temptation payoff and eating punishment forever after.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Sequence

from .errors import ValidationError, _check_count, _check_discount, _check_finite_fields


class ActionPD(IntEnum):
    """Binary action; Cooperate sorts before Defect."""

    COOPERATE = 0
    DEFECT = 1


COOPERATE = ActionPD.COOPERATE
DEFECT = ActionPD.DEFECT


def _is_action(value) -> bool:
    """An ActionPD member or a plain int 0 or 1; bools and floats are not
    actions, although True == 1 and 1.0 == 1 hold."""
    return isinstance(value, int) and not isinstance(value, bool) and value in (0, 1)


class Regime(Enum):
    CLASSIC = "classic"
    ALTERNATION_FAVORING = "alternation_favoring"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class PayoffMatrix:
    """Symmetric 2x2 payoffs: temptation, reward, punishment, sucker.

    Construction requires the strict ordering T > R > P > S.
    """

    temptation: float
    reward: float
    punishment: float
    sucker: float

    def __post_init__(self):
        _check_finite_fields(self)
        checks = (
            ("temptation > reward", self.temptation, self.reward),
            ("reward > punishment", self.reward, self.punishment),
            ("punishment > sucker", self.punishment, self.sucker),
        )
        for label, hi, lo in checks:
            if not hi > lo:
                raise ValidationError(
                    f"payoff ordering violated: {label} fails ({hi!r} <= {lo!r})"
                )
        t, r, p, s = self.temptation, self.reward, self.punishment, self.sucker
        # Keyed by the actions' int values, so plain 0/1 read like the enum;
        # kept out of the dataclass fields, which the run manifest records.
        table = {(COOPERATE, COOPERATE): (r, r), (COOPERATE, DEFECT): (s, t),
                 (DEFECT, COOPERATE): (t, s), (DEFECT, DEFECT): (p, p)}
        object.__setattr__(self, "_table", table)

    def regime(self) -> Regime:
        """Classify by the sign of 2R - (T + S)."""
        gap = 2.0 * self.reward - (self.temptation + self.sucker)
        if gap > 0.0:
            return Regime.CLASSIC
        if gap < 0.0:
            return Regime.ALTERNATION_FAVORING
        return Regime.BOUNDARY

    def payoffs(self, mine: ActionPD, theirs: ActionPD) -> tuple[float, float]:
        """Payoff pair (mine, theirs) for one round; actions are 0 or 1."""
        if not (_is_action(mine) and _is_action(theirs)):
            raise ValidationError(
                f"actions must be 0 (cooperate) or 1 (defect), got {mine!r}, {theirs!r}"
            )
        return self._table[mine, theirs]


def stick_payoff(temptation: float, sucker: float, delta: float) -> float:
    """Discounted value of the alternating stream T, S*d, T*d^2, S*d^3, ...

    Closed form (T + S*d)/(1 - d^2).
    """
    _check_discount(delta)
    return (temptation + sucker * delta) / (1.0 - delta * delta)


def deviate_payoff(temptation: float, punishment: float, delta: float) -> float:
    """Discounted value of T once, then the punishment payoff forever."""
    _check_discount(delta)
    return temptation + punishment * delta / (1.0 - delta)


@dataclass(frozen=True)
class CriticalDiscount:
    """Break-even discount between sticking and deviating.

    `solved` is found by bisecting the sign of stick - deviate, so it is
    independent of any algebraic rearrangement (it lands on
    (P - S)/(T - P)); None means no discount below 1 makes sticking pay.
    `quoted` is the commonly quoted closed form (P - S)/(T - R), reported
    alongside for comparison.
    """

    solved: float | None
    quoted: float
    note: str = ""


_BISECT_LO = 1e-9
_BISECT_HI = 1.0 - 1e-9
_BISECT_TOL = 1e-10


def critical_discount(payoff: PayoffMatrix) -> CriticalDiscount:
    """Locate the stick/deviate break-even discount of a payoff matrix."""
    t, r, p, s = payoff.temptation, payoff.reward, payoff.punishment, payoff.sucker
    quoted = (p - s) / (t - r)

    def gap(delta: float) -> float:
        return stick_payoff(t, s, delta) - deviate_payoff(t, p, delta)

    # the root (P - S)/(T - P) may lie at or past 1, or below the bracket
    if gap(_BISECT_HI) <= 0.0:
        return CriticalDiscount(
            None, quoted, "sticking never beats deviating for any discount below 1"
        )
    if gap(_BISECT_LO) >= 0.0:
        return CriticalDiscount(
            0.0, quoted, "sticking beats deviating for every positive discount"
        )
    lo, hi = _BISECT_LO, _BISECT_HI
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if gap(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return CriticalDiscount(0.5 * (lo + hi), quoted)


class Strategy:
    """Deterministic decision rule over the two visible action histories.

    `play_match` binds each seat once and calls `act` once per round, in
    round order from round 0, with the histories of the rounds played so
    far. Every built-in kind reads only the last one or two entries.
    """

    kind = "strategy"

    def bind(self, position: int) -> "Strategy":
        """Resolve per-match defaults; position 0 moves first in seat order."""
        return self

    def act(
        self, own: Sequence[ActionPD], opponent: Sequence[ActionPD]
    ) -> ActionPD:
        raise NotImplementedError


class MemoryOne(Strategy):
    """A first move, then `response[own[-1]][opponent[-1]]` in every later
    round. It keeps no state, so both seats of a mirror match may share it."""

    def __init__(self, kind: str, first: ActionPD, response):
        self.kind, self.first, self.response = kind, first, response

    def act(self, own, opponent):
        return self.response[own[-1]][opponent[-1]] if own else self.first


C, D = COOPERATE, DEFECT
# kind: (first move, response[own last][opponent last]). Grim's own last D
# answered an opponent's D, so it defects once the opponent has; WSLS stays
# iff the opponent cooperated, that is after T or R.
MEMORY_ONE = {
    "all_c": (C, ((C, C), (C, C))),
    "all_d": (D, ((D, D), (D, D))),
    "tit_for_tat": (C, ((C, D), (C, D))),
    "grim_trigger": (C, ((C, D), (D, D))),
    "win_stay_lose_shift": (C, ((C, D), (D, C))),
}


class Alternator(Strategy):
    """Turn-taking agreement: the pair alternates (D,C)/(C,D) so exactly one
    side collects the temptation payoff each round.

    parity "first" defects on round 0, "second" cooperates first; None
    resolves from seat order when the match starts. A partner that repeats
    its own previous action has broken the agreement and is answered with
    `punishment_length` rounds of defection (None = forever); afterwards
    play resumes on the original round-parity schedule. Repeats observed
    while a punishment is already running do not extend it.

    `bind` returns a fresh instance for every seat. It keeps only its
    punishment deadline and the round it expects next: round 0 starts over,
    and a call for any other round is a ValidationError.
    """

    kind = "alternator"

    def __init__(self, parity: str | None = None, punishment_length: int | None = None):
        if parity not in (None, "first", "second"):
            raise ValidationError(f"parity must be 'first' or 'second', got {parity!r}")
        if punishment_length is not None:
            _check_count("punishment_length", punishment_length, 1)
        self.parity = parity
        self.punishment_length = punishment_length
        self._punish_until: float = 0.0
        self._next_round = 0

    def bind(self, position: int) -> "Alternator":
        parity = self.parity or ("first" if position == 0 else "second")
        return Alternator(parity, self.punishment_length)

    def act(self, own, opponent):
        if self.parity is None:
            raise ValidationError("alternator parity unresolved; set it or call bind()")
        t = len(own)
        if t == 0:
            self._punish_until = 0.0
        elif t != self._next_round:
            raise ValidationError(f"alternator expected round {self._next_round}, got {t}")
        self._next_round = t + 1
        # the partner's action of round t - 1 repeats its round t - 2 one
        if t >= 2 and t - 1 >= self._punish_until and opponent[-1] == opponent[-2]:
            self._punish_until = t + (self.punishment_length or math.inf)
        if t < self._punish_until:
            return DEFECT
        defect_now = (t % 2 == 0) == (self.parity == "first")
        return DEFECT if defect_now else COOPERATE


@dataclass(frozen=True)
class MatchConfig:
    horizon: int
    discount: float = 0.0

    def __post_init__(self):
        _check_finite_fields(self)
        _check_count("horizon", self.horizon, 1)
        _check_discount(self.discount)


@dataclass(frozen=True)
class MatchResult:
    trajectory: tuple[tuple[ActionPD, ActionPD], ...]
    discounted_payoffs: tuple[float, float]
    total_payoffs: tuple[float, float]
    group_payoff_per_round: float


def _as_action(value) -> ActionPD:
    if not _is_action(value):
        raise ValidationError(f"a strategy must act 0 (cooperate) or 1 (defect), got {value!r}")
    return ActionPD(value)


def play_match(
    first: Strategy, second: Strategy, payoff: PayoffMatrix, config: MatchConfig
) -> MatchResult:
    """Run one match of `config.horizon` rounds.

    Each seat plays the instance its strategy's `bind` returns, which
    belongs to that seat of this match, so one object may fill both seats.
    Each round calls both seats' `act` once with the histories so far. Each
    action is coerced once through `ActionPD`, so plain 0/1 work and any
    other value (a bool or a float too) raises ValidationError. group payoff
    is the mean per-agent per-round raw payoff, the natural scale for
    comparing a turn-taking pair against mutual cooperation's R.
    """
    player_x = first.bind(0)
    player_y = second.bind(1)
    hist_x: list[ActionPD] = []
    hist_y: list[ActionPD] = []
    disc_x = disc_y = 0.0
    tot_x = tot_y = 0.0
    weight = 1.0
    # the actions are members once coerced, so the table needs no recheck
    table = payoff._table
    for _ in range(config.horizon):
        ax = player_x.act(hist_x, hist_y)
        ay = player_y.act(hist_y, hist_x)
        # ActionPD(member) is the member itself but costs an enum lookup
        if type(ax) is not ActionPD or type(ay) is not ActionPD:
            ax, ay = _as_action(ax), _as_action(ay)
        vx, vy = table[ax, ay]
        hist_x.append(ax)
        hist_y.append(ay)
        disc_x += weight * vx
        disc_y += weight * vy
        tot_x += vx
        tot_y += vy
        weight *= config.discount
    group = (tot_x + tot_y) / (2.0 * config.horizon)
    return MatchResult(tuple(zip(hist_x, hist_y)), (disc_x, disc_y), (tot_x, tot_y), group)


@dataclass(frozen=True)
class StrategyScore:
    label: str
    mean_discounted: float
    mean_group: float


def tournament(
    strategies: Sequence[Strategy], payoff: PayoffMatrix, config: MatchConfig
) -> tuple[StrategyScore, ...]:
    """Round-robin over all ordered pairs, mirror matches included.

    Each strategy accumulates one discounted-payoff sample per seat it
    occupies (2n samples for n entrants); mean_group averages the group
    payoff of those same matches.
    """
    if len(strategies) < 2:
        raise ValidationError("tournament needs at least two strategies")
    n = len(strategies)
    labels = [f"{s.kind}#{idx}" for idx, s in enumerate(strategies)]
    disc_sum = [0.0] * n
    group_sum = [0.0] * n
    for i in range(n):
        for j in range(n):
            result = play_match(strategies[i], strategies[j], payoff, config)
            disc_sum[i] += result.discounted_payoffs[0]
            disc_sum[j] += result.discounted_payoffs[1]
            group_sum[i] += result.group_payoff_per_round
            group_sum[j] += result.group_payoff_per_round
    samples = 2 * n
    return tuple(
        StrategyScore(labels[i], disc_sum[i] / samples, group_sum[i] / samples)
        for i in range(n)
    )


STRATEGY_KINDS = (*MEMORY_ONE, "alternator")


def make_strategy(kind: str, **kwargs) -> Strategy:
    """Build a strategy from its config name; only the alternator takes options."""
    if kind not in STRATEGY_KINDS:
        known = ", ".join(sorted(STRATEGY_KINDS))
        raise ValidationError(f"unknown strategy kind {kind!r} (known: {known})")
    if kind == "alternator":
        return Alternator(**kwargs)
    if kwargs:
        raise ValidationError(f"strategy {kind!r} takes no options")
    return MemoryOne(kind, *MEMORY_ONE[kind])
