import itertools

import pytest

from coopdyn.errors import ValidationError
from coopdyn.ipd import (
    COOPERATE,
    DEFECT,
    STRATEGY_KINDS,
    ActionPD,
    Alternator,
    MatchConfig,
    PayoffMatrix,
    Regime,
    Strategy,
    critical_discount,
    deviate_payoff,
    make_strategy,
    play_match,
    stick_payoff,
    tournament,
)

from ipd_scan_oracle import FullScanAlternator, FullScanGrimTrigger

C, D = COOPERATE, DEFECT


def geometric_stream(first, second, delta, terms):
    """Oracle: directly sum the alternating payoff stream first, second*d,
    first*d^2, ... out to `terms` terms."""
    total = 0.0
    weight = 1.0
    for t in range(terms):
        total += weight * (first if t % 2 == 0 else second)
        weight *= delta
    return total


def constant_tail_stream(first, rest, delta, terms):
    """Oracle: first, then `rest` forever, discounted, truncated."""
    total = first
    weight = delta
    for _ in range(1, terms):
        total += weight * rest
        weight *= delta
    return total


class Scripted(Strategy):
    """Test-only strategy that replays a fixed action list."""

    kind = "scripted"

    def __init__(self, actions):
        self.actions = list(actions)

    def act(self, own, opponent):
        return self.actions[len(own)]


# ---------------------------------------------------------------------------
# payoff matrix and regime classification
# ---------------------------------------------------------------------------


def test_ordering_is_enforced():
    with pytest.raises(ValidationError, match="temptation > reward"):
        PayoffMatrix(3, 3, 1, 0)
    with pytest.raises(ValidationError, match="reward > punishment"):
        PayoffMatrix(5, 1, 1, 0)
    with pytest.raises(ValidationError, match="punishment > sucker"):
        PayoffMatrix(5, 3, 0, 0)


@pytest.mark.parametrize(
    "values,expected",
    [
        ((5, 3, 1, 0), Regime.CLASSIC),              # 6 > 5
        ((5, 2, 1, 0), Regime.ALTERNATION_FAVORING),  # 4 < 5
        ((4, 2, 1, 0), Regime.BOUNDARY),              # 4 = 4
    ],
)
def test_classify(values, expected):
    assert PayoffMatrix(*values).regime() is expected


def test_payoffs_read_plain_int_actions_like_the_enum():
    payoff = PayoffMatrix(5, 2, 1, 0)
    assert payoff.payoffs(0, 0) == payoff.payoffs(C, C) == (2, 2)
    assert payoff.payoffs(0, 1) == payoff.payoffs(C, D) == (0, 5)
    assert payoff.payoffs(1, 0) == payoff.payoffs(D, C) == (5, 0)
    assert payoff.payoffs(1, 1) == payoff.payoffs(D, D) == (1, 1)


@pytest.mark.parametrize("bad", [2, -1, "C", None, True, False, 1.0, 0.0])
def test_payoffs_reject_values_that_are_not_actions(bad):
    with pytest.raises(ValidationError, match="0 \\(cooperate\\) or 1 \\(defect\\)"):
        PayoffMatrix(5, 2, 1, 0).payoffs(bad, C)
    with pytest.raises(ValidationError, match="0 \\(cooperate\\) or 1 \\(defect\\)"):
        PayoffMatrix(5, 2, 1, 0).payoffs(D, bad)


def test_action_ordering_for_serialization():
    assert COOPERATE < DEFECT


# ---------------------------------------------------------------------------
# discounted payoff streams, Eqs for stick vs deviate
# ---------------------------------------------------------------------------


def test_stick_payoff_examples():
    assert stick_payoff(5, 0, 0.0) == 5.0
    # frozen from the 200-term series oracle: 5/(1 - 0.25) = 6.666666...
    assert stick_payoff(5, 0, 0.5) == pytest.approx(6.6666666667, abs=1e-9)
    assert stick_payoff(5, 0, 0.5) == pytest.approx(
        geometric_stream(5, 0, 0.5, 200), abs=1e-9
    )
    # constant stream 3, 3d, 3d^2, ... = 3/(1-0.9) = 30
    assert stick_payoff(3, 3, 0.9) == pytest.approx(30.0, abs=1e-9)
    assert stick_payoff(3, 3, 0.9) == pytest.approx(
        geometric_stream(3, 3, 0.9, 500), abs=1e-7
    )


def test_deviate_payoff_examples():
    assert deviate_payoff(5, 1, 0.0) == 5.0
    assert deviate_payoff(5, 1, 0.5) == pytest.approx(6.0, abs=1e-12)
    assert deviate_payoff(5, 1, 0.5) == pytest.approx(
        constant_tail_stream(5, 1, 0.5, 200), abs=1e-9
    )
    assert deviate_payoff(0, 0, 0.9) == 0.0


@pytest.mark.parametrize("func", [stick_payoff, deviate_payoff])
@pytest.mark.parametrize("delta", [1.0, 1.5])
def test_discount_domain_is_enforced(func, delta):
    with pytest.raises(ValidationError):
        func(5, 1, delta)


# ---------------------------------------------------------------------------
# critical discount threshold
# ---------------------------------------------------------------------------


def test_critical_discount_solved_by_bisection():
    result = critical_discount(PayoffMatrix(5, 3, 1, 0))
    # root of stick - deviate; algebraically (P - S)/(T - P) = 1/4
    assert result.solved == pytest.approx(0.25, abs=1e-9)
    assert result.quoted == pytest.approx(0.5)
    # the solved root separates the regimes, the quoted value does not
    assert stick_payoff(5, 0, 0.26) > deviate_payoff(5, 1, 0.26)
    assert stick_payoff(5, 0, 0.24) < deviate_payoff(5, 1, 0.24)
    assert stick_payoff(5, 0, 0.45) > deviate_payoff(5, 1, 0.45)


def test_threshold_below_the_bisection_bracket_is_zero():
    # (P - S)/(T - P) = 1e-12/(4 - 1e-12) lies below the bracket's 1e-9 end
    result = critical_discount(PayoffMatrix(5, 3, 1 + 1e-12, 1))
    assert result.solved == 0.0
    assert result.note
    for delta in (0.05, 0.3, 0.7, 0.95):
        assert stick_payoff(5, 1, delta) > deviate_payoff(5, 1 + 1e-12, delta)


def test_threshold_unreachable_below_one():
    # (P - S)/(T - P) = 2/1 = 2 >= 1: no usable discount factor exists.
    result = critical_discount(PayoffMatrix(3, 2.5, 2, 0))
    assert result.solved is None
    assert result.note
    for delta in [k / 20 for k in range(20)]:
        assert stick_payoff(3, 0, delta) <= deviate_payoff(3, 2, delta)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

# each memory-one kind's first move, and its answer to a last round (own, opponent)
MEMORY_ONE_RULES = {
    "all_c": (C, lambda own, opponent: C),
    "all_d": (D, lambda own, opponent: D),
    "tit_for_tat": (C, lambda own, opponent: opponent),
    "grim_trigger": (C, lambda own, opponent: D if D in (own, opponent) else C),
    # stay after T or R (the opponent cooperated), else switch
    "win_stay_lose_shift": (
        C, lambda own, opponent: own if opponent == C else (C if own == D else D)
    ),
}


def test_every_kind_but_the_alternator_is_memory_one():
    assert set(STRATEGY_KINDS) == {*MEMORY_ONE_RULES, "alternator"}


@pytest.mark.parametrize("kind", list(MEMORY_ONE_RULES))
def test_a_memory_one_kind_answers_every_last_round_by_its_rule(kind):
    first, rule = MEMORY_ONE_RULES[kind]
    strategy = make_strategy(kind)
    assert strategy.kind == kind
    assert strategy.act([], []) is first
    for own, opponent in itertools.product((C, D), repeat=2):
        expected = rule(own, opponent)
        assert strategy.act([own], [opponent]) is expected
        # only the last round counts, and plain ints read like the enum
        assert strategy.act([D, C, own], [C, D, opponent]) is expected
        assert strategy.act([int(own)], [int(opponent)]) is expected


def test_grim_trigger_defects_forever_after_first_defection():
    config = MatchConfig(horizon=3)
    grim, all_d = make_strategy("grim_trigger"), make_strategy("all_d")
    result = play_match(grim, all_d, PayoffMatrix(5, 3, 1, 0), config)
    assert [a for a, _ in result.trajectory] == [C, D, D]


def test_tit_for_tat_copies():
    config = MatchConfig(horizon=4)
    tft = make_strategy("tit_for_tat")
    result = play_match(tft, Scripted([D, C, D, C]), PayoffMatrix(5, 3, 1, 0), config)
    assert [a for a, _ in result.trajectory] == [C, D, C, D]


def test_wsls_pair_locks_into_cooperation():
    config = MatchConfig(horizon=10)
    first, second = (make_strategy("win_stay_lose_shift") for _ in range(2))
    result = play_match(first, second, PayoffMatrix(5, 3, 1, 0), config)
    assert all(pair == (C, C) for pair in result.trajectory)


def test_alternators_interleave():
    config = MatchConfig(horizon=4)
    result = play_match(
        Alternator(parity="first"),
        Alternator(parity="second"),
        PayoffMatrix(5, 2, 1, 0),
        config,
    )
    assert list(result.trajectory) == [(D, C), (C, D), (D, C), (C, D)]


def test_alternator_parity_defaults_to_seat_order():
    config = MatchConfig(horizon=6)
    result = play_match(Alternator(), Alternator(), PayoffMatrix(5, 2, 1, 0), config)
    assert result.trajectory[0] == (D, C)
    for ax, ay in result.trajectory:
        assert ax != ay


def test_alternator_punishes_a_repeat_then_resumes():
    # partner honors the pattern, repeats once at round 3, then resumes
    partner = Scripted([C, D, C, C, D, C, D, C, D, C])
    alt = Alternator(parity="first", punishment_length=3)
    config = MatchConfig(horizon=10)
    result = play_match(alt, partner, PayoffMatrix(5, 2, 1, 0), config)
    ours = [a for a, _ in result.trajectory]
    # pattern until the repeat is seen, then three rounds of defection
    assert ours[:4] == [D, C, D, C]
    assert ours[4:7] == [D, D, D]
    # rounds 7+ return to the round-parity schedule: 7 odd -> C, 8 even -> D
    assert ours[7:10] == [C, D, C]


def test_alternator_default_punishment_is_forever():
    partner = Scripted([C, D, C, C] + [C] * 16)
    config = MatchConfig(horizon=20)
    result = play_match(Alternator(parity="first"), partner, PayoffMatrix(5, 2, 1, 0), config)
    ours = [a for a, _ in result.trajectory]
    assert ours[:4] == [D, C, D, C]
    assert ours[4:] == [D] * 16


def test_first_mover_discounted_payoff_matches_truncated_stream():
    payoff = PayoffMatrix(5, 2, 1, 0)
    for horizon in (1, 2, 5, 8, 13):
        config = MatchConfig(horizon=horizon, discount=0.7)
        result = play_match(Alternator(), Alternator(), payoff, config)
        expected = geometric_stream(payoff.temptation, payoff.sucker, 0.7, horizon)
        assert result.discounted_payoffs[0] == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# match bookkeeping
# ---------------------------------------------------------------------------


def test_mutual_cooperation_totals():
    config = MatchConfig(horizon=10, discount=0.0)
    first, second = (make_strategy("all_c") for _ in range(2))
    result = play_match(first, second, PayoffMatrix(5, 3, 1, 0), config)
    assert result.total_payoffs == (30.0, 30.0)
    assert result.discounted_payoffs == (3.0, 3.0)
    assert result.group_payoff_per_round == pytest.approx(3.0)


def test_discounted_payoffs_recompute_from_trajectory():
    payoff = PayoffMatrix(5, 3, 1, 0)
    config = MatchConfig(horizon=25, discount=0.85)
    result = play_match(Alternator(), make_strategy("win_stay_lose_shift"), payoff, config)
    for side in (0, 1):
        total = 0.0
        for t, pair in enumerate(result.trajectory):
            mine, theirs = pair[side], pair[1 - side]
            total += (0.85**t) * payoff.payoffs(mine, theirs)[0]
        assert abs(total - result.discounted_payoffs[side]) < 1e-12


@pytest.mark.parametrize("kind", ["all_d", "tit_for_tat", "win_stay_lose_shift", "grim_trigger"])
def test_strategies_acting_in_plain_ints_play_like_the_enum(kind):
    script = [0, 1, 1, 0, 0, 1, 0, 0]
    payoff = PayoffMatrix(5, 2, 1, 0)
    config = MatchConfig(horizon=len(script), discount=0.5)
    ints, enums = Scripted(script), Scripted(ActionPD(a) for a in script)
    opponent = make_strategy(kind)
    assert play_match(ints, opponent, payoff, config) == play_match(
        enums, opponent, payoff, config
    )
    assert play_match(opponent, ints, payoff, config) == play_match(
        opponent, enums, payoff, config
    )


@pytest.mark.parametrize("bad", [2, -1, "C", None, True, False, 1.0, 0.0])
def test_an_action_that_is_not_zero_or_one_is_rejected(bad):
    config = MatchConfig(horizon=3)
    with pytest.raises(ValidationError, match="must act 0 \\(cooperate\\) or 1"):
        play_match(Scripted([C, bad, C]), make_strategy("all_c"), PayoffMatrix(5, 2, 1, 0), config)


def test_match_config_validation():
    with pytest.raises(ValidationError):
        MatchConfig(horizon=0)
    with pytest.raises(ValidationError):
        MatchConfig(horizon=5, discount=1.0)


# ---------------------------------------------------------------------------
# tournament
# ---------------------------------------------------------------------------


def test_tournament_one_shot_pairing():
    payoff = PayoffMatrix(5, 3, 1, 0)
    config = MatchConfig(horizon=1)
    scores = tournament([make_strategy("all_d"), make_strategy("all_c")], payoff, config)
    match = play_match(make_strategy("all_d"), make_strategy("all_c"), payoff, config)
    assert match.total_payoffs == (5.0, 0.0)
    scores = {row.label: row for row in scores}
    assert set(scores) == {"all_d#0", "all_c#1"}


def test_tournament_alternators_beat_mutual_cooperation_per_round():
    payoff = PayoffMatrix(5, 2, 1, 0)
    config = MatchConfig(horizon=100, discount=0.0)
    for row in tournament([Alternator(), Alternator()], payoff, config):
        assert row.mean_group == pytest.approx(2.5)  # (T + S)/2
        assert row.mean_group > payoff.reward


def test_tournament_requires_two_strategies():
    with pytest.raises(ValidationError):
        tournament([make_strategy("all_c")], PayoffMatrix(5, 3, 1, 0), MatchConfig(horizon=1))


def test_tournament_is_deterministic():
    payoff = PayoffMatrix(5, 2, 1, 0)
    config = MatchConfig(horizon=40, discount=0.6)
    pool = [Alternator(), *map(make_strategy, ["grim_trigger", "win_stay_lose_shift", "all_d"])]
    first = tournament(pool, payoff, config)
    second = tournament(pool, payoff, config)
    assert first == second


# ---------------------------------------------------------------------------
# round-by-round strategies against the full-scan oracle
# ---------------------------------------------------------------------------

FULL_SCAN = {"grim_trigger": FullScanGrimTrigger, "alternator": FullScanAlternator}

ALTERNATOR_OPTIONS = [
    {"parity": parity, "punishment_length": length}
    for parity in (None, "first", "second")
    for length in (None, 1, 3)
]
# The oracle rescans its history every round, so an alternator seat costs
# O(H^2): the long horizon takes one option set per parity, which still
# covers each punishment length ([0::4] is the diagonal).
ORACLE_CASES = [(h, o) for h in (1, 2, 8, 30) for o in ALTERNATOR_OPTIONS] + [
    (2000, o) for o in ALTERNATOR_OPTIONS[0::4]
]


def both(kind, options):
    """The production strategy of `kind` and its full-scan reference; kinds
    that never read past the last round are their own reference."""
    options = options if kind == "alternator" else {}
    oracle = FULL_SCAN[kind](**options) if kind in FULL_SCAN else make_strategy(kind)
    return make_strategy(kind, **options), oracle


@pytest.mark.parametrize(
    "horizon,options",
    ORACLE_CASES,
    ids=[f"H{h}-{o['parity']}-{o['punishment_length']}" for h, o in ORACLE_CASES],
)
def test_every_pair_plays_like_the_full_scan_oracle(horizon, options):
    payoff = PayoffMatrix(5, 2, 1, 0)
    config = MatchConfig(horizon=horizon, discount=0.9)
    for kind_x, kind_y in itertools.product(STRATEGY_KINDS, repeat=2):
        x, oracle_x = both(kind_x, options)
        # a mirror match puts one object in both seats, as a tournament does
        y, oracle_y = (x, oracle_x) if kind_x == kind_y else both(kind_y, options)
        assert play_match(x, y, payoff, config) == play_match(
            oracle_x, oracle_y, payoff, config
        ), (kind_x, kind_y)


@pytest.mark.parametrize("values", [(5, 3, 1, 0), (5, 2, 1, 0)])
@pytest.mark.parametrize("length", [None, 1, 4])
def test_tournament_plays_like_the_full_scan_oracle(values, length):
    def entrants(alternator, grim):
        return [
            alternator(),
            alternator("first", length),
            make_strategy("all_c"),
            make_strategy("all_d"),
            make_strategy("tit_for_tat"),
            grim,
            make_strategy("win_stay_lose_shift"),
        ]

    payoff = PayoffMatrix(*values)
    config = MatchConfig(horizon=200, discount=0.95)
    ours = tournament(entrants(Alternator, make_strategy("grim_trigger")), payoff, config)
    oracle = tournament(entrants(FullScanAlternator, FullScanGrimTrigger()), payoff, config)
    assert ours == oracle


@pytest.mark.parametrize(
    "strategy,oracle,per_seat",
    [
        (Alternator(), FullScanAlternator(), True),
        (Alternator("first", 2), FullScanAlternator("first", 2), True),
        # stateless: both seats may share the one instance
        (make_strategy("grim_trigger"), FullScanGrimTrigger(), False),
    ],
    ids=["alternator", "alternator-first", "grim_trigger"],
)
def test_bind_gives_each_seat_its_own_instance(strategy, oracle, per_seat):
    if per_seat:
        seats = strategy.bind(0), strategy.bind(1)
        assert seats[0] is not seats[1] and strategy not in seats
    payoff = PayoffMatrix(5, 2, 1, 0)
    config = MatchConfig(horizon=40)
    assert play_match(strategy, strategy, payoff, config) == play_match(
        oracle, oracle, payoff, config
    )


def test_an_alternator_refuses_a_round_out_of_order():
    alternator = Alternator("first")
    assert alternator.act([], []) is D
    with pytest.raises(ValidationError, match="expected round 1, got 2"):
        alternator.act([D, C], [C, D])  # skips round 1
    assert alternator.act([D], [C]) is C
    with pytest.raises(ValidationError, match="expected round 2, got 1"):
        alternator.act([D], [C])  # repeats round 1
    # round 0 starts a new match, dropping the old one's punishment
    assert alternator.act([D, C], [C, C]) is D
    assert alternator.act([], []) is D
    assert alternator.act([D], [C]) is C


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Alternator(parity="third"), "parity must be 'first' or 'second', got 'third'"),
        (lambda: Alternator().act([], []), "alternator parity unresolved; set it or call bind()"),
        (lambda: make_strategy("always_maybe"),
         f"unknown strategy kind 'always_maybe' (known: {', '.join(sorted(STRATEGY_KINDS))})"),
        (lambda: make_strategy("tit_for_tat", parity="first"),
         "strategy 'tit_for_tat' takes no options"),
    ],
    ids=["alternator-parity", "alternator-unbound", "unknown-kind", "memory-one-options"],
)
def test_each_strategy_refusal_names_its_rule(make, message):
    with pytest.raises(ValidationError) as excinfo:
        make()
    assert str(excinfo.value) == message
