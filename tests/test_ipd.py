import pytest

from coopdyn.errors import ValidationError
from coopdyn.ipd import (
    COOPERATE,
    DEFECT,
    AllCooperate,
    AllDefect,
    Alternator,
    GrimTrigger,
    MatchConfig,
    PayoffMatrix,
    Regime,
    Strategy,
    TitForTat,
    WinStayLoseShift,
    critical_discount,
    deviate_payoff,
    discount_threshold,
    play_match,
    stick_payoff,
    tournament,
)

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


def test_action_ordering_for_serialization():
    assert COOPERATE < DEFECT
    assert COOPERATE.letter == "C"
    assert DEFECT.letter == "D"


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


def test_threshold_degenerate_when_punishment_equals_sucker():
    # P = S violates the strict matrix ordering, so probe the raw solver.
    result = discount_threshold(5, 2, 1, 1)
    assert result.solved == 0.0
    for delta in (0.05, 0.3, 0.7, 0.95):
        assert stick_payoff(5, 1, delta) > deviate_payoff(5, 1, delta)


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


def test_grim_trigger_defects_forever_after_first_defection():
    config = MatchConfig(horizon=3)
    result = play_match(GrimTrigger(), AllDefect(), PayoffMatrix(5, 3, 1, 0), config)
    assert [a for a, _ in result.trajectory] == [C, D, D]


def test_tit_for_tat_copies():
    config = MatchConfig(horizon=4)
    result = play_match(TitForTat(), Scripted([D, C, D, C]), PayoffMatrix(5, 3, 1, 0), config)
    assert [a for a, _ in result.trajectory] == [C, D, C, D]


def test_wsls_truth_table():
    wsls = WinStayLoseShift()
    # stays after outcomes worth T or R (opponent cooperated)
    assert wsls.act([C], [C]) is C
    assert wsls.act([D], [C]) is D
    # shifts after outcomes worth P or S (opponent defected)
    assert wsls.act([C], [D]) is D
    assert wsls.act([D], [D]) is C
    assert wsls.act([], []) is C


def test_wsls_pair_locks_into_cooperation():
    config = MatchConfig(horizon=10)
    result = play_match(WinStayLoseShift(), WinStayLoseShift(), PayoffMatrix(5, 3, 1, 0), config)
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
    result = play_match(AllCooperate(), AllCooperate(), PayoffMatrix(5, 3, 1, 0), config)
    assert result.total_payoffs == (30.0, 30.0)
    assert result.discounted_payoffs == (3.0, 3.0)
    assert result.group_payoff_per_round == pytest.approx(3.0)


def test_discounted_payoffs_recompute_from_trajectory():
    payoff = PayoffMatrix(5, 3, 1, 0)
    config = MatchConfig(horizon=25, discount=0.85)
    result = play_match(Alternator(), WinStayLoseShift(), payoff, config)
    for side in (0, 1):
        total = 0.0
        for t, pair in enumerate(result.trajectory):
            mine, theirs = pair[side], pair[1 - side]
            total += (0.85**t) * payoff.payoffs(mine, theirs)[0]
        assert abs(total - result.discounted_payoffs[side]) < 1e-12


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
    table = tournament([AllDefect(), AllCooperate()], payoff, config)
    match = play_match(AllDefect(), AllCooperate(), payoff, config)
    assert match.total_payoffs == (5.0, 0.0)
    scores = {row.label: row for row in table.scores}
    assert set(scores) == {"all_d#0", "all_c#1"}


def test_tournament_alternators_beat_mutual_cooperation_per_round():
    payoff = PayoffMatrix(5, 2, 1, 0)
    config = MatchConfig(horizon=100, discount=0.0)
    table = tournament([Alternator(), Alternator()], payoff, config)
    for row in table.scores:
        assert row.mean_group == pytest.approx(2.5)  # (T + S)/2
        assert row.mean_group > payoff.reward


def test_tournament_requires_two_strategies():
    with pytest.raises(ValidationError):
        tournament([AllCooperate()], PayoffMatrix(5, 3, 1, 0), MatchConfig(horizon=1))


def test_tournament_is_deterministic():
    payoff = PayoffMatrix(5, 2, 1, 0)
    config = MatchConfig(horizon=40, discount=0.6, seed=7)
    pool = [Alternator(), GrimTrigger(), WinStayLoseShift(), AllDefect()]
    first = tournament(pool, payoff, config)
    second = tournament(pool, payoff, config)
    assert first == second
