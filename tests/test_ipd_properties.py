import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coopdyn.errors import ValidationError
from coopdyn.ipd import (
    COOPERATE,
    DEFECT,
    Alternator,
    MatchConfig,
    PayoffMatrix,
    critical_discount,
    deviate_payoff,
    make_strategy,
    play_match,
    stick_payoff,
)

from ipd_scan_oracle import FullScanAlternator, FullScanGrimTrigger
from test_ipd import Scripted, constant_tail_stream, geometric_stream


# Payoffs are drawn as a base plus three strictly positive gaps so the
# T > R > P > S ordering holds with margin.
payoff_matrices = st.builds(
    lambda base, g1, g2, g3: PayoffMatrix(
        base + g1 + g2 + g3, base + g1 + g2, base + g1, base
    ),
    base=st.floats(-5, 5),
    g1=st.floats(0.05, 5),
    g2=st.floats(0.05, 5),
    g3=st.floats(0.05, 5),
)


@given(payoff_matrices, st.floats(0.1, 10), st.floats(-10, 10))
def test_classify_invariant_under_positive_affine_maps(payoff, scale, shift):
    gap = 2 * payoff.reward - (payoff.temptation + payoff.sucker)
    if abs(gap) < 1e-6:
        return  # too close to the boundary for float-stable sign checks
    mapped = PayoffMatrix(
        scale * payoff.temptation + shift,
        scale * payoff.reward + shift,
        scale * payoff.punishment + shift,
        scale * payoff.sucker + shift,
    )
    assert mapped.regime() is payoff.regime()


@given(payoff_matrices, st.floats(0.0, 0.99))
def test_closed_forms_match_truncated_series(payoff, delta):
    # enough terms that the geometric tail is far below the tolerance
    terms = 3000
    stick = stick_payoff(payoff.temptation, payoff.sucker, delta)
    deviate = deviate_payoff(payoff.temptation, payoff.punishment, delta)
    assert math.isclose(
        stick,
        geometric_stream(payoff.temptation, payoff.sucker, delta, terms),
        abs_tol=1e-8,
        rel_tol=1e-10,
    )
    assert math.isclose(
        deviate,
        constant_tail_stream(payoff.temptation, payoff.punishment, delta, terms),
        abs_tol=1e-8,
        rel_tol=1e-10,
    )


@given(payoff_matrices, st.floats(1e-6, 1 - 1e-6))
@settings(max_examples=200)
def test_solved_threshold_separates_regimes(payoff, mix):
    result = critical_discount(payoff)
    if result.solved is None:
        return
    low = result.solved * mix
    high = result.solved + (1 - result.solved) * mix
    margin = 1e-9
    if high - result.solved > margin and high < 1:
        assert stick_payoff(payoff.temptation, payoff.sucker, high) > deviate_payoff(
            payoff.temptation, payoff.punishment, high
        )
    if result.solved - low > margin and result.solved > 0:
        assert stick_payoff(payoff.temptation, payoff.sucker, low) < deviate_payoff(
            payoff.temptation, payoff.punishment, low
        )


@given(st.integers(1, 60), st.floats(0, 0.95))
def test_complementary_alternators_never_collide(horizon, delta):
    config = MatchConfig(horizon=horizon, discount=delta)
    result = play_match(Alternator(), Alternator(), PayoffMatrix(5, 2, 1, 0), config)
    for ax, ay in result.trajectory:
        assert ax != ay


C, D = COOPERATE, DEFECT
moves = st.lists(st.sampled_from([C, D]), max_size=60)


def drive(strategy, opponent_moves):
    """The actions `strategy` takes, round by round through `act`, against
    a fixed sequence of opponent moves."""
    own, seen = [], []
    for move in opponent_moves:
        own.append(strategy.act(own, seen))
        seen.append(move)
    return own


@given(
    parity=st.sampled_from([None, "first", "second"]),
    length=st.none() | st.integers(1, 5),
    seat=st.integers(0, 1),
    first=moves,
    second=moves,
    unrelated=st.lists(st.tuples(st.sampled_from([C, D]), st.sampled_from([C, D])),
                       max_size=40),
)
# the repeats at rounds 3 and 4 fall inside the punishment round 2's starts
@example(parity="first", length=3, seat=0, first=[C, D, D, D, D, C, D, C, C, C, D],
         second=[], unrelated=[])
def test_alternator_answers_like_the_full_scan_oracle(
    parity, length, seat, first, second, unrelated
):
    alternator = Alternator(parity, length)
    oracle = FullScanAlternator(parity, length)
    if first:
        config = MatchConfig(horizon=len(first))
        payoff = PayoffMatrix(5, 2, 1, 0)
        seats = (alternator, Scripted(first)) if seat == 0 else (Scripted(first), alternator)
        oracle_seats = (oracle, Scripted(first)) if seat == 0 else (Scripted(first), oracle)
        assert play_match(*seats, payoff, config) == play_match(*oracle_seats, payoff, config)

    # one bound instance, reused for a second, shorter match, starts over at round 0
    bound, reference = alternator.bind(seat), oracle.bind(seat)
    assert drive(bound, first) == drive(reference, first)
    shorter = second[: len(first) // 2]
    assert drive(bound, shorter) == drive(reference, shorter)
    grim = make_strategy("grim_trigger").bind(seat)
    assert drive(grim, first) == drive(FullScanGrimTrigger(), first)
    assert drive(grim, shorter) == drive(FullScanGrimTrigger(), shorter)

    # a call for any round but round 0 or the next one is refused, not rescanned
    expected = len(shorter or first)
    own = [mine for mine, _ in unrelated]
    theirs = [other for _, other in unrelated]
    for cut in (len(unrelated), len(unrelated) // 3, len(unrelated) // 2):
        if cut not in (0, expected):
            with pytest.raises(ValidationError, match=f"expected round {expected}, got {cut}"):
                bound.act(own[:cut], theirs[:cut])
