import math

from hypothesis import given, settings
from hypothesis import strategies as st

from coopdyn.ipd import (
    Alternator,
    MatchConfig,
    PayoffMatrix,
    critical_discount,
    deviate_payoff,
    play_match,
    stick_payoff,
)

from test_ipd import geometric_stream, constant_tail_stream


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
