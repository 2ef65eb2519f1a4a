import math
import random
from dataclasses import fields

import pytest

from coopdyn.errors import ValidationError
from coopdyn.roles import (
    PRIMARY,
    SACRIFICE,
    FairnessStats,
    RotationLedger,
    SwitchPolicy,
    default_switch,
    delayed_credit,
    deterministic_assign,
    fairness_report,
    sigmoid_switch_probability,
    stochastic_assign,
    stochastic_selection,
)


def run_deterministic(n_agents, k, rounds, rotated_role=SACRIFICE):
    ledger = RotationLedger(n_agents, rotated_role=rotated_role)
    picks = []
    for _ in range(rounds):
        assignment = deterministic_assign(ledger, k)
        held = assignment.sacrificers
        if rotated_role == PRIMARY:
            held = frozenset(range(n_agents)) - held
        picks.append(sorted(held))
    return ledger, picks


# ---------------------------------------------------------------------------
# deterministic rotation
# ---------------------------------------------------------------------------


def test_three_agents_take_turns():
    _, picks = run_deterministic(3, 1, 3)
    assert picks == [[0], [1], [2]]


def test_rotation_cycles_after_warmup():
    n = 5
    _, picks = run_deterministic(n, 1, 4 * n)
    flat = [p[0] for p in picks]
    for start in range(n, len(flat) - n + 1):
        window = flat[start : start + n]
        assert sorted(window) == list(range(n))


def test_window_blocks_recent_sacrificers():
    # least-served rotation never repeats an agent picked in the last
    # `window` rounds while another agent is free
    n, window = 4, 2
    ledger = RotationLedger(n)
    history = []
    for _ in range(12):
        assignment = deterministic_assign(ledger, 1)
        chosen = next(iter(assignment.sacrificers))
        recent = {a for picks in history[-window:] for a in picks}
        eligible_others = set(range(n)) - recent - {chosen}
        assert chosen not in recent or not eligible_others
        history.append([chosen])


@pytest.mark.parametrize("rotated_role", [SACRIFICE, PRIMARY])
@pytest.mark.parametrize("n", range(2, 13))
def test_fresh_ledger_rotates_in_a_cycle(n, rotated_role):
    for k in range(1, n):
        _, picks = run_deterministic(n, k, 3 * n, rotated_role)
        for r, pick in enumerate(picks):
            assert pick == sorted((r * k + i) % n for i in range(k)), (k, r)


def test_switch_policy_has_no_window():
    assert [f.name for f in fields(SwitchPolicy)] == ["mode", "streak_midpoint", "streak_scale"]
    with pytest.raises(TypeError):
        RotationLedger(4, window=2)


@pytest.mark.parametrize(
    "values, unused",
    [
        ({"streak_midpoint": 3}, "streak_midpoint"),
        ({"streak_scale": 0.5}, "streak_scale"),
        ({"streak_midpoint": 2, "streak_scale": 2}, "streak_midpoint, streak_scale"),
    ],
)
def test_deterministic_mode_keeps_the_sigmoid_fields_at_their_defaults(values, unused):
    with pytest.raises(ValidationError, match=f"^{unused}: used only in stochastic_sigmoid mode"):
        SwitchPolicy(mode="deterministic_window", **values)
    assert SwitchPolicy("deterministic_window", 1, 1.0) == SwitchPolicy("deterministic_window")


def test_two_mover_cohorts_share_evenly():
    ledger, picks = run_deterministic(5, 2, 10)
    counts = {i: 0 for i in range(5)}
    for pick in picks:
        assert len(pick) == 2
        for agent in pick:
            counts[agent] += 1
    assert all(count == 4 for count in counts.values())


def test_assign_validates_cohort_size():
    ledger = RotationLedger(3)
    with pytest.raises(ValidationError):
        deterministic_assign(ledger, 0)
    with pytest.raises(ValidationError):
        deterministic_assign(ledger, 3)


def test_assignment_counts_match_recomputation():
    ledger, picks = run_deterministic(6, 2, 15)
    for record in ledger.records:
        expected = sum(1 for pick in picks if record.agent_id in pick)
        assert record.times_sacrifice == expected
        assert ledger.rounds_completed - record.times_sacrifice == 15 - expected


# ---------------------------------------------------------------------------
# sigmoid switching
# ---------------------------------------------------------------------------


def test_sigmoid_midpoint_and_tail():
    policy = SwitchPolicy(mode="stochastic_sigmoid", streak_midpoint=6, streak_scale=1.0)
    assert sigmoid_switch_probability(6, policy) == pytest.approx(0.5)
    tiny = SwitchPolicy(mode="stochastic_sigmoid", streak_midpoint=50, streak_scale=0.25)
    assert sigmoid_switch_probability(0, tiny) < 1e-12


def test_default_streak_midpoint_is_a_binomial_coefficient():
    assert default_switch(4, 2, "stochastic_sigmoid").streak_midpoint == math.comb(3, 2) == 3
    assert default_switch(9, 3, "stochastic_sigmoid").streak_midpoint == math.comb(8, 3)
    # deterministic mode reads no midpoint, so it keeps SwitchPolicy's default
    assert default_switch(9, 3, "deterministic_window") == SwitchPolicy("deterministic_window")


def test_a_midpoint_far_past_the_float_range_is_refused_before_the_exact_count(monkeypatch):
    def exact_count(*args):
        raise AssertionError("the exact count was made")

    monkeypatch.setattr(math, "comb", exact_count)
    with pytest.raises(
        ValidationError, match=r"^streak_midpoint: C\(9999999, 5000000\) is beyond the float range$"
    ):
        default_switch(10**7, 5 * 10**6, "stochastic_sigmoid")


@pytest.mark.parametrize("n_agents", range(1025, 1036))
def test_every_midpoint_that_fits_a_float_keeps_its_bits(n_agents):
    # C(n_agents - 1, cohort) crosses the float range for these n_agents
    for cohort in range(1, n_agents):
        try:
            want = float(math.comb(n_agents - 1, cohort))
        except OverflowError:
            with pytest.raises(ValidationError, match="is beyond the float range"):
                default_switch(n_agents, cohort, "stochastic_sigmoid")
        else:
            assert default_switch(n_agents, cohort, "stochastic_sigmoid").streak_midpoint == want


@pytest.mark.parametrize("cohort", [True, 1.5, 0, 4])
def test_default_streak_midpoint_rejects_cohorts_that_are_not_counts_below_n(cohort):
    with pytest.raises(ValidationError, match="cohort"):
        default_switch(4, cohort, "stochastic_sigmoid")


def test_sigmoid_is_monotone_and_bounded():
    policy = SwitchPolicy(mode="stochastic_sigmoid", streak_midpoint=5, streak_scale=0.8)
    previous = -1.0
    for streak in range(0, 11):
        prob = sigmoid_switch_probability(streak, policy)
        assert 0.0 < prob < 1.0
        assert prob >= previous
        previous = prob


@pytest.mark.parametrize("streak", [True, 0.5, -1, "3", None])
def test_sigmoid_streak_must_be_a_round_count(streak):
    policy = SwitchPolicy(mode="stochastic_sigmoid", streak_midpoint=5, streak_scale=0.8)
    with pytest.raises(ValidationError, match="streak must be an integer >= 0"):
        sigmoid_switch_probability(streak, policy)


def test_sigmoid_requires_stochastic_mode():
    policy = SwitchPolicy(mode="deterministic_window")
    with pytest.raises(ValidationError):
        sigmoid_switch_probability(3, policy)


# ---------------------------------------------------------------------------
# stochastic assignment
# ---------------------------------------------------------------------------


def make_stochastic_ledger(n_agents, selected, streaks=None):
    ledger = RotationLedger(n_agents)
    ledger.initialize_roles(selected)
    if streaks:
        for agent_id, streak in streaks.items():
            ledger.records[agent_id].streak = streak
    return ledger


def test_low_streaks_keep_roles_with_high_probability():
    policy = SwitchPolicy(
        mode="stochastic_sigmoid", streak_midpoint=40, streak_scale=1.0
    )
    ledger = make_stochastic_ledger(6, {0, 1})
    rng = random.Random(3)
    # streaks stay far below the midpoint of 40, so flips are ~impossible
    for _ in range(15):
        assignment = stochastic_assign(ledger, policy, rng)
    assert sorted(assignment.sacrificers) == [0, 1]


def test_past_midpoint_with_tiny_scale_switches_immediately():
    policy = SwitchPolicy(
        mode="stochastic_sigmoid", streak_midpoint=3, streak_scale=1e-9
    )
    ledger = make_stochastic_ledger(4, {0}, streaks={0: 5, 1: 5, 2: 5, 3: 5})
    assignment = stochastic_assign(ledger, policy, random.Random(1))
    # every role flips: agent 0 leaves the sacrifice role, the others enter
    assert sorted(assignment.sacrificers) == [1, 2, 3]


def test_switch_rate_at_midpoint_is_one_half():
    policy = SwitchPolicy(
        mode="stochastic_sigmoid", streak_midpoint=4, streak_scale=1.0
    )
    switches = 0
    trials = 10_000
    for trial in range(trials):
        ledger = make_stochastic_ledger(1, {0}, streaks={0: 4})
        assignment = stochastic_assign(ledger, policy, random.Random(trial))
        switches += 0 not in assignment.sacrificers
    rate = switches / trials
    assert abs(rate - 0.5) < 3 * 0.005  # 3 sigma for p=1/2, n=10k


def test_stochastic_assignment_is_deterministic_given_seed():
    policy = SwitchPolicy(mode="stochastic_sigmoid", streak_midpoint=2, streak_scale=0.7)

    def trajectory(seed):
        ledger = make_stochastic_ledger(5, {0, 1})
        rng = random.Random(seed)
        return [
            tuple(sorted(stochastic_assign(ledger, policy, rng).sacrificers))
            for _ in range(20)
        ]

    assert trajectory(11) == trajectory(11)
    assert trajectory(11) != trajectory(12)


def test_streaks_reset_on_switch_and_grow_otherwise():
    policy = SwitchPolicy(
        mode="stochastic_sigmoid", streak_midpoint=3, streak_scale=1e-9
    )
    ledger = make_stochastic_ledger(2, {0}, streaks={0: 5, 1: 0})
    stochastic_assign(ledger, policy, random.Random(2))
    # agent 0 was past the midpoint and flipped: streak resets
    assert ledger.records[0].streak == 0
    # agent 1 was far below and stayed: streak advances
    assert ledger.records[1].streak == 1


# ---------------------------------------------------------------------------
# delayed credit
# ---------------------------------------------------------------------------


def credit_round(pick, n_agents, rotated_role=SACRIFICE):
    return RotationLedger(n_agents, rotated_role=rotated_role).record_round(set(pick))


def test_single_sacrificer_gets_whole_outcome():
    assert delayed_credit(credit_round([2], 4), 10.0) == {2: 10.0}


def test_equal_split_among_three_waiters():
    assert delayed_credit(credit_round([0, 1, 2], 5), 9.0) == {0: 3.0, 1: 3.0, 2: 3.0}


def test_a_round_without_a_sacrificing_side_credits_nobody():
    # every agent was selected to move, so nobody waited
    assert delayed_credit(credit_round([0, 1, 2], 3, rotated_role=PRIMARY), 5.0) == {}


# ---------------------------------------------------------------------------
# fairness reporting
# ---------------------------------------------------------------------------


def test_gap_closes_after_full_cycles():
    ledger, _ = run_deterministic(4, 1, 12)
    stats = fairness_report(ledger)
    assert isinstance(stats, FairnessStats)
    assert stats.sacrifice_gap == 0


def test_single_round_gap_is_one():
    ledger, _ = run_deterministic(3, 1, 1)
    stats = fairness_report(ledger)
    assert stats.sacrifice_gap == 1


def test_fairness_requires_at_least_one_round():
    with pytest.raises(ValidationError):
        fairness_report(RotationLedger(3))


def test_credited_spread_is_reported():
    ledger = RotationLedger(3)
    assignments = [deterministic_assign(ledger, 1) for _ in range(3)]
    credits = delayed_credit(assignments[0], 6.0)
    ledger.apply_credits(credits)
    stats = fairness_report(ledger)
    assert stats.credited_spread == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------


def _uninitialized_selection():
    policy = SwitchPolicy(mode="stochastic_sigmoid")
    return stochastic_selection(RotationLedger(3), policy, random.Random(0))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: RotationLedger(3, rotated_role="mover"),
         "rotated_role must be 'sacrifice' or 'primary'"),
        (lambda: RotationLedger(3).record_round({0, 3}),
         "agent id must be an integer >= 0 and < n_agents = 3, got 3"),
        (lambda: RotationLedger(3).initialize_roles({-1}),
         "agent id must be an integer >= 0 and < n_agents = 3, got -1"),
        (lambda: RotationLedger(3).apply_credits({-1: 1.0}),
         "agent id must be an integer >= 0 and < n_agents = 3, got -1"),
        (lambda: RotationLedger(3).apply_credits({True: 1.0}),
         "agent id must be an integer >= 0 and < n_agents = 3, got True"),
        (lambda: RotationLedger(3).apply_credits({3: 1.0}),
         "agent id must be an integer >= 0 and < n_agents = 3, got 3"),
        (lambda: SwitchPolicy(mode="sometimes"),
         "mode must be 'deterministic_window' or 'stochastic_sigmoid'"),
        (lambda: SwitchPolicy(mode="stochastic_sigmoid", streak_midpoint=0.5),
         "streak_midpoint must be >= 1"),
        (lambda: SwitchPolicy(mode="stochastic_sigmoid", streak_scale=0.0),
         "streak_scale must be positive"),
        (lambda: SwitchPolicy(mode="stochastic_sigmoid", streak_scale=-1.0),
         "streak_scale must be positive"),
        (lambda: stochastic_selection(RotationLedger(3), SwitchPolicy("deterministic_window"),
                                      random.Random(0)),
         "stochastic selection requires stochastic_sigmoid mode"),
        (_uninitialized_selection, "roles are uninitialized; call initialize_roles first"),
    ],
    ids=["rotated_role", "record_round-id", "initialize_roles-id", "apply_credits-negative-id",
         "apply_credits-bool-id", "apply_credits-id-past-n", "switch-mode",
         "streak_midpoint", "streak_scale-zero", "streak_scale-negative",
         "selection-deterministic", "selection-uninitialized"],
)
def test_each_refusal_names_its_rule(make, message):
    with pytest.raises(ValidationError) as excinfo:
        make()
    assert str(excinfo.value) == message
