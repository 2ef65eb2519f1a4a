import random
from dataclasses import replace

import numpy as np
import pytest

from coopdyn.envs import (
    DungeonConfig,
    IntersectionConfig,
    _sample_categorical,
    intersection_episode,
    run_dungeon,
)
from coopdyn.errors import ValidationError
from coopdyn.ipd import Alternator, MatchConfig, PayoffMatrix, deviate_payoff, stick_payoff
from coopdyn.mfg import MOVE, MfgParams, RewardTable, reward_array
from coopdyn.roles import RotationLedger, SwitchPolicy, default_switch, deterministic_assign


# ---------------------------------------------------------------------------
# dungeon
# ---------------------------------------------------------------------------


def test_dungeon_rotates_the_sacrifice_evenly():
    result = run_dungeon(DungeonConfig(n_agents=3, rounds=6))
    sacrificers = result.rounds.tolist()
    assert sacrificers[:3] == [0, 1, 2]
    assert all(sacrificers.count(i) == 2 for i in range(3))


def test_dungeon_has_exactly_one_sacrificer_per_round():
    for mode_kwargs in (
        {},
        {
            "switch": SwitchPolicy(
                mode="stochastic_sigmoid", streak_midpoint=1, streak_scale=0.5
            )
        },
    ):
        result = run_dungeon(DungeonConfig(n_agents=4, rounds=12, seed=5, **mode_kwargs))
        assert result.rounds.dtype == np.int64 and len(result.rounds) == 12
        for sacrificer, states in zip(result.rounds.tolist(), result.states):
            assert np.flatnonzero(states[:, 0]).tolist() == [sacrificer]


def test_episode_states_log_each_agents_role_streak_and_sacrifices():
    result = run_dungeon(DungeonConfig(n_agents=3, rounds=4))
    assert result.states.shape == (4, 3, 3) and result.states.dtype == np.int64
    # the sacrifice goes round 0, 1, 2, 0; a streak counts earlier rounds in
    # the same role
    assert result.states.tolist() == [
        [[1, 0, 1], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [1, 0, 1], [0, 1, 0]],
        [[0, 1, 1], [0, 0, 1], [1, 0, 1]],
        [[1, 0, 2], [0, 1, 1], [0, 0, 1]],
    ]
    final = [(rec.role == "sacrifice", rec.streak, rec.times_sacrifice)
             for rec in result.ledger.records]
    assert result.states[-1].tolist() == [list(state) for state in final]


def test_dungeon_delayed_credit_flows_to_sacrificers():
    result = run_dungeon(DungeonConfig(n_agents=3, rounds=6, success_reward=2.0))
    # each agent served twice; each service enables 2 escapes worth 2.0
    for record in result.ledger.records:
        assert record.credited_reward == pytest.approx(2 * 2 * 2.0)
    assert result.fairness.sacrifice_gap == 0


def test_the_largest_state_log_numpy_can_describe_is_accepted():
    # numpy describes an array of at most intp-max bytes; 24 bytes per
    # (round, agent) entry of the int64 state log. Nothing here runs.
    entries = np.iinfo(np.intp).max // 24
    for n_agents, make in (
        (3, lambda rounds: DungeonConfig(rounds=rounds, n_agents=3)),
        (4, lambda rounds: IntersectionConfig(n_agents=4, threshold=2, rounds=rounds)),
    ):
        largest = entries // n_agents
        assert make(largest).rounds == largest
        with pytest.raises(ValidationError, match="^rounds, n_agents: .* numpy's size limit"):
            make(largest + 1)


def test_dungeon_config_validation():
    with pytest.raises(ValidationError):
        DungeonConfig(n_agents=1, rounds=3)
    with pytest.raises(ValidationError):
        DungeonConfig(n_agents=3, rounds=0)


# ---------------------------------------------------------------------------
# intersection
# ---------------------------------------------------------------------------


def test_static_assignment_never_rotates():
    config = IntersectionConfig(
        n_agents=5, threshold=2, rounds=8, cohort=2, assignment="static"
    )
    result = intersection_episode(config)
    assert result.rounds.tolist() == [2] * 8
    # every round's state log shows agents 0 and 1 outside the sacrifice role
    assert np.all(result.states[:, :, 0] == [0, 0, 1, 1, 1])
    # max-min mover-count gap equals the round count
    counts = [result.ledger.rounds_completed - rec.times_sacrifice for rec in result.ledger.records]
    assert max(counts) - min(counts) == 8


def test_rotation_spreads_moves_evenly():
    config = IntersectionConfig(
        n_agents=6, threshold=2, rounds=9, cohort=2, assignment="rotation"
    )
    result = intersection_episode(config)
    counts = [result.ledger.rounds_completed - rec.times_sacrifice for rec in result.ledger.records]
    assert counts == [3, 3, 3, 3, 3, 3]
    assert np.all(result.rounds <= config.threshold)


def test_rotation_gap_stays_within_one_when_rounds_do_not_divide():
    config = IntersectionConfig(
        n_agents=6, threshold=2, rounds=10, cohort=2, assignment="rotation"
    )
    result = intersection_episode(config)
    counts = [result.ledger.rounds_completed - rec.times_sacrifice for rec in result.ledger.records]
    assert max(counts) - min(counts) <= 1


def test_forced_congestion_blocks_everyone():
    config = IntersectionConfig(
        n_agents=4, threshold=1, rounds=3, cohort=3, assignment="static"
    )
    result = intersection_episode(config)
    assert result.rounds.tolist() == [3, 3, 3]  # each above the threshold 1
    # a blocked round hands its waiters nothing
    assert all(rec.credited_reward == 0.0 for rec in result.ledger.records)


def test_rewards_follow_the_realized_count():
    config = IntersectionConfig(
        n_agents=4, threshold=2, rounds=1, cohort=2, assignment="static"
    )
    result = intersection_episode(config)
    assert result.rounds.tolist() == [2]
    # the two waiters split two movers' move_clear rewards
    credited = [rec.credited_reward for rec in result.ledger.records]
    assert credited == [0.0, 0.0, 2 * 1.0 / 2, 2 * 1.0 / 2]


def test_waiters_split_the_haul_summed_one_mover_at_a_time():
    params = MfgParams(n_agents=12, threshold=10, reward_table=RewardTable(0.1, 0.05, 0.02, 0.0))
    config = IntersectionConfig(
        n_agents=12, threshold=10, rounds=1, cohort=10, assignment="static", params=params
    )
    result = intersection_episode(config)
    assert sum([0.1] * 10) != 10 * 0.1
    assert [rec.credited_reward for rec in result.ledger.records[10:]] == [
        sum([0.1] * 10) / 2
    ] * 2 == [0.49999999999999994] * 2


def test_policy_driven_episode_uses_the_state_sequence():
    params = MfgParams(n_agents=3, threshold=1, horizon=4)
    policy = np.zeros((4, 4, 2))
    policy[:, :, MOVE] = 1.0  # everyone always moves: j = 3 > threshold
    config = IntersectionConfig(
        n_agents=3, threshold=1, rounds=4, assignment="policy", params=params
    )
    result = intersection_episode(config, policy=policy)
    assert result.rounds.tolist() == [3] * 4  # each above the threshold 1
    assert all(rec.credited_reward == 0.0 for rec in result.ledger.records)


def cdf_walk(u, probs):
    """The start-state draw by its definition: walk the running sum of
    `probs` to the first state whose sum exceeds `u`, else the last state."""
    acc = 0.0
    for idx, p in enumerate(probs):
        acc += p
        if u < acc:
            return idx
    return len(probs) - 1


class FixedDraw:
    """An rng stand-in whose one uniform draw is `u`."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


# [0.1] * 10 sums to 1 - 2**-53, just below 1; the others hold zero states
DRAW_DISTRIBUTIONS = [
    [1.0], [0.0, 1.0], [0.25, 0.0, 0.0, 0.75], [0.5, 0.5, 0.0], [0.1] * 10, [0.3, 0.0, 0.3, 0.3],
]


@pytest.mark.parametrize("probs", DRAW_DISTRIBUTIONS)
def test_the_start_state_draw_is_the_cdf_walk_at_every_edge(probs):
    # every running sum and its neighbours, 0 and the largest double below 1
    sums = np.cumsum(probs).tolist()
    edges = {0.0, 1.0 - 2**-53, *sums, *np.nextafter(sums, 0.0), *np.nextafter(sums, 1.0)}
    for u in sorted(u for u in edges if 0.0 <= u < 1.0):
        assert _sample_categorical(FixedDraw(u), probs) == cdf_walk(u, probs), u


def test_a_draw_at_or_past_the_total_takes_the_last_state():
    assert _sample_categorical(FixedDraw(1.0 - 2**-53), [0.1] * 10) == 9
    assert _sample_categorical(FixedDraw(0.95), [0.3, 0.0, 0.3, 0.3, 0.0]) == 4


def test_the_start_state_draw_is_the_cdf_walk_for_every_seed():
    generator = np.random.default_rng(7)
    for size in (2, 3, 8, 21):
        for _ in range(10):
            probs = generator.dirichlet(np.ones(size))
            probs[generator.random(size) < 0.3] = 0.0  # zero states, sum below 1
            for seed in range(200):
                u = random.Random(seed).random()
                assert _sample_categorical(random.Random(seed), probs) == cdf_walk(u, probs)


def test_a_round_nobody_moves_in_credits_a_float_zero():
    params = MfgParams(n_agents=3, threshold=1, horizon=4)
    policy = np.zeros((4, 4, 2))
    policy[:, :, 1 - MOVE] = 1.0  # nobody ever moves
    config = IntersectionConfig(
        n_agents=3, threshold=1, rounds=4, assignment="policy", params=params
    )
    result = intersection_episode(config, policy=policy)
    assert result.rounds.tolist() == [0] * 4
    # every round passes and credits its three waiters a share of nothing
    for rec in result.ledger.records:
        assert type(rec.credited_reward) is float and rec.credited_reward == 0.0


def test_waiters_collect_delayed_credit_when_rounds_pass():
    config = IntersectionConfig(
        n_agents=4, threshold=2, rounds=2, cohort=2, assignment="static"
    )
    result = intersection_episode(config)
    # waiters 2,3 split the movers' haul (2 movers x 1.0) each round
    for agent_id in (2, 3):
        assert result.ledger.records[agent_id].credited_reward == pytest.approx(2.0)
    for agent_id in (0, 1):
        assert result.ledger.records[agent_id].credited_reward == 0.0


def test_intersection_config_validation():
    with pytest.raises(ValidationError):
        IntersectionConfig(n_agents=4, threshold=0, rounds=3)
    with pytest.raises(ValidationError):
        IntersectionConfig(n_agents=4, threshold=2, rounds=3, cohort=4)
    with pytest.raises(ValidationError):
        IntersectionConfig(n_agents=4, threshold=2, rounds=3, assignment="nope")
    with pytest.raises(ValidationError, match="distinct"):
        IntersectionConfig(
            n_agents=4, threshold=2, rounds=3, assignment="static", static_movers=(0, 0, 1)
        )
    config = IntersectionConfig(n_agents=4, threshold=2, rounds=3, assignment="policy")
    with pytest.raises(ValidationError):
        intersection_episode(config)  # policy mode needs a policy


def test_keys_an_assignment_never_reads_are_rejected():
    with pytest.raises(ValidationError, match="static_movers: used only when assignment"):
        IntersectionConfig(n_agents=4, threshold=2, rounds=3, static_movers=(0, 1))
    stochastic = SwitchPolicy(mode="stochastic_sigmoid")
    window = SwitchPolicy(mode="deterministic_window")
    for assignment, switch in (("rotation", stochastic), ("stochastic", window)):
        with pytest.raises(ValidationError, match="exactly when assignment is 'stochastic'"):
            IntersectionConfig(4, 2, 3, assignment=assignment, switch=switch)
    # a policy or static_movers picks the movers, so cohort keeps its default, the threshold
    for movers in ({"assignment": "policy"}, {"assignment": "static", "static_movers": (0, 1)}):
        with pytest.raises(ValidationError, match="^cohort: used only when neither a policy nor "
                                                  "static_movers picks the movers$"):
            IntersectionConfig(4, 2, 3, cohort=3, **movers)
        assert IntersectionConfig(4, 2, 3, cohort=2, **movers).cohort == 2


def test_a_stochastic_episode_without_a_switch_uses_the_default_switch():
    config = IntersectionConfig(n_agents=6, threshold=2, rounds=30, assignment="stochastic")
    explicit = replace(config, switch=default_switch(6, 2, "stochastic_sigmoid"))
    assert config.switch == explicit.switch
    ours, theirs = intersection_episode(config), intersection_episode(explicit)
    assert np.array_equal(ours.rounds, theirs.rounds)
    assert np.array_equal(ours.states, theirs.states)


def test_each_config_resolves_its_unset_switch_and_params_when_built():
    rotation = IntersectionConfig(n_agents=6, threshold=2, rounds=3, cohort=3)
    assert rotation.switch == default_switch(6, 3, "deterministic_window")
    assert rotation.params == MfgParams(n_agents=6, threshold=2)
    stochastic = replace(rotation, assignment="stochastic", switch=None)
    assert stochastic.switch == default_switch(6, 3, "stochastic_sigmoid")
    assert DungeonConfig(rounds=3, n_agents=4).switch == default_switch(
        4, 1, "deterministic_window"
    )


@pytest.mark.parametrize("policy", [
    np.full((3, 4, 2), 0.5),  # wrong shape
    np.full((4, 7, 2), 2.0),  # not probability pairs
    np.full((4, 7), 0.5),  # 2-D
], ids=["shape", "entries", "2d"])
def test_policy_episode_rejects_a_bad_policy(policy):
    params = MfgParams(n_agents=6, threshold=2, horizon=4)
    config = IntersectionConfig(
        n_agents=6, threshold=2, rounds=5, assignment="policy", params=params
    )
    with pytest.raises(ValidationError, match="policy"):
        intersection_episode(config, policy=policy)


def test_stochastic_intersection_is_seed_deterministic():
    switch = SwitchPolicy(mode="stochastic_sigmoid", streak_midpoint=2, streak_scale=0.5)
    config = IntersectionConfig(
        n_agents=5, threshold=2, rounds=10, cohort=2,
        assignment="stochastic", switch=switch, seed=13,
    )
    first = intersection_episode(config)
    second = intersection_episode(config)
    assert np.array_equal(first.rounds, second.rounds)
    assert np.array_equal(first.states, second.states)
    assert len(set(first.rounds.tolist())) > 1  # the draws do vary


def rebuilt_credits(result, outcomes):
    """Each agent's credit as the round-order sum of its per-round shares:
    a credited round (outcome not None) splits its outcome evenly among the
    agents its state log shows in the sacrifice role."""
    credits = [0.0] * result.states.shape[1]
    for outcome, state in zip(outcomes, result.states):
        sacrificers = np.flatnonzero(state[:, 0]).tolist()
        if outcome is not None and sacrificers:
            for agent in sacrificers:
                credits[agent] += outcome / len(sacrificers)
    return credits


def test_credits_are_the_round_order_sums_of_each_rounds_shares():
    switch = SwitchPolicy(mode="stochastic_sigmoid", streak_midpoint=1, streak_scale=0.5)
    dungeon = run_dungeon(
        DungeonConfig(n_agents=4, rounds=50, success_reward=0.1, switch=switch, seed=3)
    )
    params = MfgParams(n_agents=7, threshold=3, horizon=5,
                       reward_table=RewardTable(0.1, 0.07, 0.03, 0.0))
    policy = np.zeros((5, 8, 2))
    policy[..., MOVE] = np.linspace(0.2, 0.6, 8)
    policy[..., 1 - MOVE] = 1.0 - policy[..., MOVE]
    config = IntersectionConfig(
        n_agents=7, threshold=3, rounds=40, assignment="policy", params=params, seed=11
    )
    intersection = intersection_episode(config, policy=policy)
    passed = intersection.rounds <= 3
    assert 0 < np.count_nonzero(passed) < 40
    # a passed round's outcome is its movers' rewards, summed one at a time
    move = reward_array(params)[:, MOVE].tolist()
    hauls = [sum([move[n]] * n, 0.0) if ok else None
             for n, ok in zip(intersection.rounds.tolist(), passed)]
    # a dungeon round's outcome is the escapes its sacrifice enabled
    for result, outcomes in ((dungeon, [0.1 * 3] * 50), (intersection, hauls)):
        credited = [rec.credited_reward for rec in result.ledger.records]
        assert credited == rebuilt_credits(result, outcomes)


def fairness_episodes():
    switch = SwitchPolicy(mode="stochastic_sigmoid", streak_midpoint=2, streak_scale=0.5)
    params = MfgParams(n_agents=5, threshold=2, horizon=4)
    policy = np.full((4, 6, 2), 0.5)
    for assignment in ("rotation", "stochastic", "static", "policy"):
        config = IntersectionConfig(
            n_agents=5, threshold=2, rounds=11, assignment=assignment, params=params,
            switch=switch if assignment == "stochastic" else None, seed=7,
        )
        yield intersection_episode(config, policy=policy)
    yield run_dungeon(DungeonConfig(n_agents=4, rounds=9, switch=switch, seed=7))


def test_the_primary_count_gap_is_the_sacrifice_gap():
    # every round gives each agent exactly one role
    gaps = []
    for result in fairness_episodes():
        ledger = result.ledger
        primary = [ledger.rounds_completed - rec.times_sacrifice for rec in ledger.records]
        assert max(primary) - min(primary) == result.fairness.sacrifice_gap
        gaps.append(result.fairness.sacrifice_gap)
    assert len(set(gaps)) > 1  # the episodes are not all alike


# ---------------------------------------------------------------------------
# integer arguments: one rule everywhere, bools and floats rejected
# ---------------------------------------------------------------------------

COUNT_SITES = {
    "MatchConfig.horizon": lambda v: MatchConfig(horizon=v),
    "Alternator.punishment_length": lambda v: Alternator(punishment_length=v),
    "RotationLedger.n_agents": lambda v: RotationLedger(v),
    "deterministic_assign.k": lambda v: deterministic_assign(RotationLedger(4), v),
    "DungeonConfig.n_agents": lambda v: DungeonConfig(rounds=6, n_agents=v),
    "DungeonConfig.rounds": lambda v: DungeonConfig(rounds=v),
    "DungeonConfig.seed": lambda v: DungeonConfig(rounds=6, seed=v),
    "IntersectionConfig.n_agents": lambda v: IntersectionConfig(v, 1, 3),
    "IntersectionConfig.threshold": lambda v: IntersectionConfig(4, v, 3),
    "IntersectionConfig.rounds": lambda v: IntersectionConfig(4, 2, v),
    "IntersectionConfig.cohort": lambda v: IntersectionConfig(4, 2, 3, cohort=v),
    "IntersectionConfig.seed": lambda v: IntersectionConfig(4, 2, 3, seed=v),
}


@pytest.mark.parametrize("value", [True, 1.5])
@pytest.mark.parametrize("site", sorted(COUNT_SITES))
def test_counts_reject_bools_and_floats(site, value):
    with pytest.raises(ValidationError, match="must be an integer"):
        COUNT_SITES[site](value)


ID_SITES = {
    "RotationLedger.record_round": lambda v: RotationLedger(3).record_round({v}),
    "RotationLedger.initialize_roles": lambda v: RotationLedger(3).initialize_roles({v}),
    "IntersectionConfig.static_movers": lambda v: IntersectionConfig(
        4, 2, 2, assignment="static", static_movers=(3, v)
    ),
}


@pytest.mark.parametrize("value", [True, False, 1.0, 2.5, "1", None])
@pytest.mark.parametrize("site", sorted(ID_SITES))
def test_agent_ids_reject_bools_floats_and_non_numbers(site, value):
    with pytest.raises(ValidationError, match="must be an integer"):
        ID_SITES[site](value)


@pytest.mark.parametrize("value", [-1, 4, 5])
@pytest.mark.parametrize("site", sorted(ID_SITES))
def test_agent_ids_out_of_range_share_the_range_message(site, value):
    n_agents = 4 if site.startswith("IntersectionConfig") else 3
    name = "static_movers id" if site.startswith("IntersectionConfig") else "agent id"
    with pytest.raises(ValidationError) as excinfo:
        ID_SITES[site](value)
    assert str(excinfo.value) == (
        f"{name} must be an integer >= 0 and < n_agents = {n_agents}, got {value}"
    )


# ---------------------------------------------------------------------------
# one rule, one message: thresholds and cohorts, discounts, episode sizes
# ---------------------------------------------------------------------------

RANGE_SITES = {
    "MfgParams.threshold": lambda v: MfgParams(n_agents=4, threshold=v),
    "IntersectionConfig.threshold": lambda v: IntersectionConfig(4, v, 3),
    "IntersectionConfig.cohort": lambda v: IntersectionConfig(4, 2, 3, cohort=v),
    "default_switch.cohort": lambda v: default_switch(4, v, "stochastic_sigmoid"),
    "deterministic_assign.cohort": lambda v: deterministic_assign(RotationLedger(4), v),
}


@pytest.mark.parametrize("value", [0, 4, 5])
@pytest.mark.parametrize("site", sorted(RANGE_SITES))
def test_thresholds_and_cohorts_share_one_range_message(site, value):
    name = site.split(".")[1]
    with pytest.raises(ValidationError) as excinfo:
        RANGE_SITES[site](value)
    assert str(excinfo.value) == f"{name} must be an integer >= 1 and < n_agents = 4, got {value}"


DISCOUNT_SITES = {
    "MfgParams": lambda v: MfgParams(n_agents=4, threshold=2, discount=v),
    "MatchConfig": lambda v: MatchConfig(horizon=5, discount=v),
    "stick_payoff": lambda v: stick_payoff(5, 0, v),
    "deviate_payoff": lambda v: deviate_payoff(5, 1, v),
}


@pytest.mark.parametrize("value", [-0.1, 1.0, 1.5])
@pytest.mark.parametrize("site", sorted(DISCOUNT_SITES))
def test_every_discount_shares_one_range_message(site, value):
    with pytest.raises(ValidationError) as excinfo:
        DISCOUNT_SITES[site](value)
    assert str(excinfo.value) == f"discount must lie in [0, 1), got {value!r}"


EPISODE_SITES = {
    "DungeonConfig": lambda **kw: DungeonConfig(**{"rounds": 6, **kw}),
    "IntersectionConfig": lambda **kw: IntersectionConfig(**{"n_agents": 4, "threshold": 2,
                                                            "rounds": 6, **kw}),
}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"rounds": 0}, "rounds must be an integer >= 1, got 0"),
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
    ],
    ids=["rounds", "seed"],
)
@pytest.mark.parametrize("site", sorted(EPISODE_SITES))
def test_both_environments_share_one_episode_size_check(site, change, message):
    with pytest.raises(ValidationError) as excinfo:
        EPISODE_SITES[site](**change)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "params, message",
    [
        (MfgParams(n_agents=5, threshold=2), "params.n_agents must match the environment"),
        (MfgParams(n_agents=4, threshold=3), "params.threshold must match the environment"),
    ],
    ids=["n_agents", "threshold"],
)
def test_intersection_params_must_match_its_sizes(params, message):
    with pytest.raises(ValidationError) as excinfo:
        IntersectionConfig(4, 2, 3, params=params)
    assert str(excinfo.value) == message


# ---------------------------------------------------------------------------
# float fields: finite ints or floats only, bools and text rejected by name
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: SwitchPolicy(mode="stochastic_sigmoid", streak_midpoint=float("nan")),
         "streak_midpoint is non-finite"),
        (lambda: SwitchPolicy(mode="stochastic_sigmoid", streak_scale=float("inf")),
         "streak_scale is non-finite"),
        (lambda: DungeonConfig(rounds=6, success_reward=float("nan")),
         "success_reward is non-finite"),
        (lambda: DungeonConfig(rounds=6, success_reward=True),
         "success_reward must be a number"),
        (lambda: PayoffMatrix(float("inf"), 3, 1, 0), "temptation is non-finite"),
        (lambda: PayoffMatrix("5", 3, 1, 0), "temptation must be a number"),
        (lambda: MatchConfig(horizon=5, discount=False), "discount must be a number"),
        (lambda: MatchConfig(horizon=5, discount=float("nan")), "discount is non-finite"),
    ],
    ids=["streak_midpoint-nan", "streak_scale-inf", "success_reward-nan", "success_reward-bool",
         "temptation-inf", "temptation-text", "discount-bool", "discount-nan"],
)
def test_float_fields_reject_non_finite_values_bools_and_text(make, match):
    with pytest.raises(ValidationError, match=f"^{match}"):
        make()
