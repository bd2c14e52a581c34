"""Engagement environment tests."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from dogfight import environment
from dogfight.dynamics import GAMMA_LIMIT, PHYSICS_DT, V_FLOOR, AircraftState
from dogfight.missile import MissileState, MissileStatus
from dogfight.environment import (
    BLUE,
    DECISION_DT,
    EPISODE_TIME_LIMIT,
    GROUND_FLOOR,
    OBS_BOUNDS,
    OBS_DIM,
    RED,
    EngagementState,
    Outcome,
    ScenarioConfig,
    env_step,
    fire_allowed,
    flat_model,
    flatten,
    observe,
    reset,
    trajectory_rows,
)

TRIM = (1.0, 0.0, 0.0, -1.0)          # level flight, hold fire
TRIM_FIRE = (1.0, 0.0, 0.0, 1.0)      # level flight, fire when allowed


def head_on_state(separation=5000.0, alt=5000.0, speed=300.0):
    blue = AircraftState(0.0, 0.0, alt, speed, 0.0, 0.0)
    red = AircraftState(separation, 0.0, alt, speed, 0.0, math.pi)
    return EngagementState(blue, red, None, None, False, False, 0.0, Outcome.ONGOING)


def run_episode(state, a_blue, a_red, max_decisions=500):
    for _ in range(max_decisions):
        res = env_step(state, a_blue, a_red)
        state = res.state
        if res.done:
            return res
    raise AssertionError("episode did not terminate")


def test_reset_is_deterministic():
    assert reset(42) == reset(42)
    assert reset(42) != reset(43)


def test_reset_ranges():
    for seed in range(10_000):
        s = reset(seed)
        for craft in (s.blue, s.red):
            assert 250.0 <= craft.v <= 400.0
            assert 3000.0 <= craft.z <= 8000.0
            assert -math.pi < craft.phi <= math.pi
            assert craft.gamma == 0.0
        sep = math.hypot(s.red.x - s.blue.x, s.red.y - s.blue.y)
        assert 5000.0 <= sep <= 15000.0
        assert s.blue_missile is None and s.red_missile is None
        assert s.t == 0.0 and s.outcome is Outcome.ONGOING


def test_reset_degenerate_separation():
    sc = ScenarioConfig(sep_min=1000.0, sep_max=1000.0)
    s = reset(7, sc)
    assert s.red.x == 1000.0 and s.red.y == 0.0


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(speed_min=400.0, speed_max=250.0)
    with pytest.raises(ValueError):
        ScenarioConfig(alt_min=-10.0)
    # Starts below the speed floor or the ground floor are outside the
    # envelope the integrator and the termination check hold.
    with pytest.raises(ValueError, match="speed floor"):
        ScenarioConfig(speed_min=V_FLOOR - 1e-9)
    with pytest.raises(ValueError, match="ground floor"):
        ScenarioConfig(alt_min=GROUND_FLOOR - 1e-9)
    ScenarioConfig(speed_min=V_FLOOR, alt_min=GROUND_FLOOR)


def test_observation_shape_and_speed_feature():
    s = head_on_state(speed=300.0)
    obs = observe(s, BLUE)
    assert obs.shape == (OBS_DIM,) == (13,)
    assert obs[2] == pytest.approx((300.0 - 250.0) / 150.0)  # = 1/3


def test_observation_absent_missile_sentinels():
    s = head_on_state()
    obs = observe(s, BLUE)
    assert obs[5] == 0.0    # own missile flag
    assert obs[10] == 1.0   # incoming-missile distance at the far sentinel
    assert obs[12] == 0.0   # incoming missile flag


def test_observation_aspect_azimuth():
    blue = AircraftState(0.0, 0.0, 5000.0, 300.0, 0.0, 0.0)
    red = AircraftState(1000.0, 1000.0, 5000.0, 300.0, 0.0, 0.0)
    s = EngagementState(blue, red, None, None, False, False, 0.0, Outcome.ONGOING)
    obs = observe(s, BLUE)
    # Bearing pi/4 off the nose, normalized over [-pi, pi].
    assert obs[6] == pytest.approx((math.pi / 4 + math.pi) / (2 * math.pi))
    assert obs[11] == obs[6]  # world-frame line of sight equals it here (phi=0)


def _mirror(s):
    def relabel(m):
        if m is None:
            return None
        swap = {BLUE: RED, RED: BLUE}
        return replace(m, shooter=swap[m.shooter], target=swap[m.target])

    return EngagementState(s.red, s.blue, relabel(s.red_missile),
                           relabel(s.blue_missile), s.red_fired, s.blue_fired,
                           s.t, s.outcome)


def test_observation_mirror_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = _random_state(rng)
        np.testing.assert_array_equal(observe(s, BLUE), observe(_mirror(s), RED))
        np.testing.assert_array_equal(observe(s, RED), observe(_mirror(s), BLUE))


def _random_state(rng):
    def craft():
        return AircraftState(*rng.uniform(-50000, 50000, 2),
                             rng.uniform(-500, 20000),
                             rng.uniform(100, 1000),
                             rng.uniform(-1.5, 1.5),
                             rng.uniform(-math.pi, math.pi))

    def maybe_missile(shooter, target):
        if rng.random() < 0.5:
            return None
        status = rng.choice(list(MissileStatus))
        return MissileState(*rng.uniform(-50000, 50000, 2),
                            rng.uniform(-500, 20000),
                            rng.uniform(150, 900),
                            rng.uniform(-1.5, 1.5),
                            rng.uniform(-math.pi, math.pi),
                            rng.uniform(0, 60), shooter, target, status)

    bm = maybe_missile(BLUE, RED)
    rm = maybe_missile(RED, BLUE)
    return EngagementState(craft(), craft(), bm, rm,
                           bm is not None or bool(rng.random() < 0.2),
                           rm is not None or bool(rng.random() < 0.2),
                           float(rng.uniform(0, 200)), Outcome.ONGOING)


def test_observation_fuzz_bounds():
    rng = np.random.default_rng(99)
    for _ in range(100_000):
        s = _random_state(rng)
        obs = observe(s, BLUE if rng.random() < 0.5 else RED)
        assert obs.shape == (13,)
        assert np.all(obs >= 0.0) and np.all(obs <= 1.0)


def test_trim_no_fire_draws_at_time_limit():
    res = run_episode(head_on_state(separation=40000.0), TRIM, TRIM)
    assert res.outcome is Outcome.DRAW
    assert (res.reward_blue, res.reward_red) == (0.0, 0.0)
    assert res.state.t == EPISODE_TIME_LIMIT


def test_head_on_fire_blue_wins():
    res = run_episode(head_on_state(), TRIM_FIRE, TRIM)
    assert res.outcome is Outcome.BLUE_WIN
    assert (res.reward_blue, res.reward_red) == (1.0, -1.0)
    assert res.state.blue_missile.status is MissileStatus.HIT
    assert res.state.t < 8.0


def test_head_on_fire_red_wins():
    # mirror of the previous test: red's shot chases down the -x axis, which
    # regressed once when the guidance azimuth used the unfolded branch
    res = run_episode(head_on_state(), TRIM, TRIM_FIRE)
    assert res.outcome is Outcome.RED_WIN
    assert (res.reward_blue, res.reward_red) == (-1.0, 1.0)
    assert res.state.red_missile.status is MissileStatus.HIT
    assert res.state.t < 8.0


def test_head_on_outcome_is_side_symmetric():
    blue_res = run_episode(head_on_state(), TRIM_FIRE, TRIM)
    red_res = run_episode(head_on_state(), TRIM, TRIM_FIRE)
    assert abs(blue_res.state.t - red_res.state.t) < 0.1


def test_fire_gate_blocks_target_behind():
    s = head_on_state()
    s = replace(s, blue=replace(s.blue, phi=math.pi))  # nose away from red
    assert not fire_allowed(s.blue, s.red)
    res = env_step(s, TRIM_FIRE, TRIM)
    assert res.state.blue_missile is None
    assert not res.state.blue_fired


def test_fire_gate_blocks_out_of_range():
    s = head_on_state(separation=15000.0)
    assert not fire_allowed(s.blue, s.red)
    res = env_step(s, TRIM_FIRE, TRIM)
    assert res.state.blue_missile is None


def test_fire_gate_launches_in_envelope():
    s = head_on_state()
    assert fire_allowed(s.blue, s.red)
    res = env_step(s, TRIM_FIRE, TRIM)
    assert res.state.blue_fired
    assert res.state.blue_missile is not None
    assert res.state.red_missile is None


def test_fired_flag_latches_one_missile_per_side():
    s = head_on_state()
    res = env_step(s, TRIM_FIRE, TRIM)
    first = res.state.blue_missile
    res2 = env_step(res.state, TRIM_FIRE, TRIM)
    assert res2.state.blue_fired
    # Same missile advanced, not a fresh launch.
    assert res2.state.blue_missile.t == pytest.approx(first.t + DECISION_DT)


def test_finished_engagement_is_frozen():
    res = run_episode(head_on_state(), TRIM_FIRE, TRIM)
    done_state = res.state
    again = env_step(done_state, TRIM_FIRE, TRIM_FIRE)
    assert again.state == done_state
    assert again.done and again.outcome is done_state.outcome
    assert (again.reward_blue, again.reward_red) == (0.0, 0.0)


def test_ground_contact_draws():
    # Descending through the 100 m floor aborts the engagement with no
    # winner: wins must come from missiles, not opponent crashes.
    s = head_on_state(separation=40000.0)
    s = replace(s, blue=replace(s.blue, z=150.0, gamma=-0.5))
    res = run_episode(s, TRIM, TRIM)
    assert res.outcome is Outcome.DRAW
    assert (res.reward_blue, res.reward_red) == (0.0, 0.0)
    assert res.state.blue.z < 100.0
    assert res.state.t < 200.0  # ended by the floor, not the clock


def test_mutual_ground_is_draw():
    s = head_on_state(separation=40000.0)
    s = replace(s, blue=replace(s.blue, z=150.0, gamma=-0.5),
                red=replace(s.red, z=150.0, gamma=-0.5))
    res = run_episode(s, TRIM, TRIM)
    assert res.outcome is Outcome.DRAW


def test_both_missiles_expired_is_draw():
    s = head_on_state(separation=40000.0)
    dead = MissileState(0.0, 0.0, 5000.0, 150.0, 0.0, 0.0, 20.0, BLUE, RED,
                        MissileStatus.EXPIRED)
    dead2 = replace(dead, shooter=RED, target=BLUE)
    s = replace(s, blue_missile=dead, red_missile=dead2,
                blue_fired=True, red_fired=True)
    res = env_step(s, TRIM, TRIM)
    assert res.done and res.outcome is Outcome.DRAW
    assert res.state.t == pytest.approx(0.02)  # ends on the first sub-step


def last_substep_start():
    """The start time from which one substep ends exactly on the time limit."""
    t = EPISODE_TIME_LIMIT - PHYSICS_DT
    while t + PHYSICS_DT < EPISODE_TIME_LIMIT:
        t = math.nextafter(t, math.inf)
    while t + PHYSICS_DT > EPISODE_TIME_LIMIT:
        t = math.nextafter(t, -math.inf)
    assert t + PHYSICS_DT == EPISODE_TIME_LIMIT
    return t


def test_decisions_end_at_the_first_evaluate_verdict(monkeypatch):
    # The reference asks _evaluate after every substep and ends the decision
    # at the first verdict that is not ONGOING.  Both models are replaced by
    # stubs that land drawn altitudes and missile statuses at the decision's
    # first substep and hold them after that, so the outcome and the time
    # must be _evaluate's of exactly those at the first such substep,
    # boundaries included.  The stubs live in the Python loop, so the
    # compiled kernel is switched off; tests/test_kernel.py holds the
    # kernel's evaluate to this loop on real states.
    from dogfight import environment as env

    monkeypatch.setattr(env, "_kernel", None)
    landing = {}
    monkeypatch.setattr(
        env, "_aircraft_substep",
        lambda k, *_: k[:2] + (landing["z"].pop(0) if landing["z"] else k[2],)
        + k[3:])
    monkeypatch.setattr(
        env, "_missile_substep",
        lambda p, k, *_: (k, landing["status"].pop(0) if landing["status"]
                          else MissileStatus.IN_FLIGHT))
    t_limit = last_substep_start()

    flying, hit, spent = (MissileStatus.IN_FLIGHT, MissileStatus.HIT,
                          MissileStatus.EXPIRED)
    below = math.nextafter(GROUND_FLOOR, -math.inf)
    # (blue z, red z, blue missile (before, after), red missile, t0); a
    # missile is None while unfired, and fired flags follow the missiles.
    cases = [
        (5000.0, 5000.0, None, None, 0.0),
        (GROUND_FLOOR, GROUND_FLOOR, None, None, 0.0),
        (below, 5000.0, None, None, 0.0),
        (5000.0, below, None, None, 0.0),
        (5000.0, 5000.0, None, None, t_limit),
        (5000.0, 5000.0, None, None, math.nextafter(t_limit, -math.inf)),
        (5000.0, 5000.0, (flying, spent), None, 0.0),
        (5000.0, 5000.0, (flying, spent), (flying, flying), 0.0),
        (5000.0, 5000.0, (spent, spent), (flying, spent), 0.0),
        (5000.0, 5000.0, (flying, spent), (flying, spent), 0.0),
        (5000.0, 5000.0, (flying, hit), (flying, flying), 0.0),
        (5000.0, 5000.0, (spent, spent), (flying, hit), 0.0),
        (5000.0, 5000.0, (flying, hit), (flying, hit), 0.0),
        (below, below, (flying, hit), (flying, hit), t_limit),
    ]
    rng = np.random.default_rng(99)
    missiles = (None, (flying, flying), (flying, hit), (flying, spent),
                (spent, spent))
    for _ in range(500):
        zs = [float(rng.choice((GROUND_FLOOR, below, rng.uniform(0.0, 300.0))))
              for _ in range(2)]
        t0 = float(rng.choice((0.0, t_limit, math.nextafter(t_limit, -math.inf),
                               rng.uniform(190.0, 200.0))))
        cases.append((*zs, missiles[rng.integers(5)], missiles[rng.integers(5)], t0))

    seen = set()
    for z_b, z_r, m_b, m_r, t0 in cases:
        s = head_on_state()
        fired = []
        for side, m in ((BLUE, m_b), (RED, m_r)):
            fired.append(m is not None and bool(rng.random() < 0.9))
            if m is not None:
                s = replace(s, **{f"{side}_missile": MissileState(
                    0.0, 0.0, 5000.0, 600.0, 0.0, 0.0, 1.0, side,
                    RED if side == BLUE else BLUE, m[0])})
        s = replace(s, blue_fired=fired[0], red_fired=fired[1], t=t0)
        landing["z"] = [z_b, z_r]
        landing["status"] = [m[1] for m in (m_b, m_r)
                             if m is not None and m[0] is flying]
        res = env_step(s, TRIM, TRIM)
        assert not landing["z"] and not landing["status"]
        after = [None if m is None else m[1] for m in (m_b, m_r)]
        for k in range(1, round(DECISION_DT / PHYSICS_DT) + 1):
            t = t0 + k * PHYSICS_DT
            expected = env._evaluate(z_b, z_r, *after, *fired, t)
            if expected is not Outcome.ONGOING:
                break
        assert (res.outcome, res.state.t) == (expected, t)
        seen.add(res.outcome)
    assert seen == set(Outcome)


def test_zero_sum_and_sparse_rewards():
    state = head_on_state()
    for _ in range(50):
        res = env_step(state, TRIM_FIRE, TRIM_FIRE)
        assert res.reward_blue + res.reward_red == 0.0
        if res.reward_blue != 0.0:
            assert res.done
        state = res.state
        if res.done:
            break


def test_env_step_deterministic():
    s = reset(5)
    a = (2.0, 0.5, 0.3, 1.0)
    b = (1.0, -0.2, -0.4, 1.0)
    r1 = env_step(s, a, b)
    r2 = env_step(s, a, b)
    assert r1.state == r2.state
    np.testing.assert_array_equal(r1.obs_blue, r2.obs_blue)


def test_action_validation():
    s = reset(0)
    with pytest.raises(ValueError):
        env_step(s, (math.nan, 0.0, 0.0, -1.0), TRIM)


MALFORMED_ACTIONS = {
    "list of 3": [1.0, 0.0, 0.0],
    "list of 5": [1.0, 0.0, 0.0, -1.0, 0.0],
    "2-D list": [[1.0, 0.0, 0.0, -1.0]] * 2,
    "2-D list of 4 rows": [[1.0, 0.0, 0.0, -1.0]] * 4,
    "array of 3": np.zeros(3),
    "array of 5": np.zeros(5),
    "2-D array": np.zeros((2, 4)),
    "2-D array of 4 rows": np.zeros((4, 4)),
    "column of 4": np.zeros((4, 1)),
    "scalar": 1.0,
}


@pytest.mark.parametrize("name", list(MALFORMED_ACTIONS))
def test_malformed_actions_raise_value_error(name, monkeypatch):
    # Each side, through env_step and through the flat model with and
    # without the compiled kernel: the same ValueError every time.
    bad = MALFORMED_ACTIONS[name]
    s = reset(0)
    messages = set()
    for kernel in (environment._kernel, None):
        monkeypatch.setattr(environment, "_kernel", kernel)
        for step in (env_step, lambda st, a, b: flat_model()(flatten(st), a, b)):
            for pair in ((bad, TRIM), (TRIM, bad)):
                with pytest.raises(ValueError, match="4 finite reals") as info:
                    step(s, *pair)
                messages.add(str(info.value))
    assert len(messages) == 1


def test_a_missile_in_the_wrong_slot_raises_on_every_path(monkeypatch):
    # env_step flattens the state before it picks a path, and observe
    # flattens it too, so the kernel, the Python loop, the recorder's loop
    # and observe all refuse a missile that is not its slot's side's own,
    # with the same ValueError.
    s = head_on_state()
    blue_shot = MissileState(0.0, 0.0, 5000.0, 600.0, 0.0, 0.0, 1.0, BLUE, RED)
    red_shot = replace(blue_shot, shooter=RED, target=BLUE)
    for wrong in (replace(s, blue_missile=red_shot, blue_fired=True),
                  replace(s, red_missile=blue_shot, red_fired=True)):
        messages = set()
        for kernel in (environment._kernel, None):
            monkeypatch.setattr(environment, "_kernel", kernel)
            for recorder in (None, [].append):
                with pytest.raises(ValueError, match="missile slot holds") as info:
                    env_step(wrong, TRIM, TRIM, recorder=recorder)
                messages.add(str(info.value))
        with pytest.raises(ValueError, match="missile slot holds") as info:
            observe(wrong, BLUE)
        messages.add(str(info.value))
        assert len(messages) == 1


def test_a_finished_flat_engagement_comes_back_unchanged(monkeypatch):
    # As env_step returns a finished engagement unchanged without reading
    # the actions, the flat model returns its flat tuple, its outcome code
    # and the observations of observe, with the kernel and without it.
    finished = run_episode(head_on_state(), TRIM_FIRE, TRIM).state
    flat = flatten(finished)
    assert flat[9] != 0
    for kernel in (environment._kernel, None):
        monkeypatch.setattr(environment, "_kernel", kernel)
        for action in (TRIM, MALFORMED_ACTIONS["list of 3"]):
            nxt, obs_blue, obs_red, code = flat_model()(flat, action, action)
            assert nxt == flat and code == flat[9]
            assert np.array(obs_blue).tobytes() == \
                observe(finished, BLUE).tobytes()
            assert np.array(obs_red).tobytes() == \
                observe(finished, RED).tobytes()
            assert env_step(finished, action, action).state is finished


def test_recorder_streams_rows():
    rows = []
    s = head_on_state()
    res = env_step(s, TRIM_FIRE, TRIM, recorder=rows.append)
    assert len(rows) == 2 * 25  # two sides for each sub-step
    assert rows[0][1] == BLUE and rows[1][1] == RED
    ts = [r[0] for r in rows[::2]]
    assert ts == sorted(ts) and ts[-1] == pytest.approx(0.5)
    # Blue fired at the boundary: its missile columns are populated.
    assert rows[0][8] is not None
    assert rows[1][8] is None
    assert rows[0][11] == "Ongoing"
    start = trajectory_rows(s)
    assert len(start) == 2 and start[0][0] == 0.0


def test_outcome_latches_through_noop_steps():
    res = run_episode(head_on_state(), TRIM_FIRE, TRIM)
    state = res.state
    for _ in range(3):
        nxt = env_step(state, TRIM, TRIM)
        assert nxt.outcome is res.outcome
        state = nxt.state


# sha256 of the rollout below, taken from the integrator as it stood before
# env_step was rewritten over plain floats.  Any change to the arithmetic of
# the aircraft, missile or termination code moves it.
ROLLOUT_SHA256 = "742ae6c3996f3b1557d5e28117f9ab395ff091a06cc86193c0db34afcb97206d"


def test_seeded_rollout_is_pinned():
    # Random raw actions wider than the control envelope, fire enabled, each
    # held for a few decisions so that climbs reach the flight-path clamp and
    # decelerations reach the speed floor.  Every recorder row, every
    # returned state and both observations go into the digest.
    rng = np.random.default_rng(2024)
    digest = hashlib.sha256()
    rows = []
    state = held = None
    floored = clamped = hits = 0
    for _ in range(10_000):
        if state is None:
            state = reset(int(rng.integers(0, 2 ** 63)))
        if held is None or rng.random() < 0.2:
            held = rng.uniform((-1.0, -3.0, -4.0, -1.0), (9.0, 3.0, 4.0, 1.0),
                               size=(2, 4))
        res = env_step(state, held[0], held[1], recorder=rows.append)
        floored += sum(r[5] == V_FLOOR for r in rows)
        clamped += sum(abs(r[6]) == GAMMA_LIMIT for r in rows)
        digest.update(repr(rows).encode())
        digest.update(repr(res.state).encode())
        digest.update(res.obs_blue.tobytes())
        digest.update(res.obs_red.tobytes())
        digest.update(repr((res.reward_blue, res.reward_red, res.done,
                            res.outcome.value)).encode())
        rows.clear()
        if res.done:
            hits += res.outcome in (Outcome.BLUE_WIN, Outcome.RED_WIN)
            state = None
        else:
            state = res.state
    assert floored > 0 and clamped > 0 and hits > 0
    assert digest.hexdigest() == ROLLOUT_SHA256
