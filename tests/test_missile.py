"""Missile model unit tests.

Mass, thrust and drag values are checked against hand-computed numbers.
Guidance command cases use line-of-sight geometries simple enough to work
the formulas by hand.  Closed-loop intercept times are frozen regression
values from a validated run.
"""

import math
import struct

import numpy as np
import pytest

from dogfight import missile
from dogfight.dynamics import G, GAMMA_LIMIT, PHYSICS_DT, AircraftState, wrap_angle
from dogfight.missile import (
    HIT_RADIUS,
    MAX_COMMAND,
    MAX_FLIGHT_TIME,
    MIN_SPEED,
    GuidanceSingularityError,
    MissileState,
    MissileStatus,
    ZeroRangeError,
    drag_of,
    launch_missile,
    mass_at,
    missile_step,
    missile_velocity,
    pn_commands,
    thrust_at,
)


def fresh(x=0.0, y=0.0, z=5000.0, vm=300.0, gamma=0.0, phi=0.0, t=0.0, **kw):
    return MissileState(x, y, z, vm, gamma, phi, t, "blue", "red", **kw)


def fly_against_linear_target(m, tpos, tvel, dt=PHYSICS_DT):
    while m.status is MissileStatus.IN_FLIGHT:
        m = missile_step(m, tpos, tvel, dt)
        tpos = (tpos[0] + tvel[0] * dt, tpos[1] + tvel[1] * dt,
                tpos[2] + tvel[2] * dt)
    return m


def test_mass_schedule():
    assert mass_at(0.0) == 170.0
    assert mass_at(6.0) == 128.0
    assert mass_at(12.0) == 86.0
    assert mass_at(30.0) == 86.0
    # Non-increasing and continuous across burnout.
    ts = [i * 0.25 for i in range(0, 161)]
    ms = [mass_at(t) for t in ts]
    assert all(a >= b for a, b in zip(ms, ms[1:]))
    assert mass_at(12.0 - 1e-9) == pytest.approx(mass_at(12.0 + 1e-9), abs=1e-7)


def test_thrust_cutoff():
    assert thrust_at(0.0) == 2000.0
    assert thrust_at(12.0) == 2000.0
    assert thrust_at(12.0 + 1e-9) == 0.0


def test_drag_value_at_900():
    # 0.5 * 0.607 * 900^2 * 0.0324 * 0.9, worked out by hand.
    assert drag_of(900.0) == pytest.approx(7168.5486, rel=1e-9)


def test_drag_quadratic_scaling():
    # Halving the speed quarters the drag, exactly in floating point
    # because the scale factor is a power of two.
    assert 4.0 * drag_of(450.0) == drag_of(900.0)
    assert drag_of(0.0) == 0.0


# The guidance cases below give pn_commands the target's position and
# velocity relative to the missile.  With NAV_GAIN, vm and cos(epsilon + beta)
# non-zero, n_mh is zero exactly when the elevation rate is, and then n_mc
# is zero exactly when the azimuth rate is.


def test_zero_rate_head_on_geometry_gives_zero_commands():
    # Missile at (0, 0, 5000) flying +x at 300 m/s, target 5 km ahead at the
    # same altitude flying -x at 300 m/s: both line-of-sight rates vanish.
    assert pn_commands(5000.0, 0.0, 0.0, -600.0, 0.0, 0.0, 300.0, 0.0) == (0.0, 0.0)


def test_horizontal_crossing_command_by_hand():
    # Target abeam-crossing: beta_dot = (300*4000)/4000^2 = 0.075 rad/s,
    # epsilon and epsilon_dot are zero, so only the yaw channel acts:
    # n_mc = K * vm / g * beta_dot.
    n_mc, n_mh = pn_commands(4000.0, 0.0, 0.0, -300.0, 300.0, 0.0, 300.0, 0.0)
    assert n_mc == pytest.approx(4.0 * 300.0 * 0.075 / 9.8, rel=1e-12)
    assert n_mh == 0.0


def test_commands_linear_in_navigation_gain(monkeypatch):
    los = (4000.0, 500.0, 200.0, -300.0, 300.0, -30.0)
    full = pn_commands(*los, 300.0, 0.1)
    monkeypatch.setattr(missile, "NAV_GAIN", 2.0)
    half = pn_commands(*los, 300.0, 0.1)
    assert full[0] == pytest.approx(2.0 * half[0], rel=1e-12)
    assert full[1] == pytest.approx(2.0 * half[1], rel=1e-12)


def test_commands_clamped_symmetrically():
    # beta_dot = 1000*100/100^2 = 10 rad/s, far beyond the clamp.
    n_mc, _ = pn_commands(100.0, 0.0, 0.0, 0.0, 1000.0, 0.0, 300.0, 0.0)
    assert n_mc == MAX_COMMAND
    n_mc, _ = pn_commands(100.0, 0.0, 0.0, 0.0, -1000.0, 0.0, 300.0, 0.0)
    assert n_mc == -MAX_COMMAND


def test_vertical_line_of_sight_is_singular():
    with pytest.raises(GuidanceSingularityError):
        pn_commands(0.0, 0.0, 3000.0, 0.0, 0.0, 0.0, 300.0, 0.0)


def test_right_angle_sum_is_singular():
    # Target directly abeam: beta = pi/2, epsilon = 0.
    with pytest.raises(GuidanceSingularityError):
        pn_commands(0.0, 5000.0, 0.0, 0.0, 0.0, 0.0, 300.0, 0.0)


def test_zero_range_raises():
    with pytest.raises(ZeroRangeError):
        pn_commands(0.0, 0.0, 0.0, -600.0, 0.0, 0.0, 300.0, 0.0)


def test_singular_geometry_holds_previous_command():
    # Target directly abeam makes pn_commands raise; the step must keep
    # flying with the stored commands instead.
    m = fresh(n_mc=3.3, n_mh=-1.1)
    out = missile_step(m, (0.0, 5000.0, 5000.0), (300.0, 0.0, 0.0))
    assert out.n_mc == 3.3 and out.n_mh == -1.1
    assert out.status is MissileStatus.IN_FLIGHT


def test_burnout_coast_decelerates_at_drag_over_mass():
    # Zero line-of-sight rates (target dead ahead, same velocity direction
    # scaled to zero) give zero commands; level and past burnout, the only
    # speed change is -drag * g / mass.
    m = fresh(vm=400.0, t=13.0)
    dt = 1e-6
    out = missile_step(m, (10000.0, 0.0, 5000.0), (400.0, 0.0, 0.0), dt)
    dv_dt = (out.vm - m.vm) / dt
    expected = -drag_of(400.0) * 9.8 / 86.0
    assert dv_dt == pytest.approx(expected, rel=1e-5)


def test_vertical_climb_speed_rate():
    # Near-vertical climb under thrust: dv = (P0 - drag) * g / mass - g.
    gamma = GAMMA_LIMIT
    m = fresh(vm=300.0, gamma=gamma, t=1.0)
    vel = missile_velocity(m)
    dt = 1e-8
    tpos = (m.x + 1000.0 * vel[0] / 300.0, m.y + 1000.0 * vel[1] / 300.0,
            m.z + 1000.0 * vel[2] / 300.0)
    out = missile_step(m, tpos, vel, dt)
    dv_dt = (out.vm - m.vm) / dt
    expected = (2000.0 - drag_of(300.0)) * 9.8 / mass_at(1.0) \
        - 9.8 * math.sin(gamma)
    assert dv_dt == pytest.approx(expected, rel=1e-6)


def test_head_on_intercept():
    m = fresh()
    out = fly_against_linear_target(m, (5000.0, 0.0, 5000.0), (-300.0, 0.0, 0.0))
    assert out.status is MissileStatus.HIT
    assert out.t < 8.0
    assert out.t == pytest.approx(6.88, abs=0.05)  # frozen regression


def test_crossing_intercept():
    m = fresh()
    out = fly_against_linear_target(m, (4000.0, 0.0, 5000.0), (0.0, 300.0, 0.0))
    assert out.status is MissileStatus.HIT
    assert out.t == pytest.approx(12.72, abs=0.1)  # frozen regression


def test_head_on_intercept_westward():
    # 180-degree rotation of test_head_on_intercept.  Chases down the -x
    # axis once diverged because the guidance trig saw the unfolded azimuth
    # branch; the hit time must match the eastward engagement.
    m = fresh(phi=math.pi)
    out = fly_against_linear_target(m, (-5000.0, 0.0, 5000.0), (300.0, 0.0, 0.0))
    assert out.status is MissileStatus.HIT
    assert out.t == pytest.approx(6.88, abs=0.05)


def test_pn_pitch_sign_is_bearing_independent():
    # A target drifting upward must pull a nose-up command on any bearing:
    # east, the missile flies +x at 300 m/s with the target 4 km ahead and
    # 100 m up flying (250, 0, 5); west is the same engagement mirrored.
    n_east = pn_commands(4000.0, 0.0, 100.0, -50.0, 0.0, 5.0, 300.0, 0.0)
    n_west = pn_commands(-4000.0, 0.0, 100.0, 50.0, 0.0, 5.0, 300.0, 0.0)
    assert n_east[1] > 0.0
    assert n_west[1] > 0.0
    assert n_west[1] == pytest.approx(n_east[1], rel=1e-12)
    assert n_west[0] == pytest.approx(n_east[0], rel=1e-12)


def test_no_tunneling_through_hit_sphere(monkeypatch):
    # 1500 m/s closure moves 30 m per step; both endpoints sit outside the
    # hit sphere while the midpoint passes inside.  The gain is made tiny so
    # guidance barely curves the path during the step.
    monkeypatch.setattr(missile, "NAV_GAIN", 1e-12)
    m = fresh(x=-15.0, y=29.5, z=5000.0, vm=1500.0)
    out = missile_step(m, (0.0, 0.0, 5000.0), (0.0, 0.0, 0.0))
    start = math.hypot(-15.0, 29.5)
    assert start > 30.0  # endpoint distances alone would miss
    assert out.status is MissileStatus.HIT


def test_step_survives_stage_overshoot_at_the_vertical():
    # Sustained pitch-up can land an internal RK4 stage within 1e-9 of
    # exactly pi/2, where the heading equation is undefined.  Solve for that
    # razor angle and confirm the step still integrates.  The target sits
    # straight overhead so guidance holds the stored max pitch command.
    vm, n_mh = 400.0, MAX_COMMAND
    g = GAMMA_LIMIT - 2e-2
    for _ in range(8):
        g = 0.5 * math.pi - 0.5 * PHYSICS_DT * (G / vm) * (n_mh - math.cos(g))
    stage = g + 0.5 * PHYSICS_DT * (n_mh - math.cos(g)) * G / vm
    assert abs(stage - 0.5 * math.pi) < 1e-9
    assert abs(g) < GAMMA_LIMIT
    m = fresh(z=8000.0, vm=vm, gamma=g, n_mc=0.0, n_mh=n_mh)
    out = missile_step(m, (0.0, 0.0, 10000.0), (0.0, 0.0, 0.0))
    assert abs(out.gamma) <= GAMMA_LIMIT
    assert math.isfinite(out.phi) and math.isfinite(out.vm)


def test_expires_past_max_flight_time():
    m = fresh(vm=400.0, t=59.99)
    out = missile_step(m, (100000.0, 0.0, 5000.0), (0.0, 0.0, 0.0))
    assert out.status is MissileStatus.EXPIRED


def test_expires_below_min_speed():
    m = fresh(vm=200.5, t=20.0)
    out = missile_step(m, (100000.0, 0.0, 5000.0), (0.0, 0.0, 0.0))
    assert out.vm < 200.0
    assert out.status is MissileStatus.EXPIRED


def test_launch_inherits_shooter_state():
    s = AircraftState(10.0, -20.0, 4000.0, 320.0, 0.1, 2.0)
    m = launch_missile(s, "red", "blue")
    assert (m.x, m.y, m.z, m.vm, m.gamma, m.phi) == (10.0, -20.0, 4000.0, 320.0, 0.1, 2.0)
    assert m.t == 0.0
    assert m.status is MissileStatus.IN_FLIGHT
    assert (m.n_mc, m.n_mh) == (0.0, 0.0)
    assert m.shooter == "red" and m.target == "blue"


def test_cannot_step_finished_missile():
    m = fresh(status=MissileStatus.HIT)
    with pytest.raises(ValueError):
        missile_step(m, (1000.0, 0.0, 5000.0), (0.0, 0.0, 0.0))


def textbook_missile_step(m, tpos, tvel, dt):
    """Guided classical RK4 with the missile equations written out.

    Commands come from the geometry at the start of the step and are held
    over the stages (the stored ones when the geometry is singular).  Stage
    states use gamma clipped to +-GAMMA_LIMIT.  The weighted sum is grouped
    as k1 + 2 (k2 + k3) + k4, the model's rounding.  A hit is a closest
    approach of the linearly moving target under the hit radius.
    """
    vel = missile_velocity(m)
    try:
        n_mc, n_mh = pn_commands(tpos[0] - m.x, tpos[1] - m.y, tpos[2] - m.z,
                                 tvel[0] - vel[0], tvel[1] - vel[1],
                                 tvel[2] - vel[2], m.vm,
                                 math.atan2(tvel[2], math.hypot(tvel[0], tvel[1])))
    except (GuidanceSingularityError, ZeroRangeError):
        n_mc, n_mh = m.n_mc, m.n_mh

    def deriv(v, gamma, phi, t):
        cg = math.cos(gamma)
        return (v * cg * math.cos(phi), v * cg * math.sin(phi), v * math.sin(gamma),
                (thrust_at(t) - drag_of(v)) * G / mass_at(t)
                - G * math.sin(gamma),
                (n_mh - cg) * G / v,
                n_mc * G / (v * cg))

    def stage(k, w):
        return (m.vm + w * k[3], min(max(m.gamma + w * k[4], -GAMMA_LIMIT), GAMMA_LIMIT),
                m.phi + w * k[5], m.t + w)

    k1 = deriv(m.vm, m.gamma, m.phi, m.t)
    k2 = deriv(*stage(k1, dt / 2.0))
    k3 = deriv(*stage(k2, dt / 2.0))
    k4 = deriv(*stage(k3, dt))
    x, y, z, v, gamma, phi = (
        a + dt / 6.0 * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i])
        for i, a in enumerate((m.x, m.y, m.z, m.vm, m.gamma, m.phi)))
    t = m.t + dt

    r0 = np.subtract(tpos, (m.x, m.y, m.z))
    r1 = np.add(tpos, np.multiply(dt, tvel)) - (x, y, z)
    d = r1 - r0
    u = 0.0 if d @ d == 0.0 else min(max(-(r0 @ d) / (d @ d), 0.0), 1.0)
    if math.sqrt(sum(float(c) ** 2 for c in r0 + u * d)) < HIT_RADIUS:
        status = MissileStatus.HIT
    elif t > MAX_FLIGHT_TIME or v < MIN_SPEED:
        status = MissileStatus.EXPIRED
    else:
        status = MissileStatus.IN_FLIGHT
    return MissileState(x, y, z, v, min(max(gamma, -GAMMA_LIMIT), GAMMA_LIMIT),
                        wrap_angle(phi), t, m.shooter, m.target, status, n_mc, n_mh)


def _bits(m):
    return struct.pack("<9d", m.x, m.y, m.z, m.vm, m.gamma, m.phi, m.t,
                       m.n_mc, m.n_mh) + m.status.value.encode()


def test_missile_step_equals_textbook_rk4_bit_for_bit():
    # 300 seeded missiles against linearly moving targets, up to 25
    # substeps each.  A third start just inside the vertical with the
    # target far above or below, so the stages and the output reach the
    # flight-path clip; a third start with the target straight overhead,
    # so guidance is singular and the stored commands are held; the rest
    # are anywhere, with targets near enough that some are hit.
    rng = np.random.default_rng(2718)
    seen = {MissileStatus.HIT: 0, MissileStatus.EXPIRED: 0}
    clamped = 0
    for i in range(300):
        kind = i % 3
        x, y = map(float, rng.uniform(-2000.0, 2000.0, 2))
        z = float(rng.uniform(1000.0, 9000.0))
        vm = float(rng.uniform(190.0, 1200.0))
        t = float(rng.uniform(0.0, 60.0))
        n_mc, n_mh = map(float, rng.uniform(-40.0, 40.0, 2))
        if kind == 0:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            gamma = sign * (GAMMA_LIMIT - float(rng.uniform(0.0, 0.01)))
            tpos = (x + 10.0, y, z + sign * 9000.0)
        elif kind == 1:
            gamma = float(rng.uniform(-1.5, 1.5))
            tpos = (x, y, z + float(rng.uniform(500.0, 5000.0)))
        else:
            gamma = float(rng.uniform(-1.5, 1.5))
        m = MissileState(x, y, z, vm, gamma, float(rng.uniform(-math.pi, math.pi)),
                         t, "blue", "red", MissileStatus.IN_FLIGHT, n_mc, n_mh)
        if kind == 2:  # up to 0.4 s ahead of the nose, give or take 50 m
            ahead = np.multiply(missile_velocity(m), rng.uniform(0.0, 0.4))
            tpos = tuple(map(float, np.add((x, y, z), ahead)
                             + rng.uniform(-50.0, 50.0, 3)))
        tvel = (0.0, 0.0, 0.0) if kind == 1 else \
            tuple(map(float, rng.uniform(-300.0, 300.0, 3)))
        for _ in range(25):
            ref = textbook_missile_step(m, tpos, tvel, PHYSICS_DT)
            m = missile_step(m, tpos, tvel, PHYSICS_DT)
            assert _bits(m) == _bits(ref)
            clamped += abs(m.gamma) == GAMMA_LIMIT
            if m.status is not MissileStatus.IN_FLIGHT:
                seen[m.status] += 1
                break
            tpos = tuple(a + PHYSICS_DT * b for a, b in zip(tpos, tvel))
    assert clamped > 0 and all(seen.values())
