"""Aircraft model unit tests.

Reference values are derived by hand from the equations of motion or, for
integration accuracy, from the same integrator run at a much finer step.
"""

import math
import re
import struct

import numpy as np
import pytest

from dogfight.dynamics import (
    G,
    GAMMA_LIMIT,
    PHYSICS_DT,
    V_FLOOR,
    AircraftState,
    ControlInput,
    DegenerateStateError,
    _velocity,
    aircraft_derivatives,
    clamp_controls,
    rk4_step,
    wrap_angle,
)


def test_level_trim_derivatives_are_pure_translation():
    s = AircraftState(0.0, 0.0, 1000.0, 300.0, 0.0, 0.0)
    d = aircraft_derivatives(s, ControlInput(0.0, 1.0, 0.0))
    assert d == AircraftState(300.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_knife_edge_turn_rates():
    # Full 90 degree bank at nz=1: all normal load turns the heading, and
    # with no lift component opposing gravity gamma decays at g/v.
    s = AircraftState(0.0, 0.0, 1000.0, 300.0, 0.0, 0.0)
    d = aircraft_derivatives(s, ControlInput(0.0, 1.0, math.pi / 2))
    assert d.gamma == pytest.approx(-G / 300.0, rel=1e-12)
    assert d.phi == pytest.approx(G / 300.0, rel=1e-12)
    assert d.v == 0.0


def test_steady_climb_trim():
    # nx = sin(gamma) balances gravity along the path, nz = cos(gamma)
    # balances it across the path; a 30 degree climb at 300 m/s then holds
    # v and gamma while climbing at v*sin(gamma) = 150 m/s.
    gamma = math.pi / 6
    s = AircraftState(0.0, 0.0, 1000.0, 300.0, gamma, 0.0)
    d = aircraft_derivatives(s, ControlInput(math.sin(gamma), math.cos(gamma), 0.0))
    assert d.v == 0.0
    assert d.gamma == 0.0
    assert d.z == pytest.approx(150.0, rel=1e-12)


def test_exact_trim_rates_are_exactly_zero():
    # When nx equals sin(gamma) and nz*cos(mu) equals cos(gamma) exactly in
    # floating point, the trim rates are exact zeros, not merely small.
    for v in (100.0, 237.5, 400.0):
        s = AircraftState(0.0, 0.0, 5000.0, v, 0.0, 1.25)
        d = aircraft_derivatives(s, ControlInput(0.0, 1.0, 0.0))
        assert (d.v, d.gamma, d.z) == (0.0, 0.0, 0.0)


def test_speed_rate_ignores_nz_and_mu():
    s = AircraftState(10.0, -40.0, 4000.0, 260.0, 0.3, -1.0)
    a = aircraft_derivatives(s, ControlInput(1.5, 0.5, -2.0))
    b = aircraft_derivatives(s, ControlInput(1.5, 7.5, 3.0))
    assert a.v == b.v == G * (1.5 - math.sin(0.3))


def test_horizontal_speed_magnitude():
    rng = np.random.default_rng(7)
    for _ in range(50):
        s = AircraftState(0.0, 0.0, 5000.0,
                          float(rng.uniform(100.0, 600.0)),
                          float(rng.uniform(-1.4, 1.4)),
                          float(rng.uniform(-math.pi, math.pi)))
        d = aircraft_derivatives(s, ControlInput(0.0, 1.0, 0.0))
        assert math.hypot(d.x, d.y) == pytest.approx(s.v * math.cos(s.gamma), rel=1e-13)
        assert d.z == pytest.approx(s.v * math.sin(s.gamma), rel=1e-13)


def test_degenerate_states_raise():
    c = ControlInput(0.0, 1.0, 0.0)
    with pytest.raises(DegenerateStateError):
        aircraft_derivatives(AircraftState(0, 0, 1000, 1e-7, 0.0, 0.0), c)
    with pytest.raises(DegenerateStateError):
        aircraft_derivatives(AircraftState(0, 0, 1000, 300.0, math.pi / 2, 0.0), c)


def test_every_rk4_stage_guards_the_speed():
    # rk4_step accepts speeds below the floor.  From such a start, the first
    # RK4 stage whose speed is not positive must raise, naming that stage's
    # speed; the cases make each of the four stages the first.
    h = PHYSICS_DT / 2.0
    first = set()
    for v0, gamma0, c in ((5e-7, 0.0, ControlInput(1.0, 1.0, 0.0)),
                          (0.05, 0.3, ControlInput(-2.0, 1.0, 0.0)),
                          (0.05, 0.0, ControlInput(0.0, 8.0, 0.0)),
                          (0.15, 0.0, ControlInput(0.0, 8.0, 0.0))):
        s = AircraftState(0.0, 0.0, 5000.0, v0, gamma0, 0.0)
        stage, k = s, None
        for i, w in enumerate((0.0, h, h, PHYSICS_DT)):
            if k is not None:
                gamma = min(max(s.gamma + w * k.gamma, -GAMMA_LIMIT), GAMMA_LIMIT)
                stage = AircraftState(0.0, 0.0, 5000.0, s.v + w * k.v, gamma,
                                      s.phi + w * k.phi)
            if stage.v < 1e-6:
                break
            k = aircraft_derivatives(stage, c)
        else:
            raise AssertionError(f"no stage of v0={v0} reaches zero speed")
        first.add(i)
        with pytest.raises(DegenerateStateError,
                           match=re.escape(f"non-positive speed {stage.v}")):
            rk4_step(s, c)
    assert first == {0, 1, 2, 3}
    with pytest.raises(DegenerateStateError, match="too close to vertical"):
        rk4_step(AircraftState(0.0, 0.0, 5000.0, 300.0, math.pi / 2, 0.0),
                 ControlInput(0.0, 1.0, 0.0))


def test_clamp_examples():
    assert clamp_controls(0.0, 1.0, 0.0) == ControlInput(0.0, 1.0, 0.0)
    assert clamp_controls(-5.0, 9.0, 4.0) == ControlInput(-2.0, 8.0, math.pi)
    assert clamp_controls(1.0, -1.0, -4.0) == ControlInput(1.0, 0.0, -math.pi)


def test_clamp_idempotent_and_monotone():
    rng = np.random.default_rng(11)
    raws = rng.uniform(-12.0, 12.0, size=(200, 3))
    prev = None
    for nx, nz, mu in sorted(map(tuple, raws)):
        c = clamp_controls(nx, nz, mu)
        assert clamp_controls(c.nx, c.nz, c.mu) == c
        assert -2.0 <= c.nx <= 2.0
        assert 0.0 <= c.nz <= 8.0
        assert -math.pi <= c.mu <= math.pi
        if prev is not None:
            assert c.nx >= prev.nx  # rows sorted by nx, clamp preserves order
        prev = c


def test_clamp_rejects_non_finite():
    with pytest.raises(ValueError):
        clamp_controls(math.nan, 1.0, 0.0)
    with pytest.raises(ValueError):
        clamp_controls(0.0, math.inf, 0.0)


def test_rk4_rejects_bad_dt():
    s = AircraftState(0.0, 0.0, 1000.0, 300.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        rk4_step(s, ControlInput(0.0, 1.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        rk4_step(s, ControlInput(0.0, 1.0, 0.0), -0.02)


def test_rk4_level_trim_advances_linearly():
    s = AircraftState(0.0, 0.0, 1000.0, 300.0, 0.0, 0.0)
    c = ControlInput(0.0, 1.0, 0.0)
    for _ in range(51):
        s = rk4_step(s, c, PHYSICS_DT)
    assert s.x == pytest.approx(306.0, abs=1e-9)
    assert (s.y, s.z, s.v, s.gamma, s.phi) == (0.0, 1000.0, 300.0, 0.0, 0.0)


def test_rk4_matches_fine_step_reference():
    # A sustained 60 degree bank turn for 10 s, integrated at the standard
    # step, should agree with a 8x finer integration of the same motion.
    c = ControlInput(0.5, 2.0, math.pi / 3)
    coarse = AircraftState(0.0, 0.0, 5000.0, 300.0, 0.1, 0.2)
    fine = coarse
    for _ in range(500):
        coarse = rk4_step(coarse, c, PHYSICS_DT)
    for _ in range(4000):
        fine = rk4_step(fine, c, PHYSICS_DT / 8.0)
    assert coarse.x == pytest.approx(fine.x, abs=1e-5)
    assert coarse.y == pytest.approx(fine.y, abs=1e-5)
    assert coarse.z == pytest.approx(fine.z, abs=1e-5)
    assert coarse.v == pytest.approx(fine.v, abs=1e-7)
    assert coarse.gamma == pytest.approx(fine.gamma, abs=1e-9)
    assert coarse.phi == pytest.approx(fine.phi, abs=1e-9)


def test_rk4_enforces_floors_and_wrapping():
    # Hard deceleration at the speed floor stays at the floor.
    s = AircraftState(0.0, 0.0, 1000.0, 100.0, 0.0, 0.0)
    s = rk4_step(s, ControlInput(-2.0, 1.0, 0.0), PHYSICS_DT)
    assert s.v == 100.0
    # A steep climb saturates gamma just inside the vertical.
    s = AircraftState(0.0, 0.0, 1000.0, 300.0, GAMMA_LIMIT, 0.0)
    s = rk4_step(s, ControlInput(2.0, 8.0, 0.0), PHYSICS_DT)
    assert abs(s.gamma) <= GAMMA_LIMIT
    # Heading stays in (-pi, pi] through a fast left turn near the seam.
    s = AircraftState(0.0, 0.0, 1000.0, 100.0, 0.0, math.pi - 1e-4)
    s = rk4_step(s, ControlInput(0.0, 8.0, math.pi / 2), PHYSICS_DT)
    assert -math.pi < s.phi <= math.pi
    assert s.phi < 0.0


def test_rk4_survives_stage_overshoot_at_the_vertical():
    # With gamma near its clip and the stick held back, an internal RK4
    # stage can land within 1e-9 of exactly pi/2, where the heading
    # equation is undefined.  Solve for that razor angle and confirm the
    # step still integrates instead of blowing up mid-stage.
    v, nz = 300.0, 8.0
    g = GAMMA_LIMIT - 5e-3
    for _ in range(8):
        g = 0.5 * math.pi - 0.5 * PHYSICS_DT * (G / v) * (nz - math.cos(g))
    stage = g + 0.5 * PHYSICS_DT * (G / v) * (nz - math.cos(g))
    assert abs(stage - 0.5 * math.pi) < 1e-9
    assert abs(g) < GAMMA_LIMIT
    s = AircraftState(0.0, 0.0, 9000.0, v, g, 0.0)
    out = rk4_step(s, ControlInput(0.0, nz, 0.0), PHYSICS_DT)
    assert abs(out.gamma) <= GAMMA_LIMIT
    assert math.isfinite(out.phi) and math.isfinite(out.v)


def test_wrap_angle_interval():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi, abs=1e-12)
    assert wrap_angle(0.0) == 0.0
    for a in np.linspace(-20.0, 20.0, 401):
        w = wrap_angle(float(a))
        assert -math.pi < w <= math.pi
        # Same point on the circle.
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-12)
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-12)


def test_velocity_vector_consistent_with_derivatives():
    s = AircraftState(1.0, 2.0, 3000.0, 320.0, 0.4, -2.1)
    d = aircraft_derivatives(s, ControlInput(0.0, 1.0, 0.0))
    assert _velocity(s.v, s.gamma, s.phi) == (d.x, d.y, d.z)


def textbook_rk4(s, c, dt):
    """Classical RK4 over the dataclasses, as the model specifies it.

    Stage states are evaluated with gamma clipped to +-GAMMA_LIMIT; the
    result is floored at V_FLOOR, clipped to +-GAMMA_LIMIT and wrapped.  The
    weighted sum is grouped as k1 + 2 (k2 + k3) + k4, the model's rounding.
    """
    def stage(k, w):
        g = min(max(s.gamma + w * k.gamma, -GAMMA_LIMIT), GAMMA_LIMIT)
        return AircraftState(s.x + w * k.x, s.y + w * k.y, s.z + w * k.z,
                             s.v + w * k.v, g, s.phi + w * k.phi)

    k1 = aircraft_derivatives(s, c)
    k2 = aircraft_derivatives(stage(k1, dt / 2.0), c)
    k3 = aircraft_derivatives(stage(k2, dt / 2.0), c)
    k4 = aircraft_derivatives(stage(k3, dt), c)
    x, y, z, v, gamma, phi = (
        getattr(s, f) + dt / 6.0 * (getattr(k1, f) + 2.0 * (getattr(k2, f)
                                    + getattr(k3, f)) + getattr(k4, f))
        for f in ("x", "y", "z", "v", "gamma", "phi"))
    return AircraftState(x, y, z, max(v, V_FLOOR),
                         min(max(gamma, -GAMMA_LIMIT), GAMMA_LIMIT), wrap_angle(phi))


def _bits(s):
    return struct.pack("<6d", s.x, s.y, s.z, s.v, s.gamma, s.phi)


def test_rk4_step_equals_textbook_rk4_bit_for_bit():
    # 300 seeded states, 25 substeps each (one decision).  A third start
    # just above the speed floor under full deceleration, a third just
    # inside the vertical under full pull toward it; the rest are anywhere
    # in the envelope.
    rng = np.random.default_rng(314)
    floored = clamped = 0
    for i in range(300):
        kind = i % 3
        v = float(rng.uniform(100.0, 110.0) if kind == 0 else rng.uniform(100.0, 600.0))
        if kind == 1:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            gamma = sign * (GAMMA_LIMIT - float(rng.uniform(0.0, 0.05)))
            c = ControlInput(float(rng.uniform(-2.0, 2.0)), 8.0,
                             0.0 if sign > 0.0 else math.pi)
        else:
            gamma = float(rng.uniform(-1.5, 1.5))
            c = clamp_controls(*map(float, rng.uniform((-2.0, 0.0, -math.pi),
                                                       (2.0, 8.0, math.pi))))
        if kind == 0:
            c = ControlInput(-2.0, c.nz, c.mu)
        x, y = map(float, rng.uniform(-1e4, 1e4, 2))
        s = AircraftState(x, y, float(rng.uniform(100.0, 9000.0)), v, gamma,
                          float(rng.uniform(-math.pi, math.pi)))
        for _ in range(25):
            ref = textbook_rk4(s, c, PHYSICS_DT)
            s = rk4_step(s, c, PHYSICS_DT)
            assert _bits(s) == _bits(ref)
            floored += s.v == V_FLOOR
            clamped += abs(s.gamma) == GAMMA_LIMIT
    assert floored > 0 and clamped > 0
