"""Point-mass 3-DOF aircraft model integrated with fixed-step RK4.

State is position (x, y, z), speed v, flight-path angle gamma and heading
phi.  Controls are a tangential load factor nx, a normal load factor nz and
a bank angle mu.  The model is deliberately scalar (math module, no arrays):
a single integration step is a few microseconds, which is what keeps
search-in-the-loop training affordable.

There is one integration path.  `_substep` advances a plain float tuple
(x, y, z, v, gamma, phi) by one RK4 step under controls given as nx, nz,
cos(mu) and sin(mu), so a caller that holds the controls over many substeps
computes the bank-angle trigonometry once.  Its four stages are the
equations of `_derivatives` written out inline, which saves four calls and
their result tuples per substep; the derivatives do not depend on position,
so the stages carry only (v, gamma, phi).  `_derivatives` remains the one
reference definition, behind `aircraft_derivatives`, and a test holds
`_substep` bit for bit to a textbook RK4 built from it.  `rk4_step` is the
one-substep wrapper over the dataclasses, and the Python loop of
`environment.env_step` calls `_substep` directly for the 25 substeps of a
decision.  `_kernel.c` holds a compiled copy of `_substep`, written in the
same operation order, that env_step runs instead where it can; it is tied
bit for bit to this reference by tests/test_kernel.py.

Every stage keeps both guards of `_derivatives`: a non-positive speed or a
flight-path angle at the vertical raises DegenerateStateError instead of
producing infinities.  The integrator's output floors (v >= 100 m/s,
|gamma| just inside pi/2) keep every stage away from both inside the
envelope, but `rk4_step` accepts any state, including one below the speed
floor, so the speed guards are reachable at every stage and cost one
comparison each.  Stages 2 to 4 evaluate at a flight-path angle clipped to
GAMMA_LIMIT, where |cos(gamma)| is about 1e-6, so their vertical guard
cannot fire while the clip is in place; only the first stage's can.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

G = 9.8
"""Gravitational acceleration in m/s^2, shared by every model in the package."""

PHYSICS_DT = 0.02
"""Fixed integration step in seconds."""

V_FLOOR = 100.0
GAMMA_LIMIT = math.pi / 2 - 1e-6

NX_MIN, NX_MAX = -2.0, 2.0
NZ_MIN, NZ_MAX = 0.0, 8.0
MU_MIN, MU_MAX = -math.pi, math.pi


class DegenerateStateError(ValueError):
    """State lies outside the region where the equations of motion are defined."""


@dataclass(frozen=True, slots=True)
class AircraftState:
    """Aircraft state, or componentwise time derivatives of one."""

    x: float
    y: float
    z: float
    v: float
    gamma: float
    phi: float


@dataclass(frozen=True, slots=True)
class ControlInput:
    """Clamped control triple; build through :func:`clamp_controls`."""

    nx: float
    nz: float
    mu: float


def wrap_angle(a: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    r = math.remainder(a, math.tau)
    return math.pi if r == -math.pi else r


def clamp_controls(nx: float, nz: float, mu: float) -> ControlInput:
    """Clamp raw control values into the flight envelope.

    nx is limited to [-2, 2], nz to [0, 8] and mu to [-pi, pi].  Each
    component is clamped independently, so the mapping is idempotent and
    order preserving.  Non-finite inputs are rejected.
    """
    if not (math.isfinite(nx) and math.isfinite(nz) and math.isfinite(mu)):
        raise ValueError(f"non-finite control input ({nx}, {nz}, {mu})")
    return ControlInput(
        min(max(nx, NX_MIN), NX_MAX),
        min(max(nz, NZ_MIN), NZ_MAX),
        min(max(mu, MU_MIN), MU_MAX),
    )


def aircraft_derivatives(s: AircraftState, c: ControlInput) -> AircraftState:
    """Time derivatives of the aircraft state under constant controls.

    Raises DegenerateStateError when v is not positive or gamma is within
    numerical range of +-pi/2, where the heading equation blows up.
    """
    d = _derivatives(s.v, s.gamma, s.phi, c.nx, c.nz,
                     math.cos(c.mu), math.sin(c.mu))
    return AircraftState(*d)


def _derivatives(v, gamma, phi, nx, nz, cmu, smu):
    if v < 1e-6:
        raise DegenerateStateError(f"non-positive speed {v}")
    cg = math.cos(gamma)
    if abs(cg) < 1e-9:
        raise DegenerateStateError(f"flight-path angle {gamma} too close to vertical")
    sg = math.sin(gamma)
    vcg = v * cg
    return (vcg * math.cos(phi), vcg * math.sin(phi), v * sg, G * (nx - sg),
            (G / v) * (nz * cmu - cg), (G / vcg) * nz * smu)


def _substep(s, nx, nz, cmu, smu, dt):
    # The four stages are `_derivatives` written out inline, guards included,
    # so that a substep calls no Python function.
    x, y, z, v, gamma, phi = s
    cos, sin = math.cos, math.sin

    if v < 1e-6:
        raise DegenerateStateError(f"non-positive speed {v}")
    cg = cos(gamma)
    if abs(cg) < 1e-9:
        raise DegenerateStateError(f"flight-path angle {gamma} too close to vertical")
    sg = sin(gamma)
    vcg = v * cg
    k1x, k1y, k1z = vcg * cos(phi), vcg * sin(phi), v * sg
    k1v, k1g, k1p = G * (nx - sg), (G / v) * (nz * cmu - cg), (G / vcg) * nz * smu

    # RK4 stage states can poke past the vertical limit that the output is
    # clipped to; stages are evaluated at the clipped angle so the heading
    # equation stays defined.  In-envelope stages pass through bit for bit.
    h = dt / 2.0
    sv = v + h * k1v
    g = gamma + h * k1g
    g = GAMMA_LIMIT if g > GAMMA_LIMIT else -GAMMA_LIMIT if g < -GAMMA_LIMIT else g
    sp = phi + h * k1p
    if sv < 1e-6:
        raise DegenerateStateError(f"non-positive speed {sv}")
    cg = cos(g)
    if abs(cg) < 1e-9:
        raise DegenerateStateError(f"flight-path angle {g} too close to vertical")
    sg = sin(g)
    vcg = sv * cg
    k2x, k2y, k2z = vcg * cos(sp), vcg * sin(sp), sv * sg
    k2v, k2g, k2p = G * (nx - sg), (G / sv) * (nz * cmu - cg), (G / vcg) * nz * smu

    sv = v + h * k2v
    g = gamma + h * k2g
    g = GAMMA_LIMIT if g > GAMMA_LIMIT else -GAMMA_LIMIT if g < -GAMMA_LIMIT else g
    sp = phi + h * k2p
    if sv < 1e-6:
        raise DegenerateStateError(f"non-positive speed {sv}")
    cg = cos(g)
    if abs(cg) < 1e-9:
        raise DegenerateStateError(f"flight-path angle {g} too close to vertical")
    sg = sin(g)
    vcg = sv * cg
    k3x, k3y, k3z = vcg * cos(sp), vcg * sin(sp), sv * sg
    k3v, k3g, k3p = G * (nx - sg), (G / sv) * (nz * cmu - cg), (G / vcg) * nz * smu

    sv = v + dt * k3v
    g = gamma + dt * k3g
    g = GAMMA_LIMIT if g > GAMMA_LIMIT else -GAMMA_LIMIT if g < -GAMMA_LIMIT else g
    sp = phi + dt * k3p
    if sv < 1e-6:
        raise DegenerateStateError(f"non-positive speed {sv}")
    cg = cos(g)
    if abs(cg) < 1e-9:
        raise DegenerateStateError(f"flight-path angle {g} too close to vertical")
    sg = sin(g)
    vcg = sv * cg
    k4x, k4y, k4z = vcg * cos(sp), vcg * sin(sp), sv * sg
    k4v, k4g, k4p = G * (nx - sg), (G / sv) * (nz * cmu - cg), (G / vcg) * nz * smu

    sixth = dt / 6.0
    v += sixth * (k1v + 2.0 * (k2v + k3v) + k4v)
    gamma += sixth * (k1g + 2.0 * (k2g + k3g) + k4g)
    phi = math.remainder(phi + sixth * (k1p + 2.0 * (k2p + k3p) + k4p), math.tau)
    if phi == -math.pi:  # wrap_angle, inline
        phi = math.pi
    if v < V_FLOOR:
        v = V_FLOOR
    if gamma > GAMMA_LIMIT:
        gamma = GAMMA_LIMIT
    elif gamma < -GAMMA_LIMIT:
        gamma = -GAMMA_LIMIT
    return (x + sixth * (k1x + 2.0 * (k2x + k3x) + k4x),
            y + sixth * (k1y + 2.0 * (k2y + k3y) + k4y),
            z + sixth * (k1z + 2.0 * (k2z + k3z) + k4z),
            v, gamma, phi)


def rk4_step(s: AircraftState, c: ControlInput, dt: float = PHYSICS_DT) -> AircraftState:
    """Advance the state by one RK4 step with controls held constant.

    After integration the speed is floored at 100 m/s, gamma is clipped just
    inside +-pi/2 and phi is wrapped to (-pi, pi], so the returned state is
    always valid input for the next step.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    return AircraftState(*_substep((s.x, s.y, s.z, s.v, s.gamma, s.phi),
                                   c.nx, c.nz, math.cos(c.mu), math.sin(c.mu), dt))


def _velocity(v, gamma, phi):
    cg = math.cos(gamma)
    return (v * cg * math.cos(phi), v * cg * math.sin(phi), v * math.sin(gamma))


def velocity_vector(s: AircraftState) -> tuple[float, float, float]:
    """Inertial velocity components implied by (v, gamma, phi)."""
    return _velocity(s.v, s.gamma, s.phi)
