"""Point-mass 3-DOF aircraft model integrated with fixed-step RK4.

State is position (x, y, z), speed v, flight-path angle gamma and heading
phi.  Controls are a tangential load factor nx, a normal load factor nz and
a bank angle mu.  The model is deliberately scalar (math module, no arrays):
a single integration step is a few microseconds, which is what keeps
search-in-the-loop training affordable.

There is one integration path.  `_substep` advances a plain float tuple
(x, y, z, v, gamma, phi) by one textbook RK4 step of four `_derivatives`
calls, under controls given as nx, nz, cos(mu) and sin(mu), so a caller that
holds the controls over many substeps computes the bank-angle trigonometry
once.  `_derivatives` is the one Python definition of the equations of
motion, behind `aircraft_derivatives` too.  `rk4_step` is the one-substep
wrapper over the dataclasses, and `environment._reference`, the Python
decision, calls `_substep` directly for the 25 substeps of a decision.
`_kernel.c` holds a compiled copy of `_substep`, written in the same
operation order, that env_step and search run instead where they can;
tests/test_kernel.py ties it bit for bit to this reference.

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


def _clip_gamma(g):
    return GAMMA_LIMIT if g > GAMMA_LIMIT else -GAMMA_LIMIT if g < -GAMMA_LIMIT else g


def _substep(s, nx, nz, cmu, smu, dt):
    x, y, z, v, gamma, phi = s
    k1 = _derivatives(v, gamma, phi, nx, nz, cmu, smu)
    # RK4 stage states can poke past the vertical limit that the output is
    # clipped to; stages are evaluated at the clipped angle so the heading
    # equation stays defined.  In-envelope stages pass through bit for bit.
    h = dt / 2.0
    k2 = _derivatives(v + h * k1[3], _clip_gamma(gamma + h * k1[4]),
                      phi + h * k1[5], nx, nz, cmu, smu)
    k3 = _derivatives(v + h * k2[3], _clip_gamma(gamma + h * k2[4]),
                      phi + h * k2[5], nx, nz, cmu, smu)
    k4 = _derivatives(v + dt * k3[3], _clip_gamma(gamma + dt * k3[4]),
                      phi + dt * k3[5], nx, nz, cmu, smu)
    sixth = dt / 6.0
    v += sixth * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3])
    return (x + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0]),
            y + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1]),
            z + sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2]),
            V_FLOOR if v < V_FLOOR else v,
            _clip_gamma(gamma + sixth * (k1[4] + 2.0 * (k2[4] + k3[4]) + k4[4])),
            wrap_angle(phi + sixth * (k1[5] + 2.0 * (k2[5] + k3[5]) + k4[5])))


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
