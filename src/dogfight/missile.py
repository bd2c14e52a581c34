"""Air-to-air missile model with proportional-navigation guidance.

The missile is a point mass with thrust, quadratic drag and a mass that
decreases linearly while the motor burns.  Guidance measures line-of-sight
rates to the target and turns them into a yaw command n_mc and a pitch
command n_mh.  Integration uses the same fixed-step RK4 scheme and shares
the gravitational constant with the aircraft model.  The paper's missile is
one fixed weapon, so its thrust, mass, drag, navigation gain and hit radius
are module constants, as the aircraft's are in dynamics.

As in the aircraft model there is one integration path: `_substep` advances
the plain float tuple (x, y, z, vm, gamma, phi, t, n_mc, n_mh) by one
guided RK4 step of four `_derivatives` calls, `missile_step` wraps it for a
`MissileState`, and `environment._reference`, the Python decision, calls
it directly for the substeps of a decision.  The mass, thrust and drag are
defined once, in `mass_at`, `thrust_at` and `drag_of` over the constants,
which `_derivatives` calls.  Guidance is one float function, `pn_commands`,
which takes the line of sight and its rate as components and returns the
two commands or raises; `_substep` holds the previous commands when it
raises.  `_kernel.c` holds a compiled copy of `_substep` and `pn_commands`,
tied bit for bit to this reference by tests/test_kernel.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .dynamics import (
    G,
    PHYSICS_DT,
    AircraftState,
    _clip_gamma,
    wrap_angle,
)

Vec3 = tuple[float, float, float]

# The missile's constants, as in the paper.  kernel.defines compiles them
# into _kernel.c, so a changed value rebuilds the kernel.
THRUST = 2000.0              # P_0, motor thrust while burning, N per unit weight scale
LAUNCH_MASS = 170.0          # G_0, launch mass, kg
BURN_RATE = 7.0              # G_t, mass burn rate, kg/s
BURN_TIME = 12.0             # t_w, motor burn time, s
AIR_DENSITY = 0.607          # rho, air density, kg/m^3
REFERENCE_AREA = 0.0324      # S_m, reference area, m^2
DRAG_COEFFICIENT = 0.9       # C_dm, drag coefficient
NAV_GAIN = 4.0               # K, navigation gain
MAX_FLIGHT_TIME = 60.0       # flight time after which the missile expires, s
HIT_RADIUS = 30.0            # closest-approach kill distance, m
MIN_SPEED = 200.0            # below this the missile can no longer steer, m/s
MAX_COMMAND = 40.0           # guidance command clamp, on n_mc and n_mh


class GuidanceSingularityError(ValueError):
    """Line-of-sight geometry where the guidance law is undefined."""


class ZeroRangeError(ValueError):
    """Missile and target are coincident; no line of sight exists."""


class MissileStatus(Enum):
    IN_FLIGHT = "in_flight"
    HIT = "hit"
    EXPIRED = "expired"


@dataclass(frozen=True, slots=True)
class MissileState:
    """Missile state plus the guidance commands applied on the last step."""

    x: float
    y: float
    z: float
    vm: float
    gamma: float
    phi: float
    t: float
    shooter: str
    target: str
    status: MissileStatus = MissileStatus.IN_FLIGHT
    n_mc: float = 0.0
    n_mh: float = 0.0


def mass_at(t: float) -> float:
    """Missile mass at time t since launch: LAUNCH_MASS less BURN_RATE per
    second of burn, constant after BURN_TIME."""
    return LAUNCH_MASS - BURN_RATE * min(t, BURN_TIME)


def thrust_at(t: float) -> float:
    """Motor thrust at time t since launch: THRUST up to BURN_TIME, zero
    after."""
    return THRUST if t <= BURN_TIME else 0.0


def drag_of(vm: float) -> float:
    """Aerodynamic drag at speed vm, from AIR_DENSITY, REFERENCE_AREA and
    DRAG_COEFFICIENT."""
    return 0.5 * AIR_DENSITY * vm * vm * REFERENCE_AREA * DRAG_COEFFICIENT


def pn_commands(rx: float, ry: float, rz: float, wx: float, wy: float,
                wz: float, vm: float, gamma_t: float) -> tuple[float, float]:
    """Proportional-navigation commands (n_mc, n_mh) with gain NAV_GAIN,
    clamped symmetrically to MAX_COMMAND.

    (rx, ry, rz) is the target's position relative to the missile, (wx, wy,
    wz) its velocity relative to the missile, vm the missile's speed and
    gamma_t the target's flight-path angle.  The line of sight has azimuth
    beta and elevation epsilon.  Raises ZeroRangeError for coincident
    positions, and GuidanceSingularityError when the line of sight is
    vertical, where beta is undefined, or when epsilon + beta is a right
    angle, where the pitch channel is undefined.
    """
    h2 = rx * rx + ry * ry
    r2 = h2 + rz * rz
    if math.sqrt(r2) < 1e-9:
        raise ZeroRangeError("missile and target are coincident")
    h = math.sqrt(h2)
    if h < 1e-9:
        raise GuidanceSingularityError("line of sight is vertical")
    beta_dot = (wy * rx - wx * ry) / h2
    epsilon_dot = (h2 * wz - rz * (wx * rx + wy * ry)) / (r2 * h)
    epsilon = math.atan2(rz, h)

    # The law is written with the principal-value azimuth arctan(ry / rx).
    # Folding the atan2 branch keeps cos(epsilon + beta) > 0 on chases down
    # the -x axis; with the unfolded azimuth the pitch channel feeds back
    # positively there and the missile diverges instead of homing.
    beta = math.atan2(ry, rx)
    if beta > 0.5 * math.pi:
        beta -= math.pi
    elif beta < -0.5 * math.pi:
        beta += math.pi
    s = epsilon + beta
    cs = math.cos(s)
    if abs(cs) < 1e-9:
        raise GuidanceSingularityError(f"cos(epsilon + beta) vanishes at {s}")
    n_mc = NAV_GAIN * (vm * math.cos(gamma_t) / G) * (
        beta_dot + math.tan(epsilon) * math.tan(s) * epsilon_dot)
    n_mh = vm * NAV_GAIN * epsilon_dot / (G * cs)
    lim = MAX_COMMAND
    return (-lim if n_mc < -lim else lim if n_mc > lim else n_mc,
            -lim if n_mh < -lim else lim if n_mh > lim else n_mh)


def _derivatives(v, gamma, phi, t, n_mc, n_mh):
    if v < 1e-6:
        raise ValueError(f"non-positive missile speed {v}")
    cg = math.cos(gamma)
    if abs(cg) < 1e-9:
        raise ValueError(f"missile flight-path angle {gamma} too close to vertical")
    gm = mass_at(t)
    pm = thrust_at(t)
    qm = drag_of(v)
    sg = math.sin(gamma)
    vcg = v * cg
    return (vcg * math.cos(phi), vcg * math.sin(phi), v * sg,
            (pm - qm) * G / gm - G * sg, (n_mh - cg) * G / v, n_mc * G / vcg)


def _segment_min_distance(r0: Vec3, r1: Vec3) -> float:
    """Minimum norm along the segment from r0 to r1."""
    dx = r1[0] - r0[0]
    dy = r1[1] - r0[1]
    dz = r1[2] - r0[2]
    dd = dx * dx + dy * dy + dz * dz
    if dd == 0.0:
        s = 0.0
    else:
        s = -(r0[0] * dx + r0[1] * dy + r0[2] * dz) / dd
        s = min(max(s, 0.0), 1.0)
    cx = r0[0] + s * dx
    cy = r0[1] + s * dy
    cz = r0[2] + s * dz
    return math.sqrt(cx * cx + cy * cy + cz * cz)


def _substep(k, target_pos, target_vel, dt):
    x, y, z, v, gamma, phi, t, n_mc, n_mh = k
    tx, ty, tz = target_pos
    tvx, tvy, tvz = target_vel
    vcg = v * math.cos(gamma)
    try:
        n_mc, n_mh = pn_commands(
            tx - x, ty - y, tz - z, tvx - vcg * math.cos(phi),
            tvy - vcg * math.sin(phi), tvz - v * math.sin(gamma), v,
            math.atan2(tvz, math.hypot(tvx, tvy)))
    except (GuidanceSingularityError, ZeroRangeError):
        pass  # hold the previous commands

    k1 = _derivatives(v, gamma, phi, t, n_mc, n_mh)
    # Stages are evaluated at the flight-path angle clipped like the output,
    # as in the aircraft model, so the heading equation stays defined.
    h = dt / 2.0
    k2 = _derivatives(v + h * k1[3], _clip_gamma(gamma + h * k1[4]),
                      phi + h * k1[5], t + h, n_mc, n_mh)
    k3 = _derivatives(v + h * k2[3], _clip_gamma(gamma + h * k2[4]),
                      phi + h * k2[5], t + h, n_mc, n_mh)
    k4 = _derivatives(v + dt * k3[3], _clip_gamma(gamma + dt * k3[4]),
                      phi + dt * k3[5], t + dt, n_mc, n_mh)

    sixth = dt / 6.0
    nx = x + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
    ny = y + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
    nz = z + sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
    nv = v + sixth * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3])
    ngamma = _clip_gamma(gamma + sixth * (k1[4] + 2.0 * (k2[4] + k3[4]) + k4[4]))
    nphi = phi + sixth * (k1[5] + 2.0 * (k2[5] + k3[5]) + k4[5])
    nt = t + dt

    # Closest approach of the target relative to the missile over the step.
    r0 = (target_pos[0] - x, target_pos[1] - y, target_pos[2] - z)
    r1 = (target_pos[0] + dt * target_vel[0] - nx,
          target_pos[1] + dt * target_vel[1] - ny,
          target_pos[2] + dt * target_vel[2] - nz)
    if _segment_min_distance(r0, r1) < HIT_RADIUS:
        status = MissileStatus.HIT
    elif nt > MAX_FLIGHT_TIME or nv < MIN_SPEED:
        status = MissileStatus.EXPIRED
    else:
        status = MissileStatus.IN_FLIGHT
    return (nx, ny, nz, nv, ngamma, wrap_angle(nphi), nt, n_mc, n_mh), status


def _kinematics(m: MissileState) -> tuple:
    """The float tuple `_substep` advances."""
    return (m.x, m.y, m.z, m.vm, m.gamma, m.phi, m.t, m.n_mc, m.n_mh)


def _advanced(m: MissileState, k: tuple, status: MissileStatus) -> MissileState:
    """m moved to the kinematics k and the given status."""
    x, y, z, v, gamma, phi, t, n_mc, n_mh = k
    return MissileState(x, y, z, v, gamma, phi, t, m.shooter, m.target,
                        status, n_mc, n_mh)


def missile_step(m: MissileState, target_pos: Vec3, target_vel: Vec3,
                 dt: float = PHYSICS_DT) -> MissileState:
    """Advance an in-flight missile by one step against a moving target.

    Guidance commands are computed from the geometry at the start of the
    step and held constant through the RK4 stages; if the geometry is
    singular the previous commands are held instead.  The target is assumed
    to move linearly during the step, and a hit is declared when the closest
    approach of the relative segment falls inside HIT_RADIUS.  Without a
    hit, the missile expires once its flight time exceeds MAX_FLIGHT_TIME or
    its speed falls below MIN_SPEED.
    """
    if m.status is not MissileStatus.IN_FLIGHT:
        raise ValueError(f"cannot step a missile with status {m.status.name}")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    return _advanced(m, *_substep(_kinematics(m), target_pos, target_vel, dt))


def launch_missile(shooter: AircraftState, shooter_side: str,
                   target_side: str) -> MissileState:
    """Rail launch: the missile leaves with the shooter's position and velocity."""
    return MissileState(shooter.x, shooter.y, shooter.z, shooter.v,
                        shooter.gamma, shooter.phi, 0.0,
                        shooter_side, target_side)
