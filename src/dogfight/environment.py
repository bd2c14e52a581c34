"""Two-aircraft engagement world.

An engagement advances in 0.5 s decision steps, each made of 25 physics
sub-steps.  Both sides submit a raw action (nz, nx, roll, fire logit); the
controls are clamped once per decision and held, and a positive fire logit
launches the side's single missile when the launch gate allows it.
Termination is evaluated every sub-step and the outcome is a sparse
terminal reward: +1 to the winner, -1 to the loser, 0 each for a draw.
Only a missile hit produces a winner; ground contact, the 200 s time
limit, and mutual missile expiry all end the engagement drawn.

A decision is computed on the flat engagement tuple (`flatten`,
`unflatten`) by one of two equal routes.  The compiled kernel (`_kernel.c`,
built on first import by `kernel.load`) does it in one `step` call: the
action checks, the clamp, the fire gate, the substeps, the outcome and both
observations.  `_reference` is the same decision in Python, the reference
the kernel copies in the same arithmetic and order, so both give the same
bytes; `_features` is its observation, and `observe` wraps it.  The missile
flies on missile's module constants on both routes.

The kernel is built from this module's constants, dynamics' and missile's
(see `kernel.defines`), so it is loaded below the last of them: a constant
is defined once, here, in dynamics or in missile, and a changed one rebuilds
the kernel.

`env_step` is the one step, and it alone picks the route: it runs
`_reference` where the kernel is unavailable, where a recorder asks for
every substep, and where the kernel hands a decision back because the
reference would raise.  Matches and tree search step flat tuples through
it; a caller that holds an EngagementState flattens it first, and
`unflatten` rebuilds one from a step's result.  (The kernel's own search
walk, which run_search takes when its model is env_step, steps children by
the same C decision as `step`, and hands the whole search back where `step`
would hand back.)  Setting `_kernel` to None selects the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence, Union

import numpy as np

# rk4_step and missile_step are not called here: the reference integrates
# through the models' float substeps.  The names stay bound in this module
# because the benchmark's tracer (bench/tracing.py) rebinds them here.
from .dynamics import (
    PHYSICS_DT,
    V_FLOOR,
    AircraftState,
    _substep as _aircraft_substep,
    _velocity,
    clamp_controls,
    rk4_step,  # noqa: F401
    wrap_angle,
)
from .kernel import load as _load_kernel
from .missile import (
    MissileState,
    MissileStatus,
    _kinematics,
    _substep as _missile_substep,
    launch_missile,
    missile_step,  # noqa: F401
)

BLUE = "blue"
RED = "red"


def other_side(side: str) -> str:
    if side == BLUE:
        return RED
    if side == RED:
        return BLUE
    raise ValueError(f"unknown side {side!r}")

DECISION_DT = 0.5
EPISODE_TIME_LIMIT = 200.0
GROUND_FLOOR = 100.0

FIRE_RANGE = 12000.0
FIRE_BEARING = math.pi / 3

_IN_FLIGHT = MissileStatus.IN_FLIGHT

# A flat engagement and the kernel speak of missile statuses by code.
_CODED_STATUSES = (None, _IN_FLIGHT, MissileStatus.HIT, MissileStatus.EXPIRED)
_STATUS_CODES = {status: code for code, status in enumerate(_CODED_STATUSES)}
_FLYING = _STATUS_CODES[_IN_FLIGHT]

# The substeps of one decision; the kernel's DECISION_SUBSTEPS.
_DECISION_SUBSTEPS = round(DECISION_DT / PHYSICS_DT)

_PI = math.pi
_HPI = math.pi / 2

# Normalization bounds, one (lo, hi) pair per observation feature, in the
# feature order produced by _features().
OBS_BOUNDS = (
    (-_PI, _PI),        # own heading
    (-_HPI, _HPI),      # own flight-path angle
    (250.0, 400.0),     # own speed
    (0.0, 10000.0),     # own altitude
    (0.0, 20000.0),     # distance to target
    (0.0, 1.0),         # own missile in flight
    (-_PI, _PI),        # target aspect azimuth, relative to own nose
    (-_HPI, _HPI),      # target aspect elevation
    (-_PI, _PI),        # target heading
    (-_HPI, _HPI),      # target flight-path angle
    (0.0, 20000.0),     # incoming-missile distance
    (-_PI, _PI),        # line-of-sight azimuth, world frame
    (0.0, 1.0),         # incoming missile in flight
)

OBS_DIM = len(OBS_BOUNDS)

_OBS_SPANS = tuple((lo, hi - lo) for lo, hi in OBS_BOUNDS)

# The compiled copy of _reference, built from the constants above, or None
# where it could not be built; _KERNEL_DETAIL is its path or the reason.
_kernel, _KERNEL_DETAIL = _load_kernel()


class Outcome(Enum):
    ONGOING = "Ongoing"
    BLUE_WIN = "BlueWin"
    RED_WIN = "RedWin"
    DRAW = "Draw"


_ONGOING = Outcome.ONGOING


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """Initial-condition ranges for reset; lo must not exceed hi."""

    speed_min: float = 250.0
    speed_max: float = 400.0
    alt_min: float = 3000.0
    alt_max: float = 8000.0
    sep_min: float = 5000.0
    sep_max: float = 15000.0

    def __post_init__(self):
        pairs = ((self.speed_min, self.speed_max),
                 (self.alt_min, self.alt_max),
                 (self.sep_min, self.sep_max))
        for lo, hi in pairs:
            if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo <= hi):
                raise ValueError(f"invalid scenario bounds [{lo}, {hi}]")
        # Starts must lie inside the envelope the integrator holds: a slower
        # start is floored after one substep, or raises DegenerateStateError
        # under hard deceleration, and a lower one ends drawn at once.
        if self.speed_min < V_FLOOR:
            raise ValueError(f"speed_min {self.speed_min} is below the "
                             f"{V_FLOOR} m/s speed floor")
        if self.alt_min < GROUND_FLOOR:
            raise ValueError(f"alt_min {self.alt_min} is below the "
                             f"{GROUND_FLOOR} m ground floor")


DEFAULT_SCENARIO = ScenarioConfig()


# A raw pre-clamp action: (nz, nx, roll, fire logit).
Action = Union[Sequence[float], np.ndarray]


@dataclass(frozen=True, slots=True)
class EngagementState:
    blue: AircraftState
    red: AircraftState
    blue_missile: Optional[MissileState]
    red_missile: Optional[MissileState]
    blue_fired: bool
    red_fired: bool
    t: float
    outcome: Outcome


TrajectoryRow = tuple
Recorder = Callable[[TrajectoryRow], None]


def reset(seed: int, scenario: ScenarioConfig = DEFAULT_SCENARIO) -> EngagementState:
    """Place both aircraft for a fresh engagement, deterministically per seed.

    Blue starts at the origin, red at the drawn separation along +x.  Draw
    order is fixed (speeds, altitudes, separation, headings, blue before
    red) so a seed always reproduces the same engagement.
    """
    rng = np.random.default_rng(seed)
    v_b = float(rng.uniform(scenario.speed_min, scenario.speed_max))
    v_r = float(rng.uniform(scenario.speed_min, scenario.speed_max))
    z_b = float(rng.uniform(scenario.alt_min, scenario.alt_max))
    z_r = float(rng.uniform(scenario.alt_min, scenario.alt_max))
    sep = float(rng.uniform(scenario.sep_min, scenario.sep_max))
    phi_b = wrap_angle(float(rng.uniform(0.0, math.tau)))
    phi_r = wrap_angle(float(rng.uniform(0.0, math.tau)))
    blue = AircraftState(0.0, 0.0, z_b, v_b, 0.0, phi_b)
    red = AircraftState(sep, 0.0, z_r, v_r, 0.0, phi_r)
    return EngagementState(blue, red, None, None, False, False, 0.0, Outcome.ONGOING)


def _features(flat: FlatState, side: str) -> tuple:
    """observe's 13 features of a flat engagement, as a tuple of floats; the
    kernel's `observe` copies it."""
    b, r, bk, rk, bs, rs = flat[:6]
    if side == BLUE:
        own, tgt, own_status, inc, inc_status = b, r, bs, rk, rs
    elif side == RED:
        own, tgt, own_status, inc, inc_status = r, b, rs, bk, bs
    else:
        raise ValueError(f"unknown side {side!r}")

    x, y, z, v, gamma, phi = own
    dx = tgt[0] - x
    dy = tgt[1] - y
    dz = tgt[2] - z
    dh = math.hypot(dx, dy)
    d = math.hypot(dh, dz)
    beta = math.atan2(dy, dx)
    aspect_az = wrap_angle(beta - phi)
    aspect_el = math.atan2(dz, dh)

    f1 = 1.0 if own_status == _FLYING else 0.0
    if inc_status == _FLYING:
        d1 = math.sqrt((inc[0] - x) ** 2 + (inc[1] - y) ** 2
                       + (inc[2] - z) ** 2)
        f2 = 1.0
    else:
        d1 = OBS_BOUNDS[10][1]
        f2 = 0.0

    feats = (phi, gamma, v, z, d, f1, aspect_az, aspect_el, tgt[5], tgt[4],
             d1, beta, f2)
    out = []
    for f, (lo, span) in zip(feats, _OBS_SPANS):
        u = (f - lo) / span
        out.append(0.0 if u < 0.0 else (1.0 if u > 1.0 else u))
    return tuple(out)


def observe(flat: FlatState, side: str) -> np.ndarray:
    """13 features describing a flat engagement from one side, normalized to
    [0, 1].

    The construction only uses own/target/own-missile/incoming-missile
    roles, so it is symmetric under swapping sides.
    """
    return np.array(_features(flat, side))


def _as_raw(a: Action) -> tuple[float, float, float, float]:
    """The raw action as 4 floats; ValueError for anything that is not a flat
    sequence of 4 finite reals."""
    try:
        raw = ((float(a[0]), float(a[1]), float(a[2]), float(a[3]))
               if len(a) == 4 and getattr(a, "ndim", 1) == 1 else None)
    except (TypeError, ValueError):  # no length, or an element not a real
        raw = None
    if raw is None or not all(math.isfinite(v) for v in raw):
        raise ValueError(f"action must be 4 finite reals, got {a!r}")
    return raw


def fire_allowed(own: AircraftState, target: AircraftState) -> bool:
    """Launch gate: target inside 12 km and within 60 degrees of the nose."""
    dx = target.x - own.x
    dy = target.y - own.y
    dz = target.z - own.z
    if dx * dx + dy * dy + dz * dz >= FIRE_RANGE * FIRE_RANGE:
        return False
    bearing = wrap_angle(math.atan2(dy, dx) - own.phi)
    return abs(bearing) < FIRE_BEARING


def _evaluate(blue_z, red_z, bm_status, rm_status, blue_fired, red_fired,
              t) -> Outcome:
    # A missile status is None while that side has no missile.
    blue_hit = rm_status is MissileStatus.HIT
    red_hit = bm_status is MissileStatus.HIT
    if blue_hit and red_hit:
        return Outcome.DRAW
    if blue_hit:
        return Outcome.RED_WIN
    if red_hit:
        return Outcome.BLUE_WIN
    # Ground contact aborts the engagement with no winner; a win has to
    # come from a missile, so random descents cannot feed the reward.
    if blue_z < GROUND_FLOOR or red_z < GROUND_FLOOR:
        return Outcome.DRAW
    if t >= EPISODE_TIME_LIMIT:
        return Outcome.DRAW
    if blue_fired and red_fired \
            and bm_status is MissileStatus.EXPIRED \
            and rm_status is MissileStatus.EXPIRED:
        return Outcome.DRAW
    return Outcome.ONGOING


def trajectory_rows(flat: FlatState) -> list[TrajectoryRow]:
    """Two export rows (blue then red) for the instant a flat engagement
    captures."""
    b, r, bk, rk, bs, rs, _, _, t, code = flat
    outcome = OUTCOMES_BY_CODE[code].value
    rows = []
    for side, craft, k, status in ((BLUE, b, bk, bs), (RED, r, rk, rs)):
        mx, my, mz = k[:3] if status else (None, None, None)
        rows.append((t, side, *craft, mx, my, mz, outcome))
    return rows


# A flat engagement is the tuple
#     (b, r, bk, rk, bs, rs, blue_fired, red_fired, t, outcome)
# of the aircraft tuples (x, y, z, v, gamma, phi), each side's missile
# kinematics (missile._kinematics) or None, the missile status codes of
# _STATUS_CODES, the fired flags, the time and the outcome code.  A side's
# missile is always its own launch, so the tuple holds an EngagementState
# without loss.  The kernel's `step` takes and returns it, and matches and
# tree search carry their states this way.
FlatState = tuple
# (next flat state, obs_blue, obs_red, outcome code); the observations are
# tuples of OBS_DIM floats.
FlatStep = tuple
FlatModel = Callable[[FlatState, Action, Action], FlatStep]

OUTCOMES_BY_CODE = (Outcome.ONGOING, Outcome.BLUE_WIN, Outcome.RED_WIN,
                    Outcome.DRAW)
"""The Outcome of each outcome code of a flat engagement."""
_OUTCOME_CODES = {o: code for code, o in enumerate(OUTCOMES_BY_CODE)}
REWARDS_BY_CODE = ((0.0, 0.0), (1.0, -1.0), (-1.0, 1.0), (0.0, 0.0))
"""(reward_blue, reward_red) of each outcome code of a flat engagement."""


def flatten(s: EngagementState) -> FlatState:
    """The flat tuple of s; ValueError for a missile that is not its side's."""
    b, r, bm, rm = s.blue, s.red, s.blue_missile, s.red_missile
    for m, shooter, target in ((bm, BLUE, RED), (rm, RED, BLUE)):
        if m is not None and (m.shooter, m.target) != (shooter, target):
            raise ValueError(f"the {shooter} missile slot holds a missile of "
                             f"{m.shooter!r} at {m.target!r}")
    return ((b.x, b.y, b.z, b.v, b.gamma, b.phi),
            (r.x, r.y, r.z, r.v, r.gamma, r.phi),
            None if bm is None else _kinematics(bm),
            None if rm is None else _kinematics(rm),
            _STATUS_CODES[None if bm is None else bm.status],
            _STATUS_CODES[None if rm is None else rm.status],
            s.blue_fired, s.red_fired, s.t, _OUTCOME_CODES[s.outcome])


def _missile_of(k, code, shooter, target) -> Optional[MissileState]:
    if not code:
        return None
    x, y, z, v, gamma, phi, t, n_mc, n_mh = k
    return MissileState(x, y, z, v, gamma, phi, t, shooter, target,
                        _CODED_STATUSES[code], n_mc, n_mh)


def unflatten(flat: FlatState) -> EngagementState:
    """The EngagementState that a flat tuple holds."""
    b, r, bk, rk, bs, rs, blue_fired, red_fired, t, outcome = flat
    return EngagementState(AircraftState(*b), AircraftState(*r),
                           _missile_of(bk, bs, BLUE, RED),
                           _missile_of(rk, rs, RED, BLUE),
                           blue_fired, red_fired, t, OUTCOMES_BY_CODE[outcome])


def _reference(flat: FlatState, raw_b: Action, raw_r: Action,
               recorder: Optional[Recorder] = None) -> FlatStep:
    """One decision on a flat engagement in Python: the reference the kernel's
    `step` is held to bit for bit, with the same (next flat state, obs_blue,
    obs_red, outcome code) result.  A finished engagement comes back
    unchanged, before its actions are read.  The substeps run on the plain
    floats of the flat tuple; a recorder gets every substep's rows.
    """
    b, r, bk, rk, bs, rs, blue_fired, red_fired, t0, code = flat
    if code:
        return flat, _features(flat, BLUE), _features(flat, RED), code

    raw_b = _as_raw(raw_b)
    raw_r = _as_raw(raw_r)
    bm_status, rm_status = _CODED_STATUSES[bs], _CODED_STATUSES[rs]
    ctrl_b = clamp_controls(raw_b[1], raw_b[0], raw_b[2])
    ctrl_r = clamp_controls(raw_r[1], raw_r[0], raw_r[2])
    blue, red = AircraftState(*b), AircraftState(*r)
    if raw_b[3] > 0.0 and not blue_fired and fire_allowed(blue, red):
        bk = _kinematics(launch_missile(blue, BLUE, RED))
        bm_status, blue_fired = _IN_FLIGHT, True
    if raw_r[3] > 0.0 and not red_fired and fire_allowed(red, blue):
        rk = _kinematics(launch_missile(red, RED, BLUE))
        rm_status, red_fired = _IN_FLIGHT, True

    b_nx, b_nz = ctrl_b.nx, ctrl_b.nz
    b_cmu, b_smu = math.cos(ctrl_b.mu), math.sin(ctrl_b.mu)
    r_nx, r_nz = ctrl_r.nx, ctrl_r.nz
    r_cmu, r_smu = math.cos(ctrl_r.mu), math.sin(ctrl_r.mu)
    for i in range(_DECISION_SUBSTEPS):
        # Missiles first, against the aircraft at the start of the substep.
        if bm_status is _IN_FLIGHT:
            bk, bm_status = _missile_substep(
                bk, r[:3], _velocity(r[3], r[4], r[5]), PHYSICS_DT)
        if rm_status is _IN_FLIGHT:
            rk, rm_status = _missile_substep(
                rk, b[:3], _velocity(b[3], b[4], b[5]), PHYSICS_DT)
        b = _aircraft_substep(b, b_nx, b_nz, b_cmu, b_smu, PHYSICS_DT)
        r = _aircraft_substep(r, r_nx, r_nz, r_cmu, r_smu, PHYSICS_DT)
        t = t0 + (i + 1) * PHYSICS_DT
        outcome = _evaluate(b[2], r[2], bm_status, rm_status, blue_fired,
                            red_fired, t)
        if recorder is not None:
            for row in trajectory_rows((
                    b, r, bk, rk, _STATUS_CODES[bm_status],
                    _STATUS_CODES[rm_status], blue_fired, red_fired, t,
                    _OUTCOME_CODES[outcome])):
                recorder(row)
        if outcome is not _ONGOING:
            break

    nxt = (b, r, bk, rk, _STATUS_CODES[bm_status], _STATUS_CODES[rm_status],
           blue_fired, red_fired, t, _OUTCOME_CODES[outcome])
    return nxt, _features(nxt, BLUE), _features(nxt, RED), nxt[9]


def env_step(flat: FlatState, a_blue: Action, a_red: Action,
             recorder: Optional[Recorder] = None) -> FlatStep:
    """Advance a flat engagement by one decision step of DECISION_DT: the one
    step of matches and search.

    Returns (next flat state, obs_blue, obs_red, outcome code).  Fire
    decisions are taken once at the decision boundary, then the inner
    sub-steps integrate missiles first (against the aircraft as they were
    at the start of the sub-step, matching the linear-target hit model) and
    the aircraft second.  Termination is checked after every sub-step and
    freezes the state mid-decision.  A finished engagement comes back
    unchanged.  ValueError for a malformed action.

    The compiled kernel's `step` computes the decision in one call.  Where
    the kernel is unavailable, a recorder is given, or the kernel hands the
    decision back, `_reference` runs it on the same flat tuple, so its
    exception or its result comes out.  The kernel reads actions that are
    lists or tuples of floats; anything else it hands back.
    """
    out = None
    if _kernel is not None and recorder is None:
        out = _kernel.step(flat, a_blue, a_red)
    return _reference(flat, a_blue, a_red, recorder) if out is None else out
