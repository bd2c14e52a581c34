"""The invariant suite: `dogfight selfcheck` runs it, and the tests share it.

Each check returns a one-line detail on success and raises AssertionError
naming the broken bound otherwise.  SELF_CHECKS lists them in report order.
"""

from __future__ import annotations

import math
import struct
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import environment
from .dynamics import (
    GAMMA_LIMIT,
    PHYSICS_DT,
    V_FLOOR,
    AircraftState,
    ControlInput,
    rk4_step,
)
from .environment import (
    BLUE,
    RED,
    EngagementState,
    FlatStep,
    Outcome,
    env_step,
    flatten,
    reset,
)
from .harness import load_checkpoint, save_checkpoint
from .mcts import SearchConfig, SearchResult, run_search
from .missile import MissileState, MissileStatus, missile_step
from .mlp import backprop, forward, init_params, log_density
# The suite differentiates the production losses themselves, so it reaches
# into ppo for the closures that backprop consumes.
from .ppo import TrainConfig, _actor_loss, _critic_loss
from .selfplay import AgentCheckpoint


def check_trim_drift() -> str:
    s = AircraftState(0.0, 0.0, 1000.0, 300.0, 0.0, 0.0)
    c = ControlInput(0.0, 1.0, 0.0)
    for _ in range(5000):
        s = rk4_step(s, c, PHYSICS_DT)
    dz, dv = abs(s.z - 1000.0), abs(s.v - 300.0)
    if dz >= 1e-6 or dv >= 1e-6:
        raise AssertionError(f"drift after 100 s: dz={dz:.2e} m, dv={dv:.2e} m/s")
    return f"dz={dz:.1e} m, dv={dv:.1e} m/s over 100 s"


def check_rk4_order() -> str:
    c = ControlInput(1.0, 3.0, 1.0)
    s0 = AircraftState(0.0, 0.0, 5000.0, 250.0, 0.05, -0.4)

    def integrate(n: int) -> float:
        s = s0
        for _ in range(n):
            s = rk4_step(s, c, 0.64 / n)
        return s.phi

    ref = integrate(512)
    err4, err8, err16 = (abs(integrate(n) - ref) for n in (4, 8, 16))
    if err4 / err8 < 8.0 or err8 / err16 < 8.0:
        raise AssertionError(
            f"step-halving factors {err4 / err8:.2f}, {err8 / err16:.2f}")
    return f"step-halving factors {err4 / err8:.1f}, {err8 / err16:.1f}"


def fly_linear(tpos, tvel) -> MissileState:
    m = MissileState(0.0, 0.0, 5000.0, 300.0, 0.0, 0.0, 0.0, "blue", "red")
    while m.status is MissileStatus.IN_FLIGHT:
        m = missile_step(m, tpos, tvel, PHYSICS_DT)
        tpos = (tpos[0] + tvel[0] * PHYSICS_DT,
                tpos[1] + tvel[1] * PHYSICS_DT,
                tpos[2] + tvel[2] * PHYSICS_DT)
    return m


def check_pn_head_on() -> str:
    out = fly_linear((5000.0, 0.0, 5000.0), (-300.0, 0.0, 0.0))
    if out.status is not MissileStatus.HIT:
        raise AssertionError(f"ended {out.status.name} at t={out.t:.2f} s")
    return f"hit at t={out.t:.2f} s"


def check_pn_crossing() -> str:
    out = fly_linear((4000.0, 0.0, 5000.0), (0.0, 300.0, 0.0))
    if out.status is not MissileStatus.HIT:
        raise AssertionError(f"ended {out.status.name} at t={out.t:.2f} s")
    return f"hit at t={out.t:.2f} s"


def max_fd_error(params, x, fn) -> float:
    """Worst central-difference disagreement over every parameter."""
    _, grads = backprop(params, x, fn)
    h = 1e-5
    worst = 0.0
    for p_arr, g_arr in zip(params.tensors(), grads.tensors()):
        flat_p, flat_g = p_arr.ravel(), g_arr.ravel()
        for idx in range(flat_p.size):
            keep = flat_p[idx]
            flat_p[idx] = keep + h
            up, _ = backprop(params, x, fn)
            flat_p[idx] = keep - h
            down, _ = backprop(params, x, fn)
            flat_p[idx] = keep
            numeric = (up - down) / (2.0 * h)
            worst = max(worst, abs(flat_g[idx] - numeric) / max(1.0, abs(numeric)))
    return worst


def check_gradients() -> str:
    rng = np.random.default_rng(2718)
    actor = init_params(31, (13, 8, 8, 4), with_log_std=True)
    critic = init_params(32, (13, 8, 8, 1))
    obs = rng.uniform(0.0, 1.0, size=(12, 13))
    actions = rng.normal(size=(12, 4))
    old_logp = (np.asarray(log_density(forward(actor, obs), actor.log_std,
                                       actions))
                + rng.normal(scale=0.1, size=12))
    adv = rng.normal(size=12)
    targets = rng.choice(np.array([-1.0, 0.0, 1.0]), size=12)

    cases = (
        ("surrogate", actor,
         _actor_loss(actions, old_logp, adv, TrainConfig(entropy_coeff=0.0), {})),
        ("entropy", actor,
         _actor_loss(actions, old_logp, np.zeros(12),
                     TrainConfig(entropy_coeff=1.0), {})),
        ("value", critic, _critic_loss(targets)),
    )
    worst = 0.0
    for label, params, fn in cases:
        err = max_fd_error(params, obs, fn)
        if err >= 1e-4:
            raise AssertionError(f"{label} gradient error {err:.2e}")
        worst = max(worst, err)
    return f"max relative error {worst:.1e}"


def check_batch_forward() -> str:
    params = init_params(44, (13, 8, 8, 4), with_log_std=True)
    x = np.random.default_rng(45).uniform(0.0, 1.0, size=(32, 13))
    rows = np.stack([forward(params, row) for row in x])
    if not np.array_equal(forward(params, x), rows):
        raise AssertionError("batched forward deviates from row-wise forward")
    return "32 rows bitwise equal"


def check_checkpoint_roundtrip() -> str:
    actor = init_params(7, (13, 8, 8, 4), with_log_std=True)
    critic = init_params(8, (13, 8, 8, 1))
    ckpt = AgentCheckpoint(3, actor, critic, 99, "selfcheck")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "probe.ckpt"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
    pairs = zip(actor.tensors() + critic.tensors(),
                back.actor.tensors() + back.critic.tensors())
    if not all(np.array_equal(a, b) for a, b in pairs):
        raise AssertionError("reloaded parameters differ")
    return "bit-exact"


_AIRCRAFT = struct.Struct("<6d")
_MISSILE = struct.Struct("<9d")
# Status codes, fired flags, clock, the state's and the step's outcome codes.
_SCALARS = struct.Struct("<bb??dbb")


def step_bytes(out: FlatStep) -> bytes:
    """Every field of an env_step result, floats as their IEEE bytes."""
    (b, r, bk, rk, bs, rs, blue_fired, red_fired, t, state_code), \
        obs_blue, obs_red, code = out
    parts = [_AIRCRAFT.pack(*b), _AIRCRAFT.pack(*r)]
    parts += [b"-" if k is None else _MISSILE.pack(*k) for k in (bk, rk)]
    parts += [_SCALARS.pack(bs, rs, blue_fired, red_fired, t, state_code, code),
              np.array(obs_blue).tobytes(), np.array(obs_red).tobytes()]
    return b"|".join(parts)


def envelope_state(rng: np.random.Generator) -> EngagementState:
    """A start drawn across the flight envelope: any speed from the floor,
    flight-path angles up to the clip, low altitudes, missiles in flight near
    the end of their flight time or speed, and clocks near the time limit."""
    def craft(x, y):
        return AircraftState(x, y, float(rng.uniform(50.0, 9000.0)),
                             float(rng.uniform(V_FLOOR, 450.0)),
                             float(rng.uniform(-GAMMA_LIMIT, GAMMA_LIMIT)),
                             float(rng.uniform(-math.pi, math.pi)))

    def missile(shooter, side, target):
        if rng.random() < 0.4:
            return None
        return MissileState(
            shooter.x + float(rng.uniform(-300.0, 300.0)),
            shooter.y + float(rng.uniform(-300.0, 300.0)),
            shooter.z + float(rng.uniform(-300.0, 300.0)),
            float(rng.uniform(150.0, 900.0)),
            float(rng.uniform(-GAMMA_LIMIT, GAMMA_LIMIT)),
            float(rng.uniform(-math.pi, math.pi)),
            float(rng.choice((rng.uniform(0.0, 14.0), rng.uniform(55.0, 61.0)))),
            side, target, MissileStatus.IN_FLIGHT,
            float(rng.uniform(-40.0, 40.0)), float(rng.uniform(-40.0, 40.0)))

    blue = craft(0.0, 0.0)
    red = craft(float(rng.uniform(-9000.0, 9000.0)),
                float(rng.uniform(-9000.0, 9000.0)))
    bm, rm = missile(blue, BLUE, RED), missile(red, RED, BLUE)
    t = float(rng.choice((0.0, rng.uniform(0.0, 200.0), 199.5)))
    return EngagementState(blue, red, bm, rm, bm is not None,
                           rm is not None, t, Outcome.ONGOING)


class KernelSpy:
    """Stands in for the kernel module, counting its calls and the decisions
    and searches it hands back to the Python code."""

    def __init__(self, compiled):
        self.compiled = compiled
        self.calls = self.handed_back = 0
        self.searches = self.searches_handed_back = 0

    def step(self, *args):
        res = self.compiled.step(*args)
        self.calls += 1
        self.handed_back += res is None
        return res

    def search(self, *args):
        res = self.compiled.search(*args)
        self.searches += 1
        self.searches_handed_back += res is None
        return res


def kernel_identity(decisions: int, seed: int) -> dict:
    """Step seeded random decisions through env_step with the compiled kernel
    against env_step on the Python loop.  AssertionError at the first byte
    that differs.

    Half the engagements start from `reset`, half from `envelope_state`.
    Raw actions are wider than the control envelope and fire often, and each
    is held for a few decisions.  None of these decisions meets a guard, so
    the kernel must finish every one itself.  Returns counts of what the
    decisions met.
    """
    kernel = environment._kernel
    if kernel is None:
        raise AssertionError("the compiled kernel is not loaded")
    spy = KernelSpy(kernel)
    rng = np.random.default_rng(seed)
    counts = dict(decisions=0, missile_in_flight=0, ended=0)
    state = held = None
    for _ in range(decisions):
        if state is None:
            state = flatten(reset(int(rng.integers(2 ** 63)))
                            if rng.random() < 0.5 else envelope_state(rng))
        if held is None or rng.random() < 0.3:
            held = rng.uniform((-1.0, -3.0, -4.0, -0.3), (9.0, 3.0, 4.0, 1.0),
                               size=(2, 4))
        actions = held.tolist()
        try:
            environment._kernel = spy
            fast = env_step(state, *actions)
            environment._kernel = None
            ref = env_step(state, *actions)
        finally:
            environment._kernel = kernel
        if step_bytes(fast) != step_bytes(ref):
            raise AssertionError(f"kernel and Python loop differ from {state!r} "
                                 f"under {actions!r}")
        counts["decisions"] += 1
        counts["missile_in_flight"] += environment._FLYING in state[4:6]
        counts["ended"] += ref[3] != 0
        state = None if ref[3] else ref[0]
    if spy.handed_back:
        raise AssertionError(f"the kernel handed {spy.handed_back} of "
                             f"{spy.calls} calls back to the Python code")
    return counts


def check_kernel() -> str:
    if environment._kernel is None:
        return f"unavailable ({environment._KERNEL_DETAIL}); the Python loop runs"
    counts = kernel_identity(2000, 1)
    return (f"built; {counts['decisions']} decisions "
            f"({counts['missile_in_flight']} with a missile in flight) "
            "bit-identical to the Python loop")


def prefix_root(rng: np.random.Generator) -> tuple:
    """The flat end of a seeded random-action engagement prefix that has not
    ended; about half of these carry a missile."""
    state = None
    while state is None or state[9]:
        state = flatten(reset(int(rng.integers(0, 2 ** 31))))
        for _ in range(int(rng.integers(0, 60))):
            acts = rng.uniform((-1.0, -3.0, -4.0, -1.0), (9.0, 3.0, 4.0, 1.0),
                               size=(2, 4)).tolist()
            nxt = env_step(state, acts[0], acts[1])
            if nxt[3]:
                break
            state = nxt[0]
    return state


def search_bytes(res: SearchResult) -> bytes:
    """Every field of a SearchResult, arrays with their dtypes, floats as
    their IEEE bytes."""
    arrays = (res.action, res.visit_counts, res.priors, res.root_mean)
    parts = [a.dtype.str.encode() + a.tobytes() for a in arrays]
    parts.append(struct.pack("<qdd", res.chosen_index, res.root_value,
                             res.root_critic))
    return b"|".join(parts)


SEARCH_CONFIGS = (SearchConfig(), SearchConfig(num_actions=4, c_puct=2.0),
                  SearchConfig(num_simulations=30, max_depth=3),
                  SearchConfig(num_actions=1, num_simulations=1, max_depth=1))


def search_identity(searches: int, seed: int) -> dict:
    """Run seeded searches on the kernel's walk against run_search's Python
    walk, which it takes under a stand-in kernel that keeps `step` and hands
    every search back.  AssertionError at the first SearchResult field or
    search rng state that differs, or where the kernel hands a search back.

    Roots come from `prefix_root`, the side alternates, and the networks
    (default-size and small) and SEARCH_CONFIGS take turns.  Returns counts
    of what the searches met, taken from the Python walk's steps.
    """
    kernel = environment._kernel
    if kernel is None:
        raise AssertionError("the compiled kernel is not loaded")
    spy = KernelSpy(kernel)
    rng = np.random.default_rng(seed)
    nets = [(init_params(3 * i, (13, *hidden, 4), with_log_std=True),
             init_params(3 * i + 1, (13, *hidden, 1)),
             init_params(3 * i + 2, (13, *hidden, 4), with_log_std=True))
            for i, hidden in enumerate(((256, 256), (8, 8)))]
    counts = dict(searches=0, missile_roots=0, ended=0)

    def step(*args):
        out = kernel.step(*args)
        counts["ended"] += out is not None and out[3] != 0
        return out

    python_walk = SimpleNamespace(step=step, search=lambda *args: None)

    for i in range(searches):
        root, side = prefix_root(rng), (BLUE, RED)[i % 2]
        actor, critic, opponent = nets[i // 2 % 2]
        config = SEARCH_CONFIGS[i // 4 % len(SEARCH_CONFIGS)]
        fast_rng, ref_rng = np.random.default_rng(i), np.random.default_rng(i)
        try:
            environment._kernel = spy
            fast = run_search(root, side, actor, critic, opponent, config,
                              fast_rng)
            environment._kernel = python_walk
            ref = run_search(root, side, actor, critic, opponent, config,
                             ref_rng)
        finally:
            environment._kernel = kernel
        if (search_bytes(fast) != search_bytes(ref)
                or fast_rng.bit_generator.state != ref_rng.bit_generator.state):
            raise AssertionError(f"the kernel's walk and the Python walk differ "
                                 f"from {root!r} for {side} under {config}")
        counts["searches"] += 1
        counts["missile_roots"] += environment._FLYING in root[4:6]
    if spy.searches != searches or spy.searches_handed_back:
        raise AssertionError(f"the kernel walked {spy.searches} of {searches} "
                             f"searches and handed {spy.searches_handed_back} "
                             "back to the Python walk")
    return counts


def check_search() -> str:
    if environment._kernel is None:
        return f"unavailable ({environment._KERNEL_DETAIL}); the Python walk runs"
    counts = search_identity(300, 1)
    return (f"{counts['searches']} searches ({counts['missile_roots']} from a "
            f"missile in flight, {counts['ended']} engagement-ending model "
            "steps) bit-identical to the Python walk")


SELF_CHECKS = (
    ("trim drift", check_trim_drift),
    ("rk4 order", check_rk4_order),
    ("pn head-on intercept", check_pn_head_on),
    ("pn crossing intercept", check_pn_crossing),
    ("loss gradients", check_gradients),
    ("batch forward", check_batch_forward),
    ("checkpoint round-trip", check_checkpoint_roundtrip),
    ("compiled kernel", check_kernel),
    ("compiled search", check_search),
)
