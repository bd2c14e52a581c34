"""The compiled kernel against the Python code it copies.

Every test here compares a decision with the kernel (the default) and with
`environment._kernel` patched to None, which runs environment._reference,
the Python loop: the reference.  env_step, the one function that calls the
kernel's `step`, reaches either.  Equality is of the IEEE bytes of every
field of its result (selfcheck.step_bytes).  The kernel's `search` is held
to run_search's Python walk in test_mcts; here its reference counts and its
error paths are checked, each branch against mcts._walk on the same
argument tuple.
"""

import gc
import hashlib
import importlib
import itertools
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dogfight import environment, kernel, mcts, mlp, selfcheck
from dogfight.dynamics import (
    GAMMA_LIMIT,
    PHYSICS_DT,
    V_FLOOR,
    AircraftState,
    DegenerateStateError,
)
from dogfight.environment import (
    BLUE,
    DECISION_DT,
    EPISODE_TIME_LIMIT,
    GROUND_FLOOR,
    OBS_BOUNDS,
    RED,
    EngagementState,
    Outcome,
    _evaluate,
    env_step,
    flatten,
    observe,
    reset,
    unflatten,
)
from dogfight.missile import MissileState, MissileStatus

from test_environment import last_substep_start

TRIM = (1.0, 0.0, 0.0, -1.0)
HAVE_CC = shutil.which(kernel.COMPILER) is not None


def step(kernel_module, state, a_blue, a_red):
    """env_step from an EngagementState, with kernel_module as the kernel."""
    saved, environment._kernel = environment._kernel, kernel_module
    try:
        return env_step(flatten(state), a_blue, a_red)
    finally:
        environment._kernel = saved


def both_paths(state, a_blue=TRIM, a_red=TRIM, kernel_runs=True):
    """env_step through the kernel and through the Python loop; the next
    state once both agree byte for byte.  kernel_runs says whether the kernel
    must finish the decision itself rather than hand it back."""
    spy = selfcheck.KernelSpy(environment._kernel)
    fast = step(spy, state, a_blue, a_red)
    ref = step(None, state, a_blue, a_red)
    assert selfcheck.step_bytes(fast) == selfcheck.step_bytes(ref)
    assert spy.calls == 1 and (spy.handed_back == 0) == kernel_runs
    return unflatten(ref[0])


def both_raise(state, a_blue=TRIM, a_red=TRIM):
    """The exception both paths raise; they must agree in type and message."""
    raised = []
    spy = selfcheck.KernelSpy(environment._kernel)
    calls = (lambda: step(spy, state, a_blue, a_red),
             lambda: step(None, state, a_blue, a_red))
    for call in calls:
        try:
            call()
        except Exception as exc:  # the comparison is the test
            raised.append((type(exc), str(exc)))
        else:
            raised.append(None)
    assert raised[0] is not None and all(r == raised[0] for r in raised)
    # A handed-back decision costs one kernel call: the reference then runs
    # on the same flat tuple.
    assert spy.calls == spy.handed_back == 1
    return raised[0]


def duel(alt=5000.0, speed=300.0, separation=20000.0, **changes):
    blue = AircraftState(0.0, 0.0, alt, speed, 0.0, 0.0)
    red = AircraftState(separation, 0.0, alt, speed, 0.0, math.pi)
    return replace(EngagementState(blue, red, None, None, False, False, 0.0,
                                   Outcome.ONGOING), **changes)


def missile(shooter, target, x, y, z, vm=600.0, gamma=0.0, phi=0.0, t=1.0,
            n_mc=0.0, n_mh=0.0, status=MissileStatus.IN_FLIGHT):
    return MissileState(x, y, z, vm, gamma, phi, t, shooter, target, status,
                        n_mc, n_mh)


@pytest.fixture
def compiled():
    if environment._kernel is None:
        pytest.skip(f"kernel unavailable: {environment._KERNEL_DETAIL}")
    return environment._kernel


def test_kernel_is_built_where_a_compiler_exists():
    # A build that silently falls back would pass every other test slowly.
    if not HAVE_CC:
        pytest.skip(f"no {kernel.COMPILER!r} on PATH")
    assert environment._kernel is not None, environment._KERNEL_DETAIL


@pytest.mark.parametrize("module, name", [("dynamics", "G"),
                                          ("environment", "FIRE_RANGE"),
                                          ("missile", "HIT_RADIUS")])
def test_a_changed_constant_changes_the_build(tmp_path, monkeypatch, module,
                                              name):
    # The kernel's constants are compiled in from the Python definitions of
    # every module kernel.defines reads, so changing one must name another
    # build.
    module = importlib.import_module(f"dogfight.{module}")
    before = kernel.cached_path(tmp_path)
    monkeypatch.setattr(module, name, getattr(module, name) + 1.0)
    assert kernel.cached_path(tmp_path) != before
    monkeypatch.undo()
    assert kernel.cached_path(tmp_path) == before


def test_a_missing_constant_leaves_the_reference_in_charge(tmp_path,
                                                          monkeypatch):
    monkeypatch.delattr(environment, "FIRE_BEARING")
    module, why = kernel.load(tmp_path)
    assert module is None and "FIRE_BEARING" in why
    assert not any(tmp_path.iterdir())


def test_seeded_decisions_are_bit_identical(compiled):
    counts = selfcheck.kernel_identity(20_000, 2026)
    assert counts["decisions"] == 20_000
    assert counts["missile_in_flight"] > 5_000 and counts["ended"] > 500


def test_hits_are_bit_identical(compiled):
    s = duel(separation=6000.0)
    blue_shot = missile(BLUE, RED, 5940.0, 0.0, 5000.0)
    red_shot = missile(RED, BLUE, 60.0, 0.0, 5000.0, phi=math.pi)
    for bm, rm, outcome in ((blue_shot, None, Outcome.BLUE_WIN),
                            (None, red_shot, Outcome.RED_WIN),
                            (blue_shot, red_shot, Outcome.DRAW)):
        res = both_paths(replace(s, blue_missile=bm, red_missile=rm,
                                 blue_fired=bm is not None,
                                 red_fired=rm is not None))
        assert res.outcome is outcome
        for m in (res.blue_missile, res.red_missile):
            assert m is None or m.status is MissileStatus.HIT


def test_expiries_are_bit_identical(compiled):
    s = duel()
    # On flight time: still fast, past 60 s on the first substep.
    late = missile(BLUE, RED, 0.0, 0.0, 5000.0, vm=700.0, t=59.99)
    res = both_paths(replace(s, blue_missile=late, blue_fired=True))
    m = res.blue_missile
    assert m.status is MissileStatus.EXPIRED and m.t > 60.0 and m.vm > 200.0
    # On speed: coasting past burnout, drag takes it under 200 m/s.
    slow = missile(BLUE, RED, 0.0, 0.0, 5000.0, vm=200.05, t=30.0)
    res = both_paths(replace(s, blue_missile=slow, blue_fired=True))
    m = res.blue_missile
    assert m.status is MissileStatus.EXPIRED and m.vm < 200.0 and m.t < 60.0
    # Both spent ends the engagement once both sides have fired.
    res = both_paths(replace(s, blue_missile=late, blue_fired=True,
                             red_missile=replace(late, shooter=RED, target=BLUE,
                                                 x=20000.0, phi=math.pi),
                             red_fired=True))
    assert res.outcome is Outcome.DRAW and res.t == PHYSICS_DT


def test_spent_missiles_without_fired_flags_resume(compiled):
    # Two spent missiles make the kernel ask evaluate at every substep; it
    # says the engagement goes on (neither fired flag is set), so the
    # decision runs all its substeps.
    spent = missile(BLUE, RED, 0.0, 0.0, 5000.0, status=MissileStatus.EXPIRED)
    s = duel(blue_missile=spent,
             red_missile=replace(spent, shooter=RED, target=BLUE))
    res = both_paths(s)
    assert res.outcome is Outcome.ONGOING and res.t == DECISION_DT


def test_guidance_holds_are_bit_identical(compiled):
    # Each case starts one substep before the time limit, so the decision
    # ends after exactly that substep, the one that met the singular geometry.
    s = duel(separation=8000.0, t=last_substep_start())
    held = dict(n_mc=1.5, n_mh=-2.5)
    target = s.red
    cases = (
        # zero range: on the target itself
        missile(BLUE, RED, target.x, target.y, target.z, **held),
        # vertical line of sight: straight below the target
        missile(BLUE, RED, target.x, target.y, target.z - 3000.0, **held),
        # cos(epsilon + beta) vanishes: nearly vertical above the target
        missile(BLUE, RED, target.x - 1e-7, target.y, target.z - 1000.0, **held),
    )
    for m in cases:
        res = both_paths(replace(s, blue_missile=m, blue_fired=True))
        assert res.t == EPISODE_TIME_LIMIT
        after = res.blue_missile
        assert (after.n_mc, after.n_mh) == (1.5, -2.5)


def test_integrator_limits_are_bit_identical(compiled):
    s = duel()
    # The speed floor under full deceleration.
    res = both_paths(replace(s, blue=replace(s.blue, v=V_FLOOR + 0.01)),
                     a_blue=(1.0, -2.0, 0.0, -1.0))
    assert res.blue.v == V_FLOOR
    # The flight-path clip under a full pull up.
    res = both_paths(replace(s, blue=replace(s.blue, gamma=GAMMA_LIMIT - 1e-4)),
                     a_blue=(8.0, 0.0, 0.0, -1.0))
    assert res.blue.gamma == GAMMA_LIMIT
    # A heading wrap that lands on -pi reports +pi; under TRIM the heading
    # stays at -pi, so it does at every substep.
    res = both_paths(replace(s, blue=replace(s.blue, phi=-math.pi)))
    assert res.blue.phi == math.pi


def test_signed_zero_controls_are_bit_identical(compiled):
    # clamp_controls keeps a raw -0.0 as -0.0, since Python's max keeps its
    # first argument on a tie.  From a level start heading -0.0, a normal
    # load or bank of -0.0 leaves the heading at -0.0; +0.0 makes it +0.0.
    s = duel(blue=AircraftState(0.0, 0.0, 5000.0, 300.0, 0.0, -0.0))
    for a_blue, sign in (((-0.0, 0.0, 0.0, -1.0), -1.0),
                         ((1.0, 0.0, -0.0, -1.0), -1.0),
                         ((0.0, 0.0, 0.0, -1.0), 1.0)):
        res = both_paths(s, a_blue)
        assert math.copysign(1.0, res.blue.phi) == sign


def test_terminations_are_bit_identical(compiled):
    s = duel()
    # Ground contact.
    res = both_paths(replace(s, red=replace(s.red, z=GROUND_FLOOR + 1.0,
                                            gamma=-0.5)))
    assert res.outcome is Outcome.DRAW and res.red.z < GROUND_FLOOR
    # The clock lands exactly on the limit at the decision's last substep.
    res = both_paths(replace(s, t=EPISODE_TIME_LIMIT - DECISION_DT))
    assert res.outcome is Outcome.DRAW and res.t == EPISODE_TIME_LIMIT
    # Start states across the envelope end the same way on both paths.
    import numpy as np
    rng = np.random.default_rng(8)
    for _ in range(200):
        both_paths(selfcheck.envelope_state(rng), (9.0, -3.0, 4.0, 1.0),
                   (-1.0, 3.0, -4.0, 1.0))


def test_guards_raise_the_reference_exception(compiled):
    s = duel()
    cases = [
        (replace(s, blue=replace(s.blue, v=0.0)), {}),
        (replace(s, red=replace(s.red, gamma=math.pi / 2)), {}),
        # A stage of the RK4 step decelerates through zero speed.
        (replace(s, blue=replace(s.blue, v=1e-3)),
         dict(a_blue=(1.0, -2.0, 0.0, -1.0))),
        (replace(s, blue_missile=missile(BLUE, RED, 0.0, 0.0, 5000.0, vm=0.0),
                 blue_fired=True), {}),
        (replace(s, red_missile=missile(RED, BLUE, 9000.0, 0.0, 5000.0,
                                        gamma=-math.pi / 2),
                 red_fired=True), {}),
        # A non-finite heading, which the math module refuses.
        (replace(s, blue=replace(s.blue, phi=math.inf)), {}),
    ]
    kinds = {both_raise(state, **kw)[0] for state, kw in cases}
    assert kinds == {DegenerateStateError, ValueError}


def test_non_float_fields_take_the_python_loop(compiled):
    # The kernel reads exact floats only; anything else is the reference's.
    s = duel()
    res = both_paths(replace(s, blue=AircraftState(0, 0, 5000, 300, 0, 0)),
                     kernel_runs=False)
    assert type(res.blue.x) is float


def test_kernel_decisions_do_not_leak(compiled):
    rng_states = [reset(seed) for seed in range(4)]
    s = duel(separation=9000.0)
    rng_states.append(replace(
        s, blue_missile=missile(BLUE, RED, 0.0, 0.0, 5000.0),
        red_missile=missile(RED, BLUE, 9000.0, 0.0, 5000.0, phi=math.pi),
        blue_fired=True, red_fired=True))
    flats = [flatten(state) for state in rng_states]
    fire = (2.0, 0.5, 0.3, 1.0)

    def decide(count):
        for i in range(count):
            env_step(flatten(rng_states[i % len(rng_states)]), fire, TRIM)
            env_step(flats[i % len(flats)], fire, TRIM)

    decide(1000)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        decide(10_000)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 4096


def _status(m):
    return None if m is None else m.status


def test_step_on_the_pinned_rollout_inputs(compiled):
    # The states and held actions of test_environment's pinned rollout:
    # env_step, given each row as a list as matches and search give it, must
    # return the Python loop's bytes on all 10,000 decisions without handing
    # one back.
    rng = np.random.default_rng(2024)
    spy = selfcheck.KernelSpy(compiled)
    state = held = None
    for _ in range(10_000):
        if state is None:
            state = reset(int(rng.integers(0, 2 ** 63)))
        if held is None or rng.random() < 0.2:
            held = rng.uniform((-1.0, -3.0, -4.0, -1.0), (9.0, 3.0, 4.0, 1.0),
                               size=(2, 4))
        ref = step(None, state, held[0], held[1])
        fast = step(spy, state, held[0].tolist(), held[1].tolist())
        assert selfcheck.step_bytes(fast) == selfcheck.step_bytes(ref)
        state = None if ref[3] else unflatten(ref[0])
    assert spy.calls == 10_000 and spy.handed_back == 0


def test_step_ends_decisions_as_evaluate_does(compiled):
    # Every pair of missile statuses at the decision's start, both fired
    # flags, either aircraft under the ground floor or neither, and a clock
    # that reaches the time limit at the last substep or stays short of it:
    # the kernel's copy of _evaluate must end each decision, or let it go
    # on, as the Python one does.
    statuses = (None, MissileStatus.IN_FLIGHT, MissileStatus.HIT,
                MissileStatus.EXPIRED)
    s = duel()
    seen = set()
    for bst, rst, bf, rf, low, t in itertools.product(
            statuses, statuses, (False, True), (False, True), (None, BLUE, RED),
            (0.0, EPISODE_TIME_LIMIT - DECISION_DT)):
        case = replace(
            s, blue_fired=bf, red_fired=rf, t=t,
            blue_missile=None if bst is None else missile(
                BLUE, RED, 0.0, 0.0, 5000.0, status=bst),
            red_missile=None if rst is None else missile(
                RED, BLUE, 20000.0, 0.0, 5000.0, phi=math.pi, status=rst))
        if low is BLUE:
            case = replace(case, blue=replace(case.blue, z=GROUND_FLOOR - 1.0))
        elif low is RED:
            case = replace(case, red=replace(case.red, z=GROUND_FLOOR - 1.0))
        st = both_paths(case)
        assert st.outcome is _evaluate(
            st.blue.z, st.red.z, _status(st.blue_missile),
            _status(st.red_missile), st.blue_fired, st.red_fired, st.t)
        seen.add(st.outcome)
    assert seen == set(Outcome)


# One start per branch of the kernel: (state, blue's raw action, what step
# leaves as (blue status, red status, outcome), or None where it hands the
# decision back).
BRANCHES = {
    "no missile": (duel(), TRIM, (0, 0, 0)),
    "launch": (duel(separation=9000.0), (1.0, 0.0, 0.0, 1.0), (1, 0, 0)),
    "in flight": (duel(separation=9000.0,
                       blue_missile=missile(BLUE, RED, 0.0, 0.0, 5000.0),
                       red_missile=missile(RED, BLUE, 9000.0, 0.0, 5000.0,
                                           phi=math.pi,
                                           status=MissileStatus.EXPIRED),
                       blue_fired=True, red_fired=True), TRIM, (1, 3, 0)),
    "hit": (duel(separation=6000.0,
                 blue_missile=missile(BLUE, RED, 5940.0, 0.0, 5000.0),
                 blue_fired=True), TRIM, (2, 0, 1)),
    "expired": (duel(blue_missile=missile(BLUE, RED, 0.0, 0.0, 5000.0,
                                          vm=700.0, t=59.99),
                     blue_fired=True), TRIM, (3, 0, 0)),
    "stopped and resumed": (duel(
        blue_missile=missile(BLUE, RED, 0.0, 0.0, 5000.0,
                             status=MissileStatus.EXPIRED),
        red_missile=missile(RED, BLUE, 0.0, 0.0, 5000.0,
                            status=MissileStatus.EXPIRED)), TRIM, (3, 3, 0)),
    "hand-back": (duel(blue=AircraftState(0.0, 0.0, 5000.0, 1e-3, 0.0, 0.0)),
                  (1.0, -2.0, 0.0, -1.0), None),
}


@pytest.mark.parametrize("branch", list(BRANCHES))
def test_kernel_calls_keep_input_refcounts(compiled, branch):
    # Every tuple handed to step keeps its reference count across the calls,
    # on each branch; results that pass an input through hold one more
    # reference only while they live.  A count off by one either way is a
    # leak, or a free while the caller still holds the object.
    state, a_blue, expected = BRANCHES[branch]
    flat, a_blue, a_red = flatten(state), list(a_blue), list(TRIM)
    inputs = [o for o in (flat, *flat[:4], a_blue, a_red) if o is not None]
    before = [sys.getrefcount(o) for o in inputs]
    for _ in range(3):
        out = compiled.step(flat, a_blue, a_red)
        if expected is None:
            assert out is None
        else:
            assert (out[0][4], out[0][5], out[3]) == expected
            assert out[0][9] is out[3]
            assert len(out[1]) == len(out[2]) == len(OBS_BOUNDS)
            # New objects are held by their container alone (the count
            # includes getrefcount's argument).
            assert [sys.getrefcount(out[0]), sys.getrefcount(out[1]),
                    sys.getrefcount(out[2]), sys.getrefcount(out[0][0]),
                    sys.getrefcount(out[0][1]),
                    sys.getrefcount(out[0][8])] == [2] * 6
        del out
    assert [sys.getrefcount(o) for o in inputs] == before


class Handle:
    """An expand handle that counts its live instances."""

    live = 0

    def __init__(self, inner):
        self.inner = inner
        Handle.live += 1

    def __del__(self):
        Handle.live -= 1


def search_args(branch):
    """search's arguments for a SEARCH_BRANCHES branch: mcts' callbacks on
    small networks, the critic's last-layer weights the branch's where it
    names them, expand's handles wrapped in Handle, and expand raising
    RuntimeError on every nth call where the branch names n.  Each search
    on them draws from the same rng state, reset when the root is
    expanded, so every walk of one tuple searches alike."""
    root, raise_at, critic_weights, _ = SEARCH_BRANCHES[branch]
    nets = [mlp.init_params(i, (13, 8, 8, 1 if i == 1 else 4),
                            with_log_std=i != 1) for i in range(3)]
    if critic_weights is not None:
        nets[1].weights[-1][:, 0] = critic_weights
    rng = np.random.default_rng(0)
    start = rng.bit_generator.state
    expand, evaluate, build = mcts._callbacks(*nets, 9, rng)
    own, opp = observe(root, BLUE), observe(root, RED)
    calls = [0]

    def counted_expand(obs):
        calls[0] += 1
        if raise_at is not None and calls[0] % raise_at == 0:
            raise RuntimeError("expand failed")
        if obs is own:
            rng.bit_generator.state = start
        value, handle = expand(obs)
        return value, Handle(handle)

    def counted_build(handle, obs):
        return build(handle.inner, obs)

    return (root, False, own, opp, 9, 20, 1.25, 5, counted_expand, evaluate,
            counted_build)


# search's branches: (root, n where expand raises on every nth call, the
# critic's last-layer weights if not its own, what search returns).
SEARCH_BRANCHES = {
    "walked": (flatten(duel(separation=9000.0)), None, None, "result"),
    # One +inf and one -inf weight: the critic's output is NaN at some nodes
    # and infinite at others, and the search is walked to its result.
    "non-finite values": (flatten(duel(separation=9000.0)), None,
                          [math.inf, -math.inf] + [0.0] * 6,
                          "non-finite result"),
    # The first child step overflows blue's position and hands back.
    "handed back": (flatten(duel(blue=AircraftState(0.0, 0.0, 5000.0, 1.7e308,
                                                     0.0, 0.0))),
                    None, None, None),
    # The sixth expansion raises, mid-search.
    "raised": (flatten(duel(separation=9000.0)), 6, None, RuntimeError),
}


def search_branch(compiled, branch, args):
    """One compiled search on args, checked against its branch and, where
    it is walked or raises, against mcts._walk on the same args."""
    expected = SEARCH_BRANCHES[branch][3]
    if expected is RuntimeError:
        with pytest.raises(RuntimeError, match="expand failed"):
            compiled.search(*args)
        with pytest.raises(RuntimeError, match="expand failed"):
            mcts._walk(*args)
    else:
        out = compiled.search(*args)
        if expected is None:
            assert out is None
        else:
            assert sum(out[0]) == 20
            assert math.isfinite(out[1]) == (expected == "result")
            # New objects are held by their container alone (the count
            # includes getrefcount's argument).
            assert [sys.getrefcount(out), sys.getrefcount(out[0]),
                    sys.getrefcount(out[2])] == [2, 2, 2]
            # The same tuple on the Python walk: the same visits, critic
            # output and root arrays, byte for byte.
            ref = mcts._walk(*args)
            assert out[0] == ref[0]
            assert np.float64(out[1]).tobytes() == np.float64(ref[1]).tobytes()
            assert [a.tobytes() for a in out[2]] == [a.tobytes() for a in ref[2]]
            del ref
        del out
    assert Handle.live == 0  # the tree let go of every handle


@pytest.mark.parametrize("branch", list(SEARCH_BRANCHES))
def test_search_calls_keep_input_refcounts(compiled, branch):
    # As for step: every input keeps its reference count across calls that
    # walk the tree, hand it back, or stop on a callback's exception.
    args = search_args(branch)
    inputs = [o for o in (*args[:4], *args[0][:4], *args[8:]) if o is not None]
    before = [sys.getrefcount(o) for o in inputs]
    for _ in range(3):
        search_branch(compiled, branch, args)
    assert [sys.getrefcount(o) for o in inputs] == before


def test_step_hands_malformed_inputs_back(compiled):
    flat = flatten(duel())
    assert compiled.step(flat, TRIM, TRIM) is not None
    malformed_actions = ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0, -1.0, 0.0],
                         [1, 0.0, 0.0, -1.0], [math.nan, 0.0, 0.0, -1.0],
                         np.array(TRIM), [[1.0, 0.0, 0.0, -1.0]] * 4)
    for a in malformed_actions:
        assert compiled.step(flat, a, TRIM) is None
        assert compiled.step(flat, TRIM, a) is None
    malformed_flats = (
        flat[:9], flat + (0,), list(flat),
        (flat[0][:5],) + flat[1:],              # a short aircraft
        flat[:4] + (1,) + flat[5:],             # a live missile without kinematics
        flat[:4] + (4,) + flat[5:],             # no such status
        flat[:6] + (1,) + flat[7:],             # a fired flag that is not a bool
        flat[:8] + (0,) + flat[9:],             # an int clock
        flat[:8] + (math.inf,) + flat[9:],      # a clock that is not finite
        flat[:9] + (3,),                        # a finished engagement
    )
    for bad in malformed_flats:
        assert compiled.step(bad, TRIM, TRIM) is None


def test_kernel_identity_under_the_debug_allocator(compiled):
    # PYTHONMALLOC=debug marks freed and fresh memory and checks guard bytes
    # around every block, and -X dev adds the runtime's own checks, so a
    # reference dropped too early or a write past an object crashes or
    # fails here instead of corrupting a value somewhere later.
    # The probe runs step's invariant, search's, and search's branches,
    # among them a critic whose outputs are not finite, walked to a result,
    # and a callback that raises mid-search, which frees the tree on the
    # error path.
    probe = ("from dogfight import environment, selfcheck\n"
             "import test_kernel\n"
             "print(selfcheck.kernel_identity(2000, 1)['decisions'])\n"
             "print(selfcheck.search_identity(40, 1)['searches'])\n"
             "for branch in test_kernel.SEARCH_BRANCHES:\n"
             "    test_kernel.search_branch(environment._kernel, branch,\n"
             "                              test_kernel.search_args(branch))\n"
             "print(len(test_kernel.SEARCH_BRANCHES))\n")
    env = dict(os.environ, PYTHONMALLOC="debug",
               PYTHONPATH=os.pathsep.join((str(Path(kernel.__file__).parents[1]),
                                           str(Path(__file__).parent))))
    proc = subprocess.run([sys.executable, "-X", "dev", "-c", probe],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2000", "40", "4"]


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_kernel_source_compiles_without_warnings(tmp_path):
    # The loader's own command, constants included, under extra warnings.
    proc = subprocess.run(
        kernel.command(kernel.COMPILER, tmp_path / "kernel.so", "-Wall",
                       "-Wextra"),
        capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_build_from_a_clean_cache(tmp_path, monkeypatch):
    module, where = kernel.load(tmp_path)
    assert module is not None, where
    assert [p.name for p in tmp_path.iterdir()] == [Path(where).name]
    assert Path(where) == kernel.cached_path(tmp_path)
    monkeypatch.setattr(environment, "_kernel", module)
    assert selfcheck.kernel_identity(300, 77)["decisions"] == 300
    # A warm load reuses the file.
    again, where_again = kernel.load(tmp_path)
    assert again is not None and where_again == where


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_a_fresh_build_removes_outdated_builds(tmp_path, monkeypatch):
    import importlib.machinery
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    outdated = tmp_path / f"_kernel-{'0' * 64}{suffix}"
    other_python = tmp_path / f"_kernel-{'1' * 64}.cpython-00-other.so"
    partial = tmp_path / f"_kernel-{'2' * 64}{Path(suffix).stem}-x.tmp"
    unrelated = tmp_path / "environment.cpython-311.pyc"
    for p in (outdated, other_python, partial, unrelated):
        p.write_bytes(b"not a build")
    module, where = kernel.load(tmp_path)
    assert module is not None, where
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [Path(where).name, other_python.name, partial.name, unrelated.name])

    # A warm load only hashes and loads: no compile, nothing removed.
    outdated.write_bytes(b"not a build")

    def no_compile(path):
        raise AssertionError("a warm load compiled")

    monkeypatch.setattr(kernel, "_compile", no_compile)
    again, where_again = kernel.load(tmp_path)
    assert again is not None and where_again == where
    assert outdated.exists()


def _rollout_digest(decisions: int) -> str:
    import numpy as np
    rng = np.random.default_rng(5)
    digest = hashlib.sha256()
    state = None
    for _ in range(decisions):
        if state is None:
            state = flatten(reset(int(rng.integers(2 ** 63))))
        out = env_step(state, rng.uniform(-1.0, 9.0, 4).tolist(),
                       rng.uniform(-1.0, 9.0, 4).tolist())
        digest.update(selfcheck.step_bytes(out))
        state = None if out[3] else out[0]
    return digest.hexdigest()


def test_no_compiler_falls_back_to_the_same_bytes(tmp_path, monkeypatch):
    empty = tmp_path / "bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    cache = tmp_path / "cache"
    module, why = kernel.load(cache)
    assert module is None and "compiler" in why
    assert not cache.exists()

    # A fresh interpreter on a copy of the package with no build cached.
    pkg = tmp_path / "src" / "dogfight"
    shutil.copytree(Path(kernel.__file__).parent, pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    probe = (
        "import dogfight.environment as e\n"
        "assert e._kernel is None, e._KERNEL_DETAIL\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from test_kernel import _rollout_digest\n"
        "print(_rollout_digest(300))\n")
    proc = subprocess.run(
        [sys.executable, "-B", "-c", "import sys\n" + probe,
         str(Path(__file__).parent)],
        capture_output=True, text=True, cwd=tmp_path,
        env={"PATH": str(empty), "PYTHONPATH": str(pkg.parent)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == _rollout_digest(300)
    assert sorted(p.name for p in pkg.iterdir()) == sorted(
        p.name for p in Path(kernel.__file__).parent.iterdir()
        if p.name != "__pycache__")
