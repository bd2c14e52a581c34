"""The compiled substep kernel against the Python loop it copies.

Every test here compares env_step with the kernel (the default) and with
`environment._kernel` patched to None, which runs the Python loop: the
reference.  Equality is of the IEEE bytes of every field (selfcheck.step_bytes).
"""

import gc
import hashlib
import math
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from dogfight import environment, kernel, selfcheck
from dogfight.dynamics import (
    G,
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
    RED,
    EngagementState,
    Outcome,
    env_step,
    reset,
)
from dogfight.missile import MissileParams, MissileState, MissileStatus

TRIM = (1.0, 0.0, 0.0, -1.0)
HAVE_CC = shutil.which(kernel.COMPILER) is not None


def step(kernel_module, state, a_blue, a_red, **kwargs):
    saved, environment._kernel = environment._kernel, kernel_module
    try:
        return env_step(state, a_blue, a_red, **kwargs)
    finally:
        environment._kernel = saved


def both_paths(state, a_blue=TRIM, a_red=TRIM, kernel_runs=True, **kwargs):
    """env_step through the kernel and through the Python loop; the result
    once both agree byte for byte.  kernel_runs says whether the kernel
    must finish the decision itself rather than hand it back."""
    spy = selfcheck.KernelSpy(environment._kernel)
    fast = step(spy, state, a_blue, a_red, **kwargs)
    ref = step(None, state, a_blue, a_red, **kwargs)
    assert selfcheck.step_bytes(fast) == selfcheck.step_bytes(ref)
    assert spy.calls > 0 and (spy.handed_back == 0) == kernel_runs
    return ref


def both_raise(state, a_blue=TRIM, a_red=TRIM, **kwargs):
    """The exception both paths raise; they must agree in type and message."""
    raised = []
    spy = selfcheck.KernelSpy(environment._kernel)
    for k in (spy, None):
        try:
            step(k, state, a_blue, a_red, **kwargs)
        except Exception as exc:  # the comparison is the test
            raised.append((type(exc), str(exc)))
        else:
            raised.append(None)
    assert raised[0] is not None and raised[0] == raised[1]
    assert spy.handed_back == 1
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


def test_kernel_constants_are_the_models(compiled):
    assert compiled.CONSTANTS == {
        "pi": math.pi, "tau": math.tau, "G": G, "PHYSICS_DT": PHYSICS_DT,
        "V_FLOOR": V_FLOOR, "GAMMA_LIMIT": GAMMA_LIMIT,
        "GROUND_FLOOR": GROUND_FLOOR, "EPISODE_TIME_LIMIT": EPISODE_TIME_LIMIT}


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
        for m in (res.state.blue_missile, res.state.red_missile):
            assert m is None or m.status is MissileStatus.HIT


def test_expiries_are_bit_identical(compiled):
    s = duel()
    # On flight time: still fast, past 60 s on the first substep.
    late = missile(BLUE, RED, 0.0, 0.0, 5000.0, vm=700.0, t=59.99)
    res = both_paths(replace(s, blue_missile=late, blue_fired=True))
    m = res.state.blue_missile
    assert m.status is MissileStatus.EXPIRED and m.t > 60.0 and m.vm > 200.0
    # On speed: coasting past burnout, drag takes it under 200 m/s.
    slow = missile(BLUE, RED, 0.0, 0.0, 5000.0, vm=200.05, t=30.0)
    res = both_paths(replace(s, blue_missile=slow, blue_fired=True))
    m = res.state.blue_missile
    assert m.status is MissileStatus.EXPIRED and m.vm < 200.0 and m.t < 60.0
    # Both spent ends the engagement once both sides have fired.
    res = both_paths(replace(s, blue_missile=late, blue_fired=True,
                             red_missile=replace(late, shooter=RED, target=BLUE,
                                                 x=20000.0, phi=math.pi),
                             red_fired=True))
    assert res.outcome is Outcome.DRAW and res.state.t == PHYSICS_DT


def test_spent_missiles_without_fired_flags_resume(compiled):
    # The kernel stops on two spent missiles; _evaluate says the engagement
    # goes on (neither fired flag is set), so it resumes every substep.
    spent = missile(BLUE, RED, 0.0, 0.0, 5000.0, status=MissileStatus.EXPIRED)
    s = duel(blue_missile=spent,
             red_missile=replace(spent, shooter=RED, target=BLUE))
    res = both_paths(s)
    assert res.outcome is Outcome.ONGOING and res.state.t == DECISION_DT


def test_guidance_holds_are_bit_identical(compiled):
    s = duel(separation=8000.0)
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
        res = both_paths(replace(s, blue_missile=m, blue_fired=True),
                         decision_dt=PHYSICS_DT)
        after = res.state.blue_missile
        assert (after.n_mc, after.n_mh) == (1.5, -2.5)


def test_integrator_limits_are_bit_identical(compiled):
    s = duel()
    # The speed floor under full deceleration.
    res = both_paths(replace(s, blue=replace(s.blue, v=V_FLOOR + 0.01)),
                     a_blue=(1.0, -2.0, 0.0, -1.0))
    assert res.state.blue.v == V_FLOOR
    # The flight-path clip under a full pull up.
    res = both_paths(replace(s, blue=replace(s.blue, gamma=GAMMA_LIMIT - 1e-4)),
                     a_blue=(8.0, 0.0, 0.0, -1.0))
    assert res.state.blue.gamma == GAMMA_LIMIT
    # A heading wrap that lands on -pi reports +pi.
    res = both_paths(replace(s, blue=replace(s.blue, phi=-math.pi)),
                     decision_dt=PHYSICS_DT)
    assert res.state.blue.phi == math.pi


def test_terminations_are_bit_identical(compiled):
    s = duel()
    # Ground contact.
    res = both_paths(replace(s, red=replace(s.red, z=GROUND_FLOOR + 1.0,
                                            gamma=-0.5)))
    assert res.outcome is Outcome.DRAW and res.state.red.z < GROUND_FLOOR
    # The clock lands exactly on the limit at the decision's last substep.
    res = both_paths(replace(s, t=EPISODE_TIME_LIMIT - DECISION_DT))
    assert res.outcome is Outcome.DRAW and res.state.t == EPISODE_TIME_LIMIT
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
        # A missile whose mass burns down to zero.
        (replace(s, blue_missile=missile(BLUE, RED, 0.0, 0.0, 5000.0, t=13.0),
                 blue_fired=True),
         dict(params=MissileParams(g0=84.0, gt=7.0, tw=12.0))),
        # A non-finite heading, which the math module refuses.
        (replace(s, blue=replace(s.blue, phi=math.inf)), {}),
    ]
    kinds = {both_raise(state, **kw)[0] for state, kw in cases}
    assert kinds == {DegenerateStateError, ValueError, ZeroDivisionError}


def test_non_float_fields_take_the_python_loop(compiled):
    # The kernel reads exact floats only; anything else is the reference's.
    s = duel()
    res = both_paths(replace(s, blue=AircraftState(0, 0, 5000, 300, 0, 0)),
                     kernel_runs=False)
    assert type(res.state.blue.x) is float


def test_kernel_decisions_do_not_leak(compiled):
    rng_states = [reset(seed) for seed in range(4)]
    s = duel(separation=9000.0)
    rng_states.append(replace(
        s, blue_missile=missile(BLUE, RED, 0.0, 0.0, 5000.0),
        red_missile=missile(RED, BLUE, 9000.0, 0.0, 5000.0, phi=math.pi),
        blue_fired=True, red_fired=True))
    fire = (2.0, 0.5, 0.3, 1.0)

    def decide(count):
        for i in range(count):
            env_step(rng_states[i % len(rng_states)], fire, TRIM)

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


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_kernel_source_compiles_without_warnings(tmp_path):
    proc = subprocess.run(
        [kernel.COMPILER, *kernel.FLAGS, "-Wall", "-Wextra", "-c",
         "-I", sysconfig.get_paths()["include"], str(kernel.SOURCE),
         "-o", str(tmp_path / "kernel.o")],
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
            state = reset(int(rng.integers(2 ** 63)))
        res = env_step(state, rng.uniform(-1.0, 9.0, 4), rng.uniform(-1.0, 9.0, 4))
        digest.update(selfcheck.step_bytes(res))
        state = None if res.done else res.state
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
