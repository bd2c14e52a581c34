"""Build, cache and load `_kernel.c`, the compiled copy of
environment._reference and of mcts.run_search's tree walk.

The extension has two entry points.  `step` is a whole decision on the
flat engagement tuple (environment.flatten); environment.env_step, the one
step of matches and of run_search's Python walk, is its one caller.  `search` walks a search tree, stepping
its children as `step` does and calling back into Python only for the
networks; mcts.run_search calls it when its model is env_step.

The C source defines no model constant.  `defines` turns the Python
definitions (dynamics', environment's and missile's constants and the
observation bounds) into `-D` flags, each float by its repr, which the
compiler reads back to the same double; so every constant has one
definition, and the kernel computes with exactly its value.  The flags are
read when the kernel is loaded, after environment has bound every name
they take.

The first import compiles the extension with the system C compiler into the
package's `__pycache__`; later imports only hash the source and load the
cached file.  The file name carries the sha256 of the C source, the compiler
flags with the defines, and the interpreter's extension suffix, so a build
of outdated source or constants is never loaded.  The compiler writes to a
temporary file that is then renamed into place, so concurrent first imports
cannot see a partial file.  A fresh build removes the other `_kernel-*`
builds in its directory, best effort, so outdated builds do not pile up.

The flags keep the arithmetic the interpreter's: no contraction of a
multiply and an add into a fused multiply-add, and no builtin replacement of
the C library's math functions.  Nothing here is required: without a compiler,
with a cache directory that cannot be written, or when the library does not
load, `load` returns None with the reason, and env_step runs
environment._reference and run_search its Python walk, which give the same
bytes more slowly; `dogfight train` then says so on stderr.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
from pathlib import Path
from types import ModuleType
from typing import Optional

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
COMPILER = "cc"
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-builtin")
MODULE_NAME = "dogfight._kernel"


def defines() -> tuple[str, ...]:
    """The model constants as `-D` flags, from their Python definitions.

    A leading underscore is dropped from a macro's name.  OBS_LO and OBS_HI
    are environment.OBS_BOUNDS' columns, as C initializers.  AttributeError
    where a name is missing.
    """
    from . import dynamics, environment, missile

    named = ((dynamics, ("G", "PHYSICS_DT", "V_FLOOR", "GAMMA_LIMIT", "NX_MIN",
                         "NX_MAX", "NZ_MIN", "NZ_MAX", "MU_MIN", "MU_MAX")),
             (environment, ("GROUND_FLOOR", "EPISODE_TIME_LIMIT", "FIRE_RANGE",
                            "FIRE_BEARING", "_DECISION_SUBSTEPS")),
             (missile, ("THRUST", "LAUNCH_MASS", "BURN_RATE", "BURN_TIME",
                        "AIR_DENSITY", "REFERENCE_AREA", "DRAG_COEFFICIENT",
                        "NAV_GAIN", "MAX_FLIGHT_TIME", "HIT_RADIUS",
                        "MIN_SPEED", "MAX_COMMAND")))
    flags = [f"-D{name.lstrip('_')}={getattr(module, name)!r}"
             for module, names in named for name in names]
    for macro, column in (("OBS_LO", 0), ("OBS_HI", 1)):
        values = ", ".join(repr(pair[column]) for pair in environment.OBS_BOUNDS)
        flags.append(f"-D{macro}={{{values}}}")
    return tuple(flags)


def command(cc: str, output: Path, *extra: str) -> list[str]:
    """The argv with which cc builds the extension at output; extra flags go
    before the source."""
    import sysconfig

    return [cc, *FLAGS, *extra, *defines(), "-I",
            sysconfig.get_paths()["include"], str(SOURCE), "-o", str(output),
            "-lm"]


def cached_path(cache_dir: Path = CACHE_DIR) -> Path:
    """Where the build of the current source, flags and constants lives."""
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update("\0".join(FLAGS + defines() + (suffix,)).encode())
    return cache_dir / f"_kernel-{key.hexdigest()}{suffix}"


def _import(path: Path) -> ModuleType:
    loader = importlib.machinery.ExtensionFileLoader(MODULE_NAME, str(path))
    spec = importlib.util.spec_from_file_location(MODULE_NAME, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def _compile(path: Path) -> None:
    """Build the extension at path; raises OSError with the reason."""
    import subprocess
    import tempfile

    cc = shutil.which(COMPILER)
    if cc is None:
        raise OSError(f"no C compiler {COMPILER!r} on PATH")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem + "-",
                               suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run(command(cc, Path(tmp)), capture_output=True,
                              text=True)
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or [""]
            raise OSError(f"{COMPILER} exited {proc.returncode}: {lines[0]}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    _remove_other_builds(path)


def _remove_other_builds(path: Path) -> None:
    """Unlink every other `_kernel-*` build next to path; errors are ignored.

    Temporary files end in `.tmp`, not the extension suffix, so a concurrent
    build in progress is left alone.
    """
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    for old in path.parent.glob(f"_kernel-*{suffix}"):
        if old != path:
            try:
                old.unlink()
            except OSError:
                pass


def load(cache_dir: Path = CACHE_DIR) -> tuple[Optional[ModuleType], str]:
    """(the kernel module, its path), or (None, why it is unavailable)."""
    try:
        path = cached_path(cache_dir)
        if not path.is_file():
            _compile(path)
        return _import(path), str(path)
    except Exception as exc:  # any failure leaves the reference in charge
        return None, f"{type(exc).__name__}: {exc}"
