"""Build, cache and load `_kernel.c`, the compiled copy of
environment._reference.

The extension has one entry point, `step`: a whole decision on the flat
engagement tuple (environment.flatten), which env_step and tree search's
flat model (environment.flat_model) call.

The first import compiles the extension with the system C compiler into the
package's `__pycache__`; later imports only hash the source and load the
cached file.  The file name carries the sha256 of the C source, the compiler
flags and the interpreter's extension suffix, so an outdated build is never
loaded.  The compiler writes to a temporary file that is then renamed into
place, so concurrent first imports cannot see a partial file.  A fresh build
removes the other `_kernel-*` builds in its directory, best effort, so
outdated builds do not pile up as the source changes.

The flags keep the arithmetic the interpreter's: no contraction of a
multiply and an add into a fused multiply-add, and no builtin replacement of
the C library's math functions.  Nothing here is required: without a compiler,
with a cache directory that cannot be written, or when the library does not
load, `load` returns None with the reason, and env_step and search's flat
model run environment._reference, which gives the same bytes more slowly;
`dogfight train` then says so on stderr.
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


def cached_path(cache_dir: Path = CACHE_DIR) -> Path:
    """Where the build of the current source and flags lives."""
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update("\0".join(FLAGS + (suffix,)).encode())
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
    import sysconfig
    import tempfile

    cc = shutil.which(COMPILER)
    if cc is None:
        raise OSError(f"no C compiler {COMPILER!r} on PATH")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem + "-",
                               suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *FLAGS, "-I", sysconfig.get_paths()["include"], str(SOURCE),
             "-o", tmp, "-lm"],
            capture_output=True, text=True)
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
