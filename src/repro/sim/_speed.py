"""Build and load the C core (:mod:`repro.sim._speedups`): the engine's
slab and run loop, the network pass of
:class:`repro.hardware.router.TorusNetwork` and the N-Queens search of
:mod:`repro.apps.nqueens.solver`.

The extension is compiled on first import with the system C compiler
(:func:`build_command`; numpy's static ``libnpyrandom`` linked in) — no
pip, no network, no build isolation — and cached next to the source as
``_speedups.<cache_tag>-<hash>.so``, ``<hash>`` a SHA-256 prefix of
``_speedups.c`` and the numpy version: a binary built from other source
or numpy is never loaded, whatever its mtime, and a build removes the
older ones.  On any failure (no compiler, sandboxed filesystem, exotic
platform) ``core`` is ``None`` and the engine, router and N-Queens solver
run their Python bodies, which are contract-identical (the parity suites
drive both) — and one :class:`RuntimeWarning`
carrying ``build_error`` says so, because nobody asked for that lane
(the test suite and CI turn it into an error).

Set ``REPRO_PURE_ENGINE=1`` to ask for the pure lanes: no build, no
warning.  CI uses this to keep the pure path honest, and it is the
escape hatch if a platform miscompiles.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import warnings

import numpy

from repro._env import env_flag

__all__ = ["core", "build_error", "build_command"]

#: the loaded extension module, or None when unavailable
core = None
#: why the core is unavailable (diagnostics; None when loaded or disabled)
build_error: str | None = None


def _tag() -> str:
    return getattr(sys.implementation, "cache_tag", None) or "python"


def _so_path(src_dir: str) -> str:
    """The cached build of ``src_dir``'s ``_speedups.c``, named by its
    content and the numpy whose ``libnpyrandom`` it links statically."""
    with open(os.path.join(src_dir, "_speedups.c"), "rb") as src:
        digest = hashlib.sha256(
            src.read() + numpy.__version__.encode()).hexdigest()[:16]
    return os.path.join(src_dir, f"_speedups.{_tag()}-{digest}.so")


def build_command(c_path: str, out: str) -> list[str]:
    """The compiler command that builds ``c_path`` into ``out``."""
    cc = (os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
          or shutil.which("clang"))
    if cc is None:
        raise RuntimeError("no C compiler on PATH")
    random_lib = os.path.join(os.path.dirname(numpy.__file__), "random", "lib")
    # the whole core links these, not only the N-Queens probe: a numpy
    # stripped of its static library or headers loses every C lane
    for need in (os.path.join(random_lib, "libnpyrandom.a"),
                 os.path.join(numpy.get_include(), "numpy", "random",
                              "distributions.h")):
        if not os.path.exists(need):
            raise RuntimeError(f"numpy {numpy.__version__} ships no {need}; "
                               "the C core links numpy's static random "
                               "library")
    # -ffp-contract=off: the router lane's simulated times and the probe's
    # `est += weight * k` must round as Python does, and a fused
    # multiply-add (aarch64, any -march with FMA) rounds once where Python
    # rounds twice
    return [cc, "-O2", "-ffp-contract=off", "-fPIC", "-shared",
            f"-I{sysconfig.get_paths()['include']}",
            f"-I{numpy.get_include()}", c_path, "-o", out,
            f"-L{random_lib}", "-lnpyrandom", "-lm"]


def _compile(c_path: str, so_path: str) -> None:
    # Build into a temp file then atomically rename, so concurrent
    # imports (pytest-xdist, sweep workers) never load a
    # half-written object.
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(so_path))
    os.close(fd)
    try:
        subprocess.run(build_command(c_path, tmp), check=True,
                       capture_output=True, text=True, timeout=120)
        os.replace(tmp, so_path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load():
    global build_error
    if env_flag("REPRO_PURE_ENGINE"):
        return None
    src_dir = os.path.dirname(os.path.abspath(__file__))
    c_path = os.path.join(src_dir, "_speedups.c")
    if not os.path.exists(c_path):
        build_error = "_speedups.c missing"
        return None
    try:
        so_path = _so_path(src_dir)
        if not os.path.exists(so_path):
            _compile(c_path, so_path)
            stale = os.path.join(src_dir, f"_speedups.{_tag()}*.so")
            for old in glob.glob(stale):
                if old != so_path:
                    with contextlib.suppress(OSError):  # removed already
                        os.unlink(old)
        spec = importlib.util.spec_from_file_location(
            "repro.sim._speedups", so_path)
        if spec is None or spec.loader is None:
            build_error = f"cannot load {so_path}"
            return None
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod
    except subprocess.CalledProcessError as exc:  # compiler diagnostics
        build_error = (exc.stderr or str(exc)).strip()[-2000:]
        return None
    except Exception as exc:  # noqa: BLE001 - any failure means fallback
        build_error = f"{type(exc).__name__}: {exc}"
        return None


core = _load()
if build_error is not None:
    warnings.warn(
        "repro.sim._speedups unavailable, running the pure-Python engine "
        f"and router (REPRO_PURE_ENGINE=1 asks for them): {build_error}",
        RuntimeWarning)
