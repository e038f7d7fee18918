"""Best-effort builder/loader for the C kernel core (``_ckernel.c``).

The repo ships the C source, not a binary: on first import we compile
it with the host C compiler into a cache under the repository's
``build/`` directory (falling back to the system temp dir when that is
not writable), addressed by source, interpreter ABI, compiler and
flags, and load it with :mod:`importlib`.  Every failure mode — no
compiler, no headers, compile error, import error — degrades silently
to ``None`` and the pure-Python scheduler, link core and transport core
take over, so the accelerator can never break a checkout.

The module holds three cores: ``LoopCore`` (the scheduler behind
``CEventLoop``), ``LinkCore`` (the per-packet half of
``repro.netsim.link.Link``) and ``TransportCore`` (the send/ack/receive
loop of ``repro.transport.base.BaseConnection``).

Environment knobs:

``REPRO_NO_CKERNEL=1``
    Skip the C kernel entirely (forces the pure-Python fallback).
``REPRO_CKERNEL_DEBUG=1``
    Print the reason when the C kernel is unavailable (build errors
    are otherwise swallowed).
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sysconfig
import tempfile

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_ckernel.c")

#: Compiler flags.  ``-ffp-contract=off`` stops the compiler fusing
#: ``a*b+c`` into one FMA (GCC's default wherever the target has one,
#: e.g. aarch64): the link arithmetic must round exactly as Python's.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _debug(message: str) -> None:
    if os.environ.get("REPRO_CKERNEL_DEBUG"):
        print(f"[repro._accel] {message}")


def _cache_dirs() -> list[str]:
    """Candidate cache roots, most preferred first."""
    repo_root = os.path.abspath(
        os.path.join(os.path.dirname(_SOURCE), "..", "..", "..")
    )
    return [
        os.path.join(repo_root, "build", "ckernel"),
        os.path.join(tempfile.gettempdir(), "repro-ckernel"),
    ]


def _build_tag(source: bytes, cc: str, flags: tuple[str, ...]) -> str:
    """Content address: source, interpreter ABI, compiler and flags.

    A change to any of them names a new ``.so``, so a stale build is
    never reused.
    """
    h = hashlib.blake2b(digest_size=10)
    h.update(source)
    h.update((sysconfig.get_config_var("SOABI") or "abi3").encode())
    h.update("\0".join((cc,) + flags).encode())
    return h.hexdigest()


def _compile(cc: str, out_path: str) -> bool:
    include = sysconfig.get_paths()["include"]
    tmp = f"{out_path}.tmp.{os.getpid()}"
    cmd = [cc, *_CFLAGS, f"-I{include}", _SOURCE, "-o", tmp]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=180, check=False
        )
    except (OSError, subprocess.SubprocessError) as exc:
        _debug(f"compile failed to run: {exc}")
        return False
    if proc.returncode != 0:
        _debug(f"compile failed:\n{proc.stderr}")
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False
    # Atomic publish: concurrent builders race benignly.
    os.replace(tmp, out_path)
    return True


def compiler() -> str | None:
    """The host C compiler the kernel is built with, or ``None``."""
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


def load():
    """Compile (if needed) and import the C kernel, or return ``None``."""
    if os.environ.get("REPRO_NO_CKERNEL"):
        return None
    try:
        with open(_SOURCE, "rb") as handle:
            source = handle.read()
    except OSError:
        _debug("C source missing")
        return None
    cc = compiler()
    if cc is None:
        _debug("no C compiler on PATH")
        return None
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    name = f"_ckernel-{_build_tag(source, cc, _CFLAGS)}{suffix}"
    so_path = None
    for root in _cache_dirs():
        candidate = os.path.join(root, name)
        if os.path.exists(candidate):
            so_path = candidate
            break
    if so_path is None:
        for root in _cache_dirs():
            try:
                os.makedirs(root, exist_ok=True)
            except OSError:
                continue
            candidate = os.path.join(root, name)
            if _compile(cc, candidate):
                so_path = candidate
                break
        if so_path is None:
            return None
    try:
        spec = importlib.util.spec_from_file_location(
            "repro.events._ckernel", so_path
        )
        if spec is None or spec.loader is None:
            return None
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except Exception as exc:  # pragma: no cover - host-specific breakage
        _debug(f"import failed: {exc}")
        return None
    return module
