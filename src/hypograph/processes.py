"""extract's processes: how each one is set up to run the engine, and how
the forked ones are started, reaped and ended.  The C functions this
needs are looked up through ctypes; where one is missing, its part does
nothing."""

from __future__ import annotations

import ctypes
import os
import signal
import threading


class WorkerError(RuntimeError):
    """An extract child process was killed by a signal.  Names its graph
    rows and maps to exit code 4."""


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork, or should not
    because another Python thread might hold a lock the child would need."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        return len(os.sched_getaffinity(0))
    return 1


# thread-count setters that OpenBLAS builds export
_BLAS_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def _c_function(path, names, restype, argtypes):
    """The first of the C functions ``names`` that the library at ``path``
    (None: the C library) exports, with its result and argument types set;
    None where the library does not load or exports none of them."""
    try:
        lib = ctypes.CDLL(path)
    except (OSError, TypeError):  # no such library, or no handle on the C library
        return None
    function = next((getattr(lib, name) for name in names if hasattr(lib, name)), None)
    if function is not None:
        function.restype, function.argtypes = restype, argtypes
    return function


def _blas_thread_controls() -> list:
    """The thread-count setter of each OpenBLAS this process has loaded,
    found by path in its memory map; none where there is no ``/proc`` or
    the BLAS is not OpenBLAS (MKL, Accelerate)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line})
    except OSError:
        return []
    setters = (_c_function(path, _BLAS_SETTERS, None, (ctypes.c_int,)) for path in paths)
    return [set_threads for set_threads in setters if set_threads is not None]


def set_up_process() -> None:
    """Set this process up to run the engine as extract does, and leave it
    so.  Freed arrays stay in the C library's heap: by default glibc gives
    large and trailing freed blocks back to the system, and every chunk of
    extract, and every timed run of bench, faults their pages in again.
    BLAS computes on one thread: forked extract processes already use every
    usable CPU, and BLAS threads gained a one-process run no wall time.
    Without glibc's ``mallopt``, or without OpenBLAS, that part does nothing."""
    mallopt = _c_function(None, ("mallopt",), ctypes.c_int, (ctypes.c_int, ctypes.c_int))
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at glibc's 64-bit cap
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    for set_threads in _blas_thread_controls():
        set_threads(1)


def _die_with_parent(parent: int) -> None:
    """In a child forked by ``parent``: ask the kernel to SIGKILL this
    process when the parent dies, by a signal too, and exit at once if it
    already has.  Where the C library has no ``prctl`` (not Linux) this
    does nothing."""
    prctl = _c_function(None, ("prctl",), ctypes.c_int, (ctypes.c_int, ctypes.c_ulong))
    if prctl is None:
        return
    prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:  # the parent died before the call
        os._exit(1)


def run_shares(shares, files, write_share) -> None:
    """Call write_share(share, file) per share: share 0 in this process, the
    others in forked children, which report only their exit status. A
    share whose child exits nonzero runs again here, so that it raises its
    own exception with its own traceback, the lowest failing share first;
    a child killed by a signal raises WorkerError, which names its peak
    RSS. Every child left is killed and reaped on the way out, and the
    kernel kills the children of a parent that dies."""
    children = []  # (pid, share, file), in share order
    parent = os.getpid()
    try:
        for share, fh in zip(shares[1:], files[1:]):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    _die_with_parent(parent)
                    write_share(share, fh)
                    code = 0
                finally:
                    os._exit(code)  # never return or raise into the caller's frames
            children.append((pid, share, fh))
        write_share(shares[0], files[0])
        while children:
            pid, share, fh = children[0]
            _, status, usage = os.wait4(pid, 0)
            code = os.waitstatus_to_exitcode(status)
            children.pop(0)
            if code < 0:
                rows = f"{share[0][0]}-{share[-1][1] - 1}"
                raise WorkerError(f"graph rows {rows}: extract process failed: "
                                  f"killed by signal {-code}, "
                                  f"peak RSS {usage.ru_maxrss / 1024:.1f} MB")
            if code:
                fh.seek(0)
                fh.truncate()
                write_share(share, fh)
    finally:
        for pid, _, _ in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
