"""What the numbers depend on besides the code: host, versions, memory.

Peak memory is read as ``VmHWM`` from ``/proc/self/status`` in the fresh
child.  ``ru_maxrss`` is not sound for this: Linux folds the pre-``exec``
address space's high-water mark into the new image's ``ru_maxrss``, so a
child launched from a large parent reports the parent's footprint (the
904.2 MB that ``BENCH_core.json`` shows at every population size).
``VmHWM`` belongs to the address space and starts over at ``exec``.
Forked workers do not ``exec``, so for them ``RUSAGE_CHILDREN`` is sound.
"""

from __future__ import annotations

import os
import platform
import sys

#: thread-count variables BLAS and OpenMP read; recorded, never set
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def vm_hwm_kb() -> int:
    """This process's resident high-water mark, in kB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record() -> dict:
    """Host facts the parent can read without importing the program."""
    load = os.getloadavg()[0]
    cpus = nproc()
    return {
        "nproc": cpus,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV_VARS},
        "loadavg_1m_at_start": load,
        # a set measured on a busy host says little about the code
        "noisy": load > cpus,
    }


def numeric_record() -> dict:
    """numpy and its BLAS, as the child that ran the work sees them."""
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        pass  # older numpy: no dict mode
    return {
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
    }
