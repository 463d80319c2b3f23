"""Host facts shared by the engine's static dispatch rule and reporting."""

from __future__ import annotations

import os


def effective_cpus() -> int:
    """CPUs this process may run on: the scheduler affinity mask's size.

    The affinity mask is what CI containers actually constrain, so it is
    the right budget for deciding whether threads can overlap; platforms
    without ``sched_getaffinity`` fall back to ``os.cpu_count()``.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1
