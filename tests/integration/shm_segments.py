"""The shared-memory leak check of the sharded-engine test modules.

A shard segment is named ``repro_shard_<pid>_<n>`` after the process that
created it.  Several test processes may share one host, so a segment counts
as leaked only when its creator is this process or a process that is no
longer alive: a live foreign process's segments are its own business.
"""

import glob
import os

from repro.scheduling.shard_pool import SEGMENT_PREFIX


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, but owned by another user
        return True
    return True


def _owner(path: str) -> int | None:
    """The creator's pid from a segment's name, or ``None`` if it has none."""
    fields = os.path.basename(path)[len(SEGMENT_PREFIX) + 1 :].split("_")
    return int(fields[0]) if fields[0].isdigit() else None


def leaked_segments(shm_dir: str = "/dev/shm") -> list[str]:
    """Shard segments under *shm_dir* that no other live process owns."""
    leaked = []
    for path in glob.glob(os.path.join(shm_dir, f"{SEGMENT_PREFIX}_*")):
        pid = _owner(path)
        if pid is None or pid == os.getpid() or not _alive(pid):
            leaked.append(path)
    return sorted(leaked)
