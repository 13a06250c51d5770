"""Process-tree CPU time and worker peak RSS, read from /proc."""

from __future__ import annotations

import os

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as f:
            s = f.read()
    except OSError:
        return None
    # comm (field 2) may hold spaces; fields after it start past the last ')'
    return s[s.rindex(")") + 2 :].split()


def reap_zombies() -> None:
    """Collect exited children of this process that nobody waited for."""
    me = os.getpid()
    for name in os.listdir("/proc"):
        if name.isdigit():
            f = _stat_fields(int(name))
            if f is not None and f[0] == "Z" and int(f[1]) == me:
                try:
                    os.waitpid(int(name), os.WNOHANG)
                except ChildProcessError:
                    pass


def descendants(root: int | None = None) -> list[int]:
    """Pids of every process below `root` (default: this process) that
    has not exited."""
    root = root or os.getpid()
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            f = _stat_fields(int(name))
            if f is not None and f[0] != "Z":
                children.setdefault(int(f[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def tree_cpu_s() -> float:
    """user+system CPU seconds of this process and all its descendants."""
    total = 0
    for pid in [os.getpid(), *descendants()]:
        f = _stat_fields(pid)
        if f is not None:
            total += int(f[11]) + int(f[12])  # utime, stime
    return total / _TICK


def ray_workers() -> list[int]:
    """Descendant Ray worker processes (their titles start with 'ray::')."""
    out = []
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if f.read(5) == b"ray::":
                    out.append(pid)
        except OSError:
            continue
    return out


def reset_peak_rss(pids: list[int]) -> None:
    """Reset VmHWM to the current RSS (clear_refs value 5)."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as f:
                f.write("5")
        except OSError:
            continue


def peak_rss_mb(pids: list[int]) -> float:
    """Highest VmHWM among `pids`, in MB."""
    best = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        best = max(best, int(line.split()[1]))
                        break
        except OSError:
            continue
    return best / 1024.0
