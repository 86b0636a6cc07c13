"""Child processes: one at a time, timed from spawn to exit, always reaped."""

from __future__ import annotations

import os
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Child:
    returncode: int
    stdout: str
    stderr: str
    elapsed_s: float
    peak_rss_mb: float


def run_child(cmd: list[str], cwd, scratch, deadline: float) -> Child:
    """Run ``cmd`` to completion; PERFBENCH_T0 carries the spawn time.

    ``os.wait4`` reaps the child and returns its own resource usage, so
    the peak RSS belongs to this child alone.  A child still running at
    ``deadline`` (a ``perf_counter`` reading) is killed, and reaped all
    the same.
    """
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        env = dict(os.environ)
        start = time.perf_counter()
        env["PERFBENCH_T0"] = repr(start)
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            returncode=proc.returncode,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
            elapsed_s=elapsed,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
        )
