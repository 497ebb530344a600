"""Run work in forked children of a process that has imported ehpcalc and
done nothing else with it, so that no cache filled by one child is seen by
the next. The harness starts no threads, so forking is safe.
"""
from __future__ import annotations

import os
import pickle
import sys
import traceback


class ChildFailed(RuntimeError):
    """A forked child ended without sending its result."""


def run_forked(fn, *args):
    """fn(*args) in a forked child; returns (result, peak RSS of the child in MB)."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            payload = pickle.dumps(("ok", fn(*args)))
        except BaseException:  # reported to the parent, which re-raises
            payload = pickle.dumps(("error", traceback.format_exc()))
            code = 1
        with os.fdopen(write_fd, "wb") as out:
            out.write(payload)
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, _status, usage = os.wait4(pid, 0)
    if not data:
        raise ChildFailed(f"child {pid} ended without a result")
    kind, value = pickle.loads(data)
    if kind == "error":
        raise ChildFailed(value)
    return value, usage.ru_maxrss / 1024
