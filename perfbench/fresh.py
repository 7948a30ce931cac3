"""Run one function in a new process and wait for its result.

The process is a new Python interpreter started with ``subprocess`` that
runs this file, so it shares no state with the benchmark's driver
process, and nothing runs beside it.  The function is named by module and
attribute and imported in the new process, so that a module imported
there is imported from scratch.  The job goes to the process on its
standard input and the result comes back on its standard output, both
pickled; whatever the function prints to standard output goes to standard
error instead.  `call` waits for the process to end on every path out of
it, killing it first if it is still running.

    python3 perfbench/fresh.py MODULE FUNCTION   # job on stdin; used by `call`
"""

from __future__ import annotations

import importlib
import os
import pickle
import resource
import subprocess
import sys
import traceback
from pathlib import Path

import inputs

TIMEOUT_S = 170
HERE = Path(__file__).resolve().parent


class SampleError(RuntimeError):
    pass


def _entry(module: str, fn: str) -> None:
    """The new process: read the job, run `module.fn(job)`, write the result."""
    out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.path.insert(0, str(inputs.SRC))
    job = pickle.load(sys.stdin.buffer)
    try:
        result = getattr(importlib.import_module(module), fn)(job)
    except Exception:
        result = {"error": traceback.format_exc()}
    result["pid"] = os.getpid()
    result["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.write(pickle.dumps(result))
    out.close()


def call(module: str, fn: str, job: dict) -> dict:
    """`module.fn(job)` in a fresh process, plus its "pid" and peak RSS
    ("rss_kib"); an exception it raised comes back as "error"."""
    # leaving the with block closes the pipes and waits for the process
    with subprocess.Popen([sys.executable, str(HERE / "fresh.py"), module, fn],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE) as proc:
        try:
            out, _ = proc.communicate(pickle.dumps(job), timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise SampleError(f"no result within {TIMEOUT_S}s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
    if proc.returncode != 0 or not out:
        raise SampleError(f"worker exited with code {proc.returncode} without a result")
    return pickle.loads(out)


if __name__ == "__main__":
    _entry(sys.argv[1], sys.argv[2])
