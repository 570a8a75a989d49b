import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest

import epp_lab

SRC = str(Path(epp_lab.__file__).resolve().parent.parent)


def run_child(*args, env=None, stdout=None) -> tuple[subprocess.CompletedProcess, float]:
    """Run `python args` in a fresh child that finds epp_lab where this process
    found it, under env (default: this process's environment).  Returns the
    finished process, its stdout and stderr as bytes, and its peak RSS in MB
    from wait4.  stdout, when given, is the file or descriptor the child
    writes to instead, and the returned stdout is None."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, *args], stdout=out if stdout is None else stdout,
                                stderr=err, env={**(os.environ if env is None else env),
                                                 "PYTHONPATH": SRC})
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
        out.seek(0)
        err.seek(0)
        done = subprocess.CompletedProcess(proc.args, proc.returncode,
                                           None if stdout is not None else out.read(), err.read())
    return done, usage.ru_maxrss / 1024  # KiB on Linux


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) replaces module.name, for the rest of the
    test, by a wrapper that records each call's positional arguments in the
    list it returns and then runs the original."""
    def install(module, name):
        calls, original = [], getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    return install


@pytest.fixture
def traced_peak():
    """traced_peak(call) runs call() and returns the peak bytes tracemalloc
    saw allocated meanwhile, above what was allocated before; numpy reports
    its buffers there."""
    def measure(call) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return measure
