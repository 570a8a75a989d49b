import tracemalloc

import pytest


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
