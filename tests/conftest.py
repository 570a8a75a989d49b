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
