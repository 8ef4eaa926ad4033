import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(real)`` replaces every quadgenus module's binding of
    ``real`` with a wrapper that records each call's arguments, and
    returns the record; monkeypatch restores the bindings."""
    def count(real) -> list:
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "quadgenus" or name.startswith("quadgenus."):
                for attr, value in list(vars(mod).items()):
                    if value is real:
                        monkeypatch.setattr(mod, attr, counting)
        return calls

    return count
