"""Swap a relcert function for a test wherever a relcert module binds it.

A module that imports a name holds its own binding, so setting the
replacement on the defining module alone misses every caller that imported
it.  rebind scans every loaded relcert module for attributes that are the
original object, as perfbench's Tracer.install() does."""

import sys
from collections import namedtuple

Call = namedtuple("Call", "args caller")


def rebind(monkeypatch, original, replacement):
    """Set replacement, through monkeypatch, on every attribute of a loaded
    relcert module that is original; LookupError when no module binds it."""
    found = False
    for key, module in sorted(sys.modules.items()):
        if module is None or not (key == "relcert" or key.startswith("relcert.")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, replacement)
                found = True
    if not found:
        raise LookupError(f"no relcert module binds {original!r}")


def spy(monkeypatch, original):
    """Rebind original to a pass-through and return the list of its Calls:
    each call's positional arguments and the name of the calling function."""
    calls = []

    def spied(*args):
        calls.append(Call(args, sys._getframe(1).f_code.co_name))
        return original(*args)

    rebind(monkeypatch, original, spied)
    return calls
