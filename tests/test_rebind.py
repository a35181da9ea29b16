import pytest

from relcert import checker, foxcomplex, groupring, relmodule
from relcert.freewords import PresentationParams
from relcert.groupring import norm_element, ring_mul
from rebind import rebind, spy


def test_rebind_refuses_a_function_no_module_binds(monkeypatch):
    def stranger(x, y, params):
        return ring_mul(x, y, params)

    with pytest.raises(LookupError, match="no relcert module binds"):
        rebind(monkeypatch, stranger, ring_mul)


def test_spy_sees_every_binding_and_its_callers(monkeypatch):
    params = PresentationParams((2, 3))
    norm = norm_element(1, params)
    with monkeypatch.context() as patched:
        calls = spy(patched, ring_mul)
        for module in (groupring, foxcomplex, relmodule, checker):
            assert module.ring_mul is not ring_mul
        assert all(groupring.check_cyclic_identities(1, params).values())
    assert len(calls) == 3 and calls[1] == ((norm, norm, params), "check_cyclic_identities")
    assert all(m.ring_mul is ring_mul for m in (groupring, foxcomplex, relmodule, checker))
