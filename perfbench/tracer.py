"""Span tracing of relcert's public functions, installed from outside.

The tracer wraps each function named in TRACED and rebinds every
`relcert.*` module attribute that is that same function object, because
`cli` and `certificate` import names directly and a rebinding of the
defining module alone would miss their calls.  `RingElement.__add__` and
`__sub__` are patched on the class and share the span name
`groupring.add`.  `uninstall` puts every original object back.

Spans are kept in memory as parallel arrays (name, start, end, parent) and
written out once, when the traced process ends.  A span's self time is its
duration minus the part covered by its child spans; calls nest, so that is
the duration minus the summed durations of its direct children.

`gmul` is deliberately not wrapped: it runs millions of times per verify.
`ring_mul` instead records how many `gmul` calls its convolution makes
(`pairs`), how many of those come from products of two elements that both
lie in one factor's subring Z[C_r x Z], the output support per pair, and
the peak support and coefficient bits.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# span name -> (defining module, attribute)
TRACED = {
    "groupring.ring_mul": ("relcert.groupring", "ring_mul"),
    "groupring.ring_to_text": ("relcert.groupring", "ring_to_text"),
    "groupring.parse_ring": ("relcert.groupring", "parse_ring"),
    "groupring.check_cyclic_identities": ("relcert.groupring", "check_cyclic_identities"),
    "normalform.project": ("relcert.normalform", "project"),
    "freewords.parse_word": ("relcert.freewords", "parse_word"),
    "freewords.verify_free_identities": ("relcert.freewords", "verify_free_identities"),
    "foxcomplex.apply": ("relcert.foxcomplex", "apply"),
    "foxcomplex.compose": ("relcert.foxcomplex", "compose"),
    "foxcomplex.d2_matrix": ("relcert.foxcomplex", "d2_matrix"),
    "foxcomplex.fox_derivative": ("relcert.foxcomplex", "fox_derivative"),
    "foxcomplex.fundamental_identity_holds": ("relcert.foxcomplex", "fundamental_identity_holds"),
    "relmodule.check_reduction": ("relcert.relmodule", "check_reduction"),
    "relmodule.check_module_identities": ("relcert.relmodule", "check_module_identities"),
    "relmodule.module_generator": ("relcert.relmodule", "module_generator"),
    "relmodule.reduction_multiplier": ("relcert.relmodule", "reduction_multiplier"),
    "certificate.build_certificate": ("relcert.certificate", "build_certificate"),
    "certificate.check_certificate": ("relcert.certificate", "check_certificate"),
    "certificate.replay": ("relcert.certificate", "replay"),
    "certificate.basis_change": ("relcert.certificate", "basis_change"),
    "certificate.splitting_report": ("relcert.certificate", "splitting_report"),
    "certificate.certificate_bytes": ("relcert.certificate", "certificate_bytes"),
    "certificate.certificate_from_json": ("relcert.certificate", "certificate_from_json"),
    "cli.main": ("relcert.cli", "main"),
}
ADD_SPAN = "groupring.add"
ADD_METHODS = ("__add__", "__sub__")
RING_MUL_SPAN = "groupring.ring_mul"
# Counting is tracer work: its own span keeps it out of the callers' self time.
COUNTER_SPAN = "trace.ring_mul_counters"


class RingMulStats:
    """Counters of the convolution inside `ring_mul`, summed over calls."""

    __slots__ = ("calls", "shortcut_calls", "pairs", "same_factor_pairs",
                 "out_support", "peak_support", "peak_coeff_bits")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def record(self, x, y, out) -> None:
        self.calls += 1
        xt, yt = x.terms, y.terms
        self.peak_support = max(self.peak_support, len(xt), len(yt), len(out.terms))
        self.peak_coeff_bits = max(
            self.peak_coeff_bits,
            *(abs(c).bit_length() for t in (xt, yt, out.terms) for c in t.values()),
            0,
        )
        if not xt or not yt:
            return
        # Mirrors ring_mul's scalar shortcut, which makes no gmul call.
        if _is_scalar(yt) or _is_scalar(xt):
            self.shortcut_calls += 1
            return
        self.pairs += len(xt) * len(yt)
        if _same_factor(xt, yt):
            self.same_factor_pairs += len(xt) * len(yt)
        self.out_support += len(out.terms)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def _is_scalar(terms) -> bool:
    return len(terms) == 1 and not next(iter(terms)).syllables


def _factor(terms) -> int | None:
    """The one factor C_r x Z holding every term (0 for the identity alone),
    or None when the element is not local to one factor."""
    found = 0
    for g in terms:
        syl = g.syllables
        if len(syl) > 1:
            return None
        if syl:
            if found and syl[0][0] != found:
                return None
            found = syl[0][0]
    return found


def _same_factor(xt, yt) -> bool:
    """Both operands lie in the subring Z[C_r x Z] of one factor, where a
    factor-local fast path could take the product."""
    fx, fy = _factor(xt), _factor(yt)
    return fx is not None and fy is not None and (fx == fy or not fx or not fy)


class Tracer:
    """Records spans around relcert's public functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.ring_mul = RingMulStats()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        stack = self._stack
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_ring_mul(self, fn):
        inner = self._wrap(RING_MUL_SPAN, fn)
        record = self._wrap(COUNTER_SPAN, self.ring_mul.record)

        def ring_mul(x, y, params):
            out = inner(x, y, params)
            record(x, y, out)
            return out

        ring_mul.__wrapped__ = fn
        return ring_mul

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function wherever a relcert module holds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "relcert" or key.startswith("relcert."))]
        for name, (mod_name, attr) in TRACED.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = (self._wrap_ring_mul(original) if name == RING_MUL_SPAN
                       else self._wrap(name, original))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)
        ring_element = sys.modules["relcert.groupring"].RingElement
        for method in ADD_METHODS:
            original = ring_element.__dict__[method]
            self._saved.append((ring_element, method, original))
            setattr(ring_element, method, self._wrap(ADD_SPAN, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def _innermost(self, intervals) -> list[int]:
        """For each (start, end) interval, the innermost span holding it, or -1.

        Spans are recorded in order of their start, and an interval here is an
        interruption (a signal handler), so no span ends inside one."""
        start, end = self.start, self.end
        open_spans: list[int] = []
        found = []
        idx = 0
        for a, b in sorted(intervals):
            while idx < len(start) and start[idx] <= a:
                while open_spans and end[open_spans[-1]] <= start[idx]:
                    open_spans.pop()
                open_spans.append(idx)
                idx += 1
            while open_spans and end[open_spans[-1]] < b:
                open_spans.pop()
            found.append(open_spans[-1] if open_spans else -1)
        return found

    def summary(self, exclude=()) -> dict:
        """Per span name: calls and self seconds; plus the ring_mul counters.

        `exclude` lists (start, end) intervals spent outside relcert, such as
        the speed probe's ticks; each leaves the self time of the span it
        interrupted."""
        if self._stack:
            raise RuntimeError("summary taken while spans are still open")
        count = len(self.start)
        covered = [0.0] * count
        start, end, parent = self.start, self.end, self.parent
        for idx in range(count):
            p = parent[idx]
            if p >= 0:
                covered[p] += end[idx] - start[idx]
        for (a, b), idx in zip(sorted(exclude), self._innermost(exclude)):
            if idx >= 0:
                covered[idx] += b - a
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for idx in range(count):
            name_id = self.name_of[idx]
            calls[name_id] += 1
            self_s[name_id] += end[idx] - start[idx] - covered[idx]
        spans = {
            name: {"calls": calls[i], "self_s": self_s[i]}
            for i, name in enumerate(self.names)
        }
        return {"spans": spans, "ring_mul": self.ring_mul.as_dict()}

    def write_spans(self, path: str) -> None:
        """Write every span as [name, start, end, parent] rows of JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["name", "start", "end", "parent"],
                    "spans": [
                        [self.name_of[i], self.start[i], self.end[i], self.parent[i]]
                        for i in range(len(self.start))
                    ],
                },
                handle,
                separators=(",", ":"),
            )
