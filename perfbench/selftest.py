"""Self-test of the benchmark harness; finishes in a few seconds.

    python3 perfbench/selftest.py

Checks that the tracer puts back every name it rebinds, that probe ticks
leave the self time of the span they interrupt, that traced counts repeat
exactly, that the mutator is a function of its seed and that its
mutants are all rejected, and that every metric BENCHMARK.json declares is
one the harness produces, in the declared unit.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
import unittest

import run
from tracer import Tracer

sys.path.insert(0, str(run.SRC))

import relcert.cli  # noqa: E402
from relcert.certificate import build_certificate, certificate_bytes, check_certificate_json  # noqa: E402
from relcert.freewords import PresentationParams  # noqa: E402
from relcert.groupring import RingElement  # noqa: E402

VERIFY_23 = ("verify", "--r", "2,3", "--seed", "0", "--format", "json")


def relcert_bindings() -> dict:
    """(module name, attribute) -> object, over every loaded relcert module,
    plus the ring element's add and subtract methods."""
    out = {
        (key, attr): value
        for key, module in list(sys.modules.items())
        if key == "relcert" or key.startswith("relcert.")
        for attr, value in vars(module).items()
    }
    for method in ("__add__", "__sub__"):
        out[("RingElement", method)] = RingElement.__dict__[method]
    return out


class TracerTest(unittest.TestCase):
    def test_uninstall_restores_every_rebound_name(self):
        before = relcert_bindings()
        original_check = relcert.cli.check_certificate
        tracer = Tracer()
        tracer.install()
        try:
            # cli imported the name directly; the tracer must rebind it there too.
            self.assertIsNot(relcert.cli.check_certificate, original_check)
            with contextlib.redirect_stdout(io.StringIO()):
                code = relcert.cli.main(list(VERIFY_23))
        finally:
            tracer.uninstall()
        after = relcert_bindings()
        self.assertEqual(code, 0)
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])
        summary = tracer.summary()
        self.assertEqual(summary["spans"]["cli.main"]["calls"], 1)
        self.assertGreater(summary["spans"]["certificate.check_certificate"]["calls"], 0)
        self.assertGreater(summary["ring_mul"]["pairs"], 0)

    def test_excluded_intervals_leave_the_interrupted_span(self):
        tracer = Tracer()
        # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
        for name, parent, start, end in (("outer", -1, 0, 10), ("a", 0, 1, 4),
                                          ("b", 0, 5, 9), ("c", 2, 6, 7)):
            tracer.name_of.append(tracer._name_id(name))
            tracer.parent.append(parent)
            tracer.start.append(start)
            tracer.end.append(end)
        ticks = [(7.5, 8.0), (2.0, 3.0), (4.5, 4.75), (6.25, 6.5), (11.0, 12.0)]
        self.assertEqual(tracer._innermost(ticks), [1, 0, 3, 2, -1])
        self_s = {n: s["self_s"] for n, s in tracer.summary(exclude=ticks)["spans"].items()}
        self.assertEqual(self_s, {"outer": 2.75, "a": 2.0, "b": 2.5, "c": 0.75})

    def test_counts_repeat_across_traced_runs(self):
        runner = run.Runner(time.perf_counter() + 60)
        first = runner.call(VERIFY_23, trace=True)
        second = runner.call(VERIFY_23, trace=True)
        for report in (first, second):
            self.assertIsNone(report["error"])

        def counts(report):
            spans = report["trace"]["spans"]
            return {name: s["calls"] for name, s in spans.items()}, report["trace"]["ring_mul"]

        self.assertEqual(counts(first), counts(second))


class MutatorTest(unittest.TestCase):
    genuine = certificate_bytes(build_certificate(PresentationParams((2, 3, 5)))).decode("utf-8")

    def test_same_seed_same_mutants(self):
        one = run.make_mutants(self.genuine, 2, random.Random(7))
        two = run.make_mutants(self.genuine, 2, random.Random(7))
        other = run.make_mutants(self.genuine, 2, random.Random(8))
        self.assertEqual(one, two)
        self.assertNotEqual(one, other)

    def test_mutants_rejected_with_named_identity(self):
        for site, text in run.make_mutants(self.genuine, 5, random.Random(3)):
            self.assertNotEqual(text, self.genuine)
            report = check_certificate_json(json.loads(text))
            self.assertFalse(report.accepted, f"mutant at {site} accepted")
            self.assertTrue(report.failures)


class DeclarationTest(unittest.TestCase):
    def test_declared_metrics_are_produced(self):
        declared = run.declared_metrics()
        plain = run.PassResult(calls=[run.CallRecord("verify --r 2,3", 1.0, 0.1, 0.001, 0.001, 2048)])
        run.summary_metrics(run.end_to_end_metrics([plain], 1, 0), declared[0])
        tracer = Tracer()
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                relcert.cli.main(list(VERIFY_23))
        finally:
            tracer.uninstall()
        traced = run.PassResult(calls=[run.CallRecord("verify --r 2,3", 1.1, 0.1, 0.001, 0.001, 2048)],
                                traces=[(tracer.summary(), 1.0)])
        run.summary_metrics(run.per_layer_metrics([traced], [plain]), declared[1])


if __name__ == "__main__":
    unittest.main()
