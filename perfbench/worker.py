"""Run one relcert CLI command in this fresh process and report on it.

Usage: python3 worker.py '<job json>'

The job names the source tree, the argv for `relcert.cli.main`, the
parent's `time.perf_counter()` just before it started this process, and
whether to trace.  The command runs in-process through `relcert.cli.main`
with stdout captured; the report, one JSON object, is the last line this
script prints.  `setup_s` spans process start to the timed call:
interpreter start-up, `import relcert` and reading the job.  Linux's
`perf_counter` is the system-wide monotonic clock, so the parent's stamp
and this process's stamps are comparable.

The machine this runs on is shared, and its speed for pure-Python code
drifts by tens of percent over seconds to minutes.  So the worker also
times a fixed calibration kernel: three times right after set-up, every
50 ms during the call (from a SIGALRM handler, its time kept out of
`call_s` and of every span's self time), and three times after.  The parent scales each time by the
kernel's speed measured in the same process at the same moments.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback


def calibration_kernel() -> None:
    """Fixed pure-Python work of the kind relcert does: tuple keys in a dict."""
    acc: dict = {}
    for i in range(4000):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0) + i


class SpeedProbe:
    """Times the calibration kernel on demand and, while entered, every
    INTERVAL_S from a SIGALRM handler; `spent` is the kernel time taken
    inside the entered region."""

    INTERVAL_S = 0.05
    SAMPLES_AROUND = 3

    def __init__(self):
        self.samples: list[float] = []
        self.ticks: list[tuple[float, float]] = []

    def sample(self, *_signal_args) -> None:
        t = time.perf_counter()
        calibration_kernel()
        self.samples.append(time.perf_counter() - t)

    def sample_around(self) -> None:
        for _ in range(self.SAMPLES_AROUND):
            self.sample()

    def _tick(self, *_signal_args) -> None:
        t = time.perf_counter()
        self.sample()
        self.ticks.append((t, time.perf_counter()))

    @property
    def spent(self) -> float:
        return sum(b - a for a, b in self.ticks)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def run(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    import relcert.cli

    probe = SpeedProbe()
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    probe.sample_around()
    probe_setup_s = statistics.median(probe.samples)
    out = io.StringIO()
    exit_code, error = None, None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), probe:
            exit_code = relcert.cli.main(job["argv"])
    except SystemExit as exc:  # argparse usage errors
        exit_code = exc.code
    except Exception:
        error = traceback.format_exc()
    finished = time.perf_counter()
    probe.sample_around()
    report = {
        "setup_s": started - job["spawned_at"],
        "call_s": finished - started - probe.spent,
        "probe_setup_s": probe_setup_s,
        "probe_call_s": statistics.median(probe.samples),
        "exit": exit_code,
        "error": error,
        "stdout": out.getvalue(),
    }
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary(exclude=probe.ticks)
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return report


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
