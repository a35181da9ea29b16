"""End-to-end and per-layer benchmark of the relcert command line.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout (one that holds `src/relcert`).
Every command goes through `relcert.cli.main(argv)` in its own fresh Python
process (`worker.py`), and processes start one at a time: a closed loop with
one client.  A pass runs a workload's command list once; passes repeat until
`--seconds` have gone by.  Every output is checked against reference hashes
taken at the seed commit (`reference.json`); a failed check is a failed op.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates plain
and traced passes and reports the per-layer metrics from the traced ones;
the tracer (`tracer.py`) is installed inside the traced processes only.
The last line of stdout is one JSON object holding the metrics that
`BENCHMARK.json` declares; the full record goes to a result file under
`.perfbench_out/` (or `--out`).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKER = BENCH_DIR / "worker.py"
REFERENCE = BENCH_DIR / "reference.json"
# A run must end within 180 s; stop waiting on commands a little before.
RUN_LIMIT_S = 170.0
# Timings are reported at the reference speed, at which the worker's
# calibration kernel takes this long; `*_wall_s` metrics are unscaled.
REF_KERNEL_S = 0.001

# The four acceptance families, then the eight primes up to 19.
LADDER = ("2,3", "2,3,5", "3,4,5", "5,7,9,11,13", "2,3,5,7,11,13,17,19")
BIG_ORDER = ("509", "61,67")
CHECKED = ("31,37,41", "5,7,9,11,13")
# Mutants per certificate and site.  Every seed gets the same mix of sites:
# the site decides how far the checker gets (a trace or alpha mutant stops
# the basis inverse), so a seeded mix would change the work from seed to seed.
MUTANTS_PER_SITE = 1
WORKLOADS = ("ladder", "big-order", "check-cert")

KIND_METRIC = {
    "verify": "verify_s",
    "certificate": "certificate_s",
    "complex": "complex_s",
    "check-cert": "check_cert_s",
}

# Per-layer metrics of the traced run: span name -> the fields reported.
LAYER_FIELDS = (
    ("groupring.ring_mul", ("calls", "self_s")),
    ("groupring.add", ("calls", "self_s")),
    ("groupring.ring_to_text", ("self_s",)),
    ("groupring.parse_ring", ("calls", "self_s")),
    ("groupring.check_cyclic_identities", ("self_s",)),
    ("normalform.project", ("calls", "self_s")),
    ("freewords.parse_word", ("calls", "self_s")),
    ("freewords.verify_free_identities", ("self_s",)),
    ("foxcomplex.apply", ("calls", "self_s")),
    ("foxcomplex.compose", ("calls", "self_s")),
    ("foxcomplex.d2_matrix", ("calls",)),
    ("foxcomplex.fox_derivative", ("calls", "self_s")),
    ("foxcomplex.fundamental_identity_holds", ("self_s",)),
    ("relmodule.check_reduction", ("self_s",)),
    ("relmodule.check_module_identities", ("self_s",)),
    ("relmodule.module_generator", ("calls",)),
    ("relmodule.reduction_multiplier", ("calls",)),
    ("certificate.build_certificate", ("calls", "self_s")),
    ("certificate.check_certificate", ("calls", "self_s")),
    ("certificate.replay", ("calls", "self_s")),
    ("certificate.basis_change", ("calls", "self_s")),
    ("certificate.splitting_report", ("self_s",)),
    ("certificate.certificate_bytes", ("self_s",)),
    ("certificate.certificate_from_json", ("self_s",)),
    ("cli.main", ("calls",)),
)
FIELD_UNIT = {"calls": "count", "self_s": "s"}


@dataclass(frozen=True)
class Command:
    """One CLI call and the check its output must pass.

    check is "verify" (verdict hash), "bytes" (output hash), "accept"
    (check-cert exit 0) or "reject" (check-cert exit 1 naming an identity)."""

    argv: tuple[str, ...]
    check: str
    expected: str | None = None


@dataclass(frozen=True)
class CallRecord:
    """One timed command process, as its worker reported it."""

    command: str
    call_s: float
    setup_s: float
    probe_call_s: float
    probe_setup_s: float
    maxrss_kb: int

    @property
    def kind(self) -> str:
        return self.command.split()[0]

    @property
    def to_ref(self) -> float:
        """Factor from this process's call seconds to reference-speed seconds."""
        return REF_KERNEL_S / self.probe_call_s

    @property
    def ref_call_s(self) -> float:
        return self.call_s * self.to_ref

    @property
    def ref_setup_s(self) -> float:
        return self.setup_s * REF_KERNEL_S / self.probe_setup_s


@dataclass
class PassResult:
    calls: list[CallRecord] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    # (trace summary, factor to reference speed) per traced process
    traces: list[tuple[dict, float]] = field(default_factory=list)

    @property
    def pass_s(self) -> float:
        return sum(c.ref_call_s for c in self.calls)

    @property
    def pass_wall_s(self) -> float:
        return sum(c.call_s for c in self.calls)

    def kind_s(self, kind: str) -> float:
        return sum(c.ref_call_s for c in self.calls if c.kind == kind)


class RunAborted(Exception):
    """A set-up step failed or the run ran out of time."""


# ---------------------------------------------------------------------------
# output checks


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verdict_digest(stdout: str) -> str:
    """Hash of a `verify --format json` report without its seed field: the
    verdicts do not depend on the seed."""
    obj = json.loads(stdout)
    obj.pop("seed", None)
    return sha256_text(json.dumps(obj, sort_keys=True))


def check_output(cmd: Command, report: dict) -> str | None:
    """None when the command did what it should, else the reason."""
    if report.get("error"):
        return "exception: " + report["error"].strip().splitlines()[-1]
    want = 1 if cmd.check == "reject" else 0
    if report["exit"] != want:
        return f"exit code {report['exit']}, expected {want}"
    out = report["stdout"]
    if cmd.check == "bytes":
        return None if sha256_text(out) == cmd.expected else "output bytes differ from reference"
    if cmd.check == "verify":
        try:
            digest = verdict_digest(out)
        except json.JSONDecodeError:
            return "verify output is not JSON"
        return None if digest == cmd.expected else "verify verdicts differ from reference"
    last = out.strip().splitlines()[-1] if out.strip() else ""
    if cmd.check == "accept":
        return None if last.startswith("certificate accepted") else "genuine certificate not accepted"
    prefix = "certificate rejected: "
    if not (last.startswith(prefix) and last[len(prefix):].strip()):
        return "mutant rejected without a named identity"
    return None


# ---------------------------------------------------------------------------
# certificate mutants

SITES = ("t", "s", "lambda", "mu", "alpha", "basis_ops")
_TERM_SEP = re.compile(r" [+-] ")


def bump_ring_text(text: str, rng: random.Random) -> str:
    """Add 1 to the coefficient of one term of a ring-element text (to `e`
    for the zero element).  The term is appended; parsing merges it."""
    if text.strip() == "0":
        return "e"
    words = sorted({t.split("*", 1)[-1] for t in _TERM_SEP.split(text.strip().lstrip("-"))})
    return f"{text} + {rng.choice(words)}"


def mutate_one_coefficient(obj: dict, site: str, rng: random.Random) -> str:
    """Perturb one coefficient at a seeded position of `site` by +1; returns
    the position."""
    if site == "t":
        i = rng.randrange(len(obj["t"]))
        obj["t"][i] += 1
        return f"t[{i}]"
    if site == "s":
        i = rng.randrange(len(obj["s"]))
        j = rng.randrange(len(obj["s"][i]))
        obj["s"][i][j] += 1
        return f"s[{i}][{j}]"
    if site == "basis_ops":
        k = rng.randrange(len(obj["basis_ops"]))
        obj["basis_ops"][k]["coeff"] = bump_ring_text(obj["basis_ops"][k]["coeff"], rng)
        return f"basis_ops[{k}]"
    matrix = obj[site]
    i = rng.randrange(len(matrix))
    j = rng.randrange(len(matrix[i]))
    matrix[i][j] = bump_ring_text(matrix[i][j], rng)
    return f"{site}[{i}][{j}]"


def make_mutants(genuine: str, per_site: int, rng: random.Random) -> list[tuple[str, str]]:
    """(position, certificate text) for `per_site` single-coefficient
    mutants at each site."""
    out = []
    for site in SITES:
        for _ in range(per_site):
            obj = json.loads(genuine)
            position = mutate_one_coefficient(obj, site, rng)
            out.append((position, json.dumps(obj, indent=2, sort_keys=True) + "\n"))
    return out


# ---------------------------------------------------------------------------
# processes


class Runner:
    """Starts worker processes one at a time against a run deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline

    def call(self, argv, trace: bool = False, spans_path: str | None = None) -> dict:
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise RunAborted(f"out of time before {' '.join(argv)}")
        job = {"src": str(SRC), "argv": list(argv), "trace": trace, "spans_path": spans_path}
        job["spawned_at"] = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), json.dumps(job)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=ROOT,
            text=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunAborted(f"out of time during {' '.join(argv)}") from None
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = stderr.strip().splitlines()[-1:] or ["no output"]
            return {"error": f"worker exited {proc.returncode}: {tail[0]}"}
        return json.loads(lines[-1])

    def run_pass(self, commands: list[Command], trace: bool, spans_prefix: str | None) -> PassResult:
        result = PassResult()
        for idx, cmd in enumerate(commands):
            spans = f"{spans_prefix}-{idx:02d}.json" if trace and spans_prefix else None
            report = self.call(cmd.argv, trace, spans)
            failure = check_output(cmd, report)
            if failure:
                result.failures.append(f"{' '.join(cmd.argv)}: {failure}")
            if "call_s" in report:
                record = CallRecord(" ".join(cmd.argv), report["call_s"], report["setup_s"],
                                    report["probe_call_s"], report["probe_setup_s"],
                                    report["maxrss_kb"])
                result.calls.append(record)
                if "trace" in report:
                    result.traces.append((report["trace"], record.to_ref))
        return result


# ---------------------------------------------------------------------------
# workloads


def family_commands(r: str, seed: int, ref: dict) -> list[Command]:
    return [
        Command(("verify", "--r", r, "--seed", str(seed), "--format", "json"),
                "verify", ref["verify"][r]),
        Command(("certificate", "--r", r), "bytes", ref["certificate"][r]),
        Command(("complex", "--r", r), "bytes", ref["complex"][r]),
    ]


def check_cert_commands(runner: Runner, seed: int, ref: dict, workdir: Path) -> list[Command]:
    """Emit the genuine certificates, write seeded mutants of each, and
    return the check-cert calls on all of them."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    commands = []
    for r in CHECKED:
        cmd = Command(("certificate", "--r", r), "bytes", ref["certificate"][r])
        report = runner.call(cmd.argv)
        failure = check_output(cmd, report)
        if failure:
            raise RunAborted(f"set-up certificate --r {r}: {failure}")
        stem = "cert-" + r.replace(",", "-")
        genuine = workdir / f"{stem}.json"
        genuine.write_text(report["stdout"], encoding="utf-8")
        commands.append(Command(("check-cert", str(genuine.relative_to(ROOT))), "accept"))
        for m, (_site, text) in enumerate(make_mutants(report["stdout"], MUTANTS_PER_SITE, rng)):
            path = workdir / f"{stem}-mutant{m}.json"
            path.write_text(text, encoding="utf-8")
            commands.append(Command(("check-cert", str(path.relative_to(ROOT))), "reject"))
    return commands


def workload_commands(name: str, runner: Runner, seed: int, ref: dict) -> list[Command]:
    if name == "ladder":
        return [c for r in LADDER for c in family_commands(r, seed, ref)]
    if name == "big-order":
        return [c for r in BIG_ORDER for c in family_commands(r, seed, ref)]
    if name == "check-cert":
        return check_cert_commands(runner, seed, ref, OUT_DIR / "inputs" / f"seed{seed}")
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# statistics


def describe(samples: list[float], unit: str) -> dict:
    """Median, quartiles, sample count, and the highest of p75/p90/p95/p99
    that has at least ten samples beyond it (None when none has).  With no
    samples, as when every call failed, the value is None."""
    values = sorted(samples)
    if not values:
        return {"value": None, "unit": unit, "n": 0}
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else (med, med, med)
    tail = None
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            tail = {"p": p, "value": statistics.quantiles(values, n=100)[p - 1]}
            break
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values), "tail": tail}


def end_to_end_metrics(passes: list[PassResult], attempted: int, failed: int) -> dict:
    calls = [c for p in passes for c in p.calls]
    kinds = {c.kind for c in calls}
    metrics = {
        "pass_s": describe([p.pass_s for p in passes], "s"),
        "pass_wall_s": describe([p.pass_wall_s for p in passes], "s"),
        "setup_s": describe([c.ref_setup_s for c in calls], "s"),
        "setup_wall_s": describe([c.setup_s for c in calls], "s"),
        "peak_rss_mb": describe([max(c.maxrss_kb for c in p.calls) / 1024
                                 for p in passes if p.calls], "MB"),
        "probe_kernel_ms": describe([c.probe_call_s * 1000 for c in calls], "ms"),
    }
    for kind, name in KIND_METRIC.items():
        if kind in kinds:
            metrics[name] = describe([p.kind_s(kind) for p in passes], "s")
    metrics["ops_failed_frac"] = {"value": failed / attempted, "unit": "ratio", "n": attempted}
    return metrics


def per_command_times(passes: list[PassResult]) -> dict:
    """Median reference-speed and wall seconds of each command's call."""
    by_command: dict[str, list[CallRecord]] = {}
    for p in passes:
        for c in p.calls:
            by_command.setdefault(c.command, []).append(c)
    return {
        command: {
            "ref_s": statistics.median(c.ref_call_s for c in calls),
            "wall_s": statistics.median(c.call_s for c in calls),
            "n": len(calls),
        }
        for command, calls in by_command.items()
    }


def merge_traces(traces: list[tuple[dict, float]]) -> dict:
    """Sum one pass's per-process trace summaries, self times scaled to the
    reference speed (peaks take the max)."""
    spans: dict[str, dict] = {}
    ring_mul: dict[str, int] = {}
    for t, factor in traces:
        for name, s in t["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += s["calls"]
            acc["self_s"] += s["self_s"] * factor
        for key, value in t["ring_mul"].items():
            ring_mul[key] = max(ring_mul.get(key, 0), value) if key.startswith("peak_") \
                else ring_mul.get(key, 0) + value
    return {"spans": spans, "ring_mul": ring_mul}


def layer_values(merged: dict) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for one traced pass."""
    spans, rm = merged["spans"], merged["ring_mul"]
    out = {}
    for span, fields in LAYER_FIELDS:
        for f in fields:
            out[f"{span}.{f}"] = (spans.get(span, {}).get(f, 0), FIELD_UNIT[f])
    pairs, calls = rm.get("pairs", 0), rm.get("calls", 0)
    out["groupring.ring_mul.pairs"] = (pairs, "count")
    out["groupring.ring_mul.same_factor_pairs_frac"] = (
        rm["same_factor_pairs"] / pairs if pairs else 0.0, "ratio")
    out["groupring.ring_mul.scalar_shortcut_frac"] = (
        rm["shortcut_calls"] / calls if calls else 0.0, "ratio")
    out["groupring.ring_mul.out_per_pair"] = (rm["out_support"] / pairs if pairs else 0.0, "ratio")
    out["groupring.ring_mul.peak_support"] = (rm.get("peak_support", 0), "terms")
    out["groupring.ring_mul.peak_coeff_bits"] = (rm.get("peak_coeff_bits", 0), "bits")
    return out


def per_layer_metrics(traced: list[PassResult], plain: list[PassResult]) -> dict:
    per_pass = [layer_values(merge_traces(p.traces)) for p in traced]
    metrics = {
        name: describe([v[name][0] for v in per_pass], unit)
        for name, (_, unit) in per_pass[0].items()
    }
    plain_s = statistics.median(p.pass_s for p in plain)
    overhead = statistics.median(p.pass_s for p in traced) / plain_s - 1 if plain_s else None
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio",
                                      "n": len(traced) + len(plain)}
    return metrics


# ---------------------------------------------------------------------------
# run record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {0: spec["end_to_end"], 1: spec["per_layer"]}


def summary_metrics(metrics: dict, declared: list[dict]) -> dict:
    """The declared metrics, as {name: {value, unit}}; a declared metric the
    run does not produce, or produces in another unit, is a benchmark bug."""
    out = {}
    for spec in declared:
        got = metrics.get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            raise KeyError(f"declared metric {spec['name']} ({spec['unit']}) not produced")
        out[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def format_metric(name: str, m: dict) -> str:
    value = "none" if m["value"] is None else f"{m['value']:.6g}"
    text = f"{name:48s} {value:>14s} {m['unit']}"
    if "q1" in m:
        text += f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}"
        if m.get("tail"):
            text += f", p{m['tail']['p']} {m['tail']['value']:.6g}"
        text += ")"
    return text + f"  n={m['n']}"


# ---------------------------------------------------------------------------
# main


def run_workload(name: str, seed: int, seconds: float, trace: bool, ref: dict) -> dict:
    runner = Runner(time.perf_counter() + RUN_LIMIT_S)
    # Untimed warm-up: warms the file cache and, unless bytecode writing is
    # off, compiles the package once, as an installed package would be, so
    # the first timed process does not pay for it.
    runner.call(("normalize", "a1", "--r", "2"))
    commands = workload_commands(name, runner, seed, ref)
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    spans_dir = OUT_DIR / "spans"
    if trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    while True:
        plain.append(runner.run_pass(commands, False, None))
        if trace:
            prefix = str(spans_dir / f"{name}-seed{seed}-pass{len(traced)}")
            traced.append(runner.run_pass(commands, True, prefix))
        if time.perf_counter() - start >= seconds:
            break
    every = plain + traced
    attempted = len(commands) * len(every)
    failures = [f for p in every for f in p.failures]
    result = {
        "passes": len(plain),
        "traced_passes": len(traced),
        "commands_per_pass": len(commands),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "end_to_end": end_to_end_metrics(plain, attempted, len(failures)),
        "per_command": per_command_times(plain),
    }
    if trace:
        result["per_layer"] = per_layer_metrics(traced, plain)
        result["spans_dir"] = str(spans_dir.relative_to(ROOT))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default under .perfbench_out/)")
    args = parser.parse_args(argv)

    if not (SRC / "relcert" / "cli.py").is_file():
        print(f"error: no relcert source tree at {SRC / 'relcert'}; "
              "run from the root of a relcert checkout", file=sys.stderr)
        return 2
    declared = declared_metrics()[args.trace]
    with open(REFERENCE, encoding="utf-8") as handle:
        ref = json.load(handle)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), ref)
    except RunAborted as exc:
        print(f"error: run aborted: {exc}", file=sys.stderr)
        return 1

    record = {
        "python": sys.version.split()[0],
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client; one fresh process per command, started one at a time",
        "passes": {name: r["passes"] for name, r in results.items()},
        "traced_passes": {name: r["traced_passes"] for name, r in results.items()},
    }
    out_path = Path(args.out) if args.out else (
        OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps({"record": record, "workloads": results}, indent=2) + "\n",
                        encoding="utf-8")

    for name, r in results.items():
        print(f"== {name}: {r['passes']} passes, {r['traced_passes']} traced, "
              f"{r['commands_per_pass']} commands each, {r['failed']} of {r['attempted']} failed")
        for metric_name, m in r["end_to_end"].items():
            print("  " + format_metric(metric_name, m))
        for metric_name, m in r.get("per_layer", {}).items():
            print("  " + format_metric(metric_name, m))
        for failure in r["failures"]:
            print(f"  FAILED {failure}")
    print(f"result file: {out_path}")

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    section = "per_layer" if args.trace else "end_to_end"
    if len(results) == 1:
        metrics = summary_metrics(results[names[0]][section], declared)
    else:
        metrics = {f"{name}/{k}": v for name, r in results.items()
                   for k, v in summary_metrics(r[section], declared).items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
