"""Write perfbench/reference.json: the expected output of every benchmarked
command, taken from the current source tree.

    python3 perfbench/make_reference.py

The committed file was made at the seed commit.  Rewrite it only in a change
that alters certificate or chain-export bytes, or verify verdicts, on
purpose, and say so in that change.
"""

from __future__ import annotations

import json
import time

from run import BIG_ORDER, CHECKED, LADDER, REFERENCE, RUN_LIMIT_S, Runner, sha256_text, verdict_digest


def main() -> None:
    runner = Runner(time.perf_counter() + 10 * RUN_LIMIT_S)
    ref: dict[str, dict[str, str]] = {"verify": {}, "certificate": {}, "complex": {}}
    for r in dict.fromkeys(LADDER + BIG_ORDER + CHECKED):
        for kind in ref:
            argv = (kind, "--r", r) + (("--format", "json") if kind == "verify" else ())
            report = runner.call(argv)
            if report.get("error") or report["exit"] != 0:
                raise SystemExit(f"{' '.join(argv)} failed: {report}")
            out = report["stdout"]
            ref[kind][r] = verdict_digest(out) if kind == "verify" else sha256_text(out)
    REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
