#!/usr/bin/env python3
"""Contract test for the lamp-lint CLI.

Exit codes are part of the tool's CI interface (compiler-style):
  0  clean — no Errors and no Warnings (Infos allowed)
  1  Errors present, or Warnings present under --Werror
  2  Warnings only
  3  usage error, unreadable/unparseable input, or unknown --explain code

Also covers the schedule-space findings (LAMP017-LAMP020) end to end:
crafted .lamp fixtures drive each severity through the real binary, and
--explain must resolve every schedspace code from the catalog.

Usage: lint_cli_test.py <lamp-lint> <tests/data dir>
Exit 0 on pass, 1 on failure.
"""

import json
import os
import subprocess
import sys

failures = []


def run(args, **kw):
    return subprocess.run([LINT] + args, capture_output=True, text=True,
                          timeout=120, **kw)


def expect_exit(args, want, label):
    r = run(args)
    if r.returncode != want:
        failures.append(f"{label}: exit {r.returncode}, want {want} "
                        f"(args: {' '.join(args)})\n{r.stdout}{r.stderr}")
    return r


def codes_of(args):
    r = run(args + ["--json"])
    try:
        doc = json.loads(r.stdout)
    except json.JSONDecodeError:
        failures.append(f"unparseable --json output for {' '.join(args)}")
        return []
    return [d["code"] for d in doc.get("diagnostics", [])]


def main():
    loads2 = os.path.join(DATA, "loads2.lamp")
    mulcycle = os.path.join(DATA, "mulcycle.lamp")

    # exit 0: a clean built-in benchmark, Infos allowed.
    expect_exit(["CLZ"], 0, "clean benchmark")

    # exit 2: warnings only. Two chained lat-2 loads pinned two cycles
    # apart by --max-latency land on the same modulo slot of the single
    # port; the flow could retry at a larger II, so LAMP018 only warns.
    warn = ["--base", "--ii=2", "--tcp=1.5", "--mem-ports=1",
            "--max-latency=4"]
    expect_exit([loads2] + warn, 2, "LAMP018 warning")
    if "LAMP018" not in codes_of([loads2] + warn):
        failures.append("LAMP018 missing from warning-config diagnostics")

    # exit 1 via --Werror: the same warning is promoted.
    expect_exit([loads2] + warn + ["--Werror"], 1, "LAMP018 under Werror")

    # exit 1 via a strict II budget: no fallback II exists, so the same
    # conflict is an Error outright.
    expect_exit([loads2] + warn + ["--max-ii=2"], 1, "LAMP018 error")

    # exit 1: empty chaining-tightened windows at an impossible latency
    # budget (LAMP020 is latency-driven, so no larger II can fix it).
    tight = ["CORDIC", "--base", "--tcp=3", "--max-latency=3"]
    expect_exit(tight, 1, "LAMP020 error")
    if "LAMP020" not in codes_of(tight):
        failures.append("LAMP020 missing from tight-latency diagnostics")

    # exit 0 with an Info finding: a binding mul recurrence pinned by the
    # latency bound reports zero mobility (LAMP017) without failing.
    pinned = [mulcycle, "--base", "--ii=4", "--max-ii=4", "--max-latency=3"]
    expect_exit(pinned, 0, "LAMP017 info is not a failure")
    if "LAMP017" not in codes_of(pinned):
        failures.append("LAMP017 missing from pinned-recurrence diagnostics")

    # --explain: every schedspace code resolves; exit 0.
    for code in ("LAMP017", "LAMP018", "LAMP019", "LAMP020"):
        r = expect_exit(["--explain", code], 0, f"explain {code}")
        if code not in r.stdout:
            failures.append(f"--explain {code} output does not mention it")

    # exit 3: unknown explain code, missing input, unreadable file, and
    # a malformed numeric flag (named in the message, not an abort).
    expect_exit(["--explain", "LAMP999"], 3, "unknown explain code")
    expect_exit([], 3, "missing input")
    expect_exit(["/nonexistent/graph.lamp"], 3, "unreadable input")
    r = expect_exit(["RS", "--k=x"], 3, "malformed --k")
    if "bad value 'x' for --k" not in r.stderr:
        failures.append(f"malformed --k message: {r.stderr!r}")

    if failures:
        print("lint_cli_test: FAIL", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    print("lint_cli_test: ok")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print("usage: lint_cli_test.py <lamp-lint> <tests/data dir>",
              file=sys.stderr)
        sys.exit(1)
    LINT, DATA = sys.argv[1], sys.argv[2]
    sys.exit(main())
