#!/usr/bin/env python3
"""Proof-replay determinism harness for the certified-scheduling lane.

Runs `lampc <bench> --certify --proof-out=...` once per thread count and
requires every produced certificate to be byte-identical: proof logging
forces the solver serial (lp::MilpOptions::proofLog), so the requested
`--threads` value must not leak into the certificate in any way.

It then runs the same benchmark once more without `--certify`, at
`--threads=1`, and requires that plain solve to expand exactly the tree
the certificate proves (`result.solver.branchNodes` equal to the
certified run's `result.certificate.treeNodes`): a certified run solves
the model the plain run solves, and one worker searches it the same way.

Only benchmarks that solve to completion within the time limit are
meaningful here — a wall-clock-limited solve truncates its tree at a
time-dependent node, so byte-identity cannot be promised for it even
between two identical invocations (DESIGN.md §13 records this caveat).
The lane therefore asserts that each benchmark's proof claims `optimal`
or `infeasible`; pick benchmarks and a time limit that finish.

Every lampc run is one solver thread (proof logging forces it; the
plain run asks for it), so the runs go to a pool of up to four at a
time; the checks then read their results in benchmark order.

Usage: certify-determinism.py <lampc> <time-limit-s> <bench> [bench...]
Exit 0 when all certificates match across threads and every plain tree
matches its certified one, 1 otherwise.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

THREADS = (1, 2, 8)
JOBS = min(4, os.cpu_count() or 1)


def fail(msg):
    print("certify-determinism: " + msg, file=sys.stderr)
    return 1


def run_json(cmd, out):
    """Runs lampc with --emit-json=<out>; returns (result object, error)."""
    run = subprocess.run(cmd + ["--emit-json=" + out, "--quiet"])
    if run.returncode != 0:
        return None, "lampc exit %d" % run.returncode
    with open(out) as f:
        return json.load(f)["result"], None


def certified(lampc, bench, limit, threads, tmp):
    """Returns (proof digest, certified tree nodes, error)."""
    stem = os.path.join(tmp, "%s_t%d" % (bench, threads))
    result, err = run_json(
        [lampc, bench, "--certify", "--proof-out=" + stem + ".lampproof",
         "--threads=%d" % threads, "--time-limit=" + limit],
        stem + ".json")
    if result is None:
        return None, None, "%s at --threads=%d" % (err, threads)
    with open(stem + ".lampproof", "rb") as f:
        text = f.read()
    if b"\nclaim optimal " not in text and b"\nclaim infeasible" not in text:
        return None, None, ("solve did not complete at --threads=%d (claim "
                            "is not optimal/infeasible); raise the time "
                            "limit or pick a faster benchmark" % threads)
    return (hashlib.sha256(text).hexdigest(),
            result["certificate"]["treeNodes"], None)


def main(argv):
    if len(argv) < 4:
        return fail("usage: certify-determinism.py <lampc> <time-limit-s> "
                    "<bench> [bench...]")
    lampc, limit, benches = argv[1], argv[2], argv[3:]
    with tempfile.TemporaryDirectory() as tmp, \
            ThreadPoolExecutor(max_workers=JOBS) as pool:
        runs = {}
        for bench in benches:
            for threads in THREADS:
                runs[bench, threads] = pool.submit(certified, lampc, bench,
                                                   limit, threads, tmp)
            runs[bench, "plain"] = pool.submit(
                run_json, [lampc, bench, "--threads=1",
                           "--time-limit=" + limit],
                os.path.join(tmp, "%s_plain.json" % bench))
        for bench in benches:
            digests = {}
            tree = None
            for threads in THREADS:
                digest, nodes, err = runs[bench, threads].result()
                if digest is None:
                    return fail("%s: %s" % (bench, err))
                digests[threads] = digest
                if threads == 1:
                    tree = nodes
            if len(set(digests.values())) != 1:
                return fail("%s: certificates differ across threads: %s"
                            % (bench, digests))
            plain, err = runs[bench, "plain"].result()
            if plain is None:
                return fail("%s: plain solve: %s" % (bench, err))
            solver = plain["solver"]
            if solver["branchNodes"] != tree:
                return fail("%s: plain --threads=1 solve expanded %d nodes "
                            "(status %s), the certified tree has %d"
                            % (bench, solver["branchNodes"],
                               solver["status"], tree))
            print("certify-determinism: %s byte-identical across --threads "
                  "%s (%s); plain solve expands the certified %d-node tree"
                  % (bench, list(THREADS), digests[1][:16], tree))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
