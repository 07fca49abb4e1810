"""Solve-and-sample benchmark of ``tthjb``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each round runs one ``tthjb``
command (``solve`` or ``sample``) in a fresh interpreter (``round.py``),
one round at a time, with ``OPENBLAS_NUM_THREADS=1`` and ``TTHJB_THREADS``
unset.  With ``--trace 0`` rounds repeat until ``--seconds`` have passed
and the run reports the end-to-end metrics of ``BENCHMARK.json`` as medians
over rounds.  With ``--trace 1`` one untraced round is followed by traced
rounds for ``--seconds``; the run reports the per-module metrics and the
tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Outputs must be reproducible: a round whose program source, command line
and input files match those of an earlier round, in this run or in an
earlier run in the same checkout, must write byte-identical outputs.  The
output digests are kept under ``.perfbench_work/digests``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_SETUPS = 9          # set-up is timed at least this often per run
DEADLINE_S = 150.0      # no new round starts if it could end after this
HARD_LIMIT_S = 170.0    # a round still running then is killed
T_START = time.perf_counter()


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("TTHJB_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


class Runner:
    def __init__(self, root, workload, seed, work):
        self.root, self.workload, self.seed, self.work = root, workload, seed, work
        self.env = child_env()
        self.count = 0

    def round(self, trace=False, setup_only=False, spans=None):
        self.count += 1
        round_dir = os.path.join(self.work, f"round{self.count}")
        result_path = os.path.join(self.work, f"round{self.count}.json")
        cmd = [sys.executable, os.path.join(HERE, "round.py"), "--root", self.root,
               "--workload", self.workload, "--seed", str(self.seed),
               "--dir", round_dir, "--result", result_path]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", spans]
        started = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                                  text=True, timeout=HARD_LIMIT_S - (started - T_START))
        except subprocess.TimeoutExpired:
            fail(f"round {self.count} of {self.workload} ran past {HARD_LIMIT_S} s")
        if proc.returncode != 0 or not os.path.exists(result_path):
            sys.stderr.write(proc.stdout + proc.stderr)
            fail(f"round {self.count} of {self.workload} did not finish "
                 f"(exit {proc.returncode})")
        with open(result_path) as fh:
            result = json.load(fh)
        result["wall_s"] = time.perf_counter() - started
        return result


def run_rounds(runner, seconds, trace, spans):
    """Rounds of one run: (untraced rounds, traced rounds)."""
    start = time.perf_counter()
    plain, traced = [], []

    def more(done):
        """At least one round; then more while time is left."""
        elapsed = time.perf_counter() - start
        longest = max((r["wall_s"] for r in plain + traced), default=0.0)
        return not done or (elapsed < seconds and elapsed + longest < DEADLINE_S)

    if trace:
        plain.append(runner.round())
        while more(traced):
            traced.append(runner.round(trace=True, spans=spans))
    else:
        while more(plain):
            plain.append(runner.round())
    return plain, traced


def verdict(rounds, store):
    """(correct, failed) over rounds: every check of every round that ran
    its command to exit code 0 passed, and each of their outputs matches
    the digest recorded for its input key."""
    ok = [r for r in rounds if r["exit_code"] == 0]
    correct = True
    os.makedirs(store, exist_ok=True)
    for r in rounds:
        if r["exit_code"] != 0:
            print(f"FAILED operation: exit {r['exit_code']}", file=sys.stderr)
        for name, value, bound, passed in r.get("checks", []):
            correct &= passed
            print(f"check {'PASS' if passed else 'FAILED'}: {name}: {value:.6g} "
                  f"(bound {bound:.6g})", file=sys.stderr)
    for r in ok:
        path = os.path.join(store, r["input_key"])
        if os.path.exists(path):
            with open(path) as fh:
                if fh.read() != r["digest"]:
                    correct = False
                    print("CHECK FAILED: outputs differ from an earlier round on "
                          "the same inputs", file=sys.stderr)
        else:
            with open(f"{path}.{os.getpid()}", "w") as fh:
                fh.write(r["digest"])
            os.replace(f"{path}.{os.getpid()}", path)
    return correct, len(rounds) - len(ok)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tthjb", "cli.py")):
        fail(f"{root} holds no tthjb source tree (src/tthjb); run from a checkout")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    spans = os.path.join(root, ".perfbench_work", f"spans-{args.workload}.csv")
    runner = Runner(root, args.workload, args.seed, work)
    plain, traced = run_rounds(runner, args.seconds, args.trace, spans)
    rounds = plain + traced
    correct, failed = verdict(rounds, os.path.join(root, ".perfbench_work", "digests"))
    if failed == len(rounds):
        fail("no round ran its command successfully")

    ok_plain = [r for r in plain if r["exit_code"] == 0]
    if args.trace:
        ok_traced = [r for r in traced if r["exit_code"] == 0]
        if not ok_traced or not ok_plain:
            fail("the traced run needs one successful untraced and traced round")
        layers = [r["layers"] for r in ok_traced]
        values = {}
        for name in layers[0]:
            series = [layer[name] for layer in layers]
            if isinstance(series[0], int) and len(set(series)) > 1:
                correct = False
                print(f"CHECK FAILED: count {name} differs between rounds: {series}",
                      file=sys.stderr)
            values[name] = median(series)
        values["trace.overhead_s"] = (median([r["command_s"] for r in ok_traced])
                                      - ok_plain[0]["command_s"])
    else:
        setups = [r["setup_s"] for r in rounds]
        while len(setups) < MIN_SETUPS:
            setups.append(runner.round(setup_only=True)["setup_s"])
        values = {"setup_s": median(setups),
                  "command_s": median([r["command_s"] for r in ok_plain]),
                  "peak_rss_mb": median([r["peak_rss_mb"] for r in ok_plain])}

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(rounds), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
