"""Time to verdict for ospq's exact checks, on four workloads.

    python3 perfbench/run.py --workload spin_ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Each repetition runs ``child.py`` in a fresh interpreter, the way every
``ospq`` command starts: cold imports and empty ``lru_cache``s.  One
client runs repetitions back to back (a closed loop) until ``--seconds``
is used up, and the run reports medians over them.  Every check's
verdict and output digest are compared with the known answers; a miss,
a crash or a repetition killed at its deadline counts as a failed
operation.

With ``--trace 0`` the run prints the end-to-end metrics, with
``--trace 1`` the per-layer ones from a traced run (see ``tracer.py``).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
for a correct run and 1 otherwise; it is 2, with no result printed, if
ospq cannot be set up from ``src/`` at all.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

from tracer import METRICS as LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("spin_ladder", "hopf_axioms", "series_twist", "operator_identities")

SETUP_SAMPLES_PER_REPETITION = 6
SETUP_DEADLINE_S = 30.0
# A repetition still running after this long is killed and its checks
# count as failed, so a regressed check cannot hang the run.
REPETITION_DEADLINE_S = 60.0
# Every run must end within 180 s, whatever a repetition does.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdict_s": "s",
    "largest_check_s": "s",
    "verdicts_ok": "ratio",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def load_digests() -> dict:
    with open(os.path.join(HERE, "digests.json")) as handle:
        return json.load(handle)


def wrong_answers(result: dict, pinned: dict) -> list:
    """One message per check of a finished repetition that missed.

    A check misses when its verdict is not the expected one, when its
    output digest differs from the pinned one, or when any of ospq's
    ``lru_cache``s was already filled as the repetition began, which
    would make its times those of a warm run.
    """
    warm = {name: size for name, size in result["cold_caches"].items() if size}
    wrong = []
    for check in result["checks"]:
        if warm:
            wrong.append(f"{check['id']}: caches not empty at the start: {warm}")
        elif check["passed"] != check["expect"]:
            wrong.append(f"{check['id']}: verdict {check['passed']}, expected {check['expect']}")
        elif check["digest"] != pinned.get(check["id"]):
            wrong.append(f"{check['id']}: output digest differs from the pinned one")
    return wrong


class Failure(Exception):
    """ospq could not even be set up; the run prints no result."""


class Repetition:
    """One child process: its plan, its result, or why it has none."""

    def __init__(self, args, deadline):
        self.started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-I", CHILD, *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.error = None
        try:
            out, err = proc.communicate(timeout=max(deadline, 0.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            self.error = f"killed at its {deadline:g} s deadline"
        self.duration = time.monotonic() - self.started
        lines = out.splitlines()
        self.plan = json.loads(lines[0])["plan"] if lines and '"plan"' in lines[0] else None
        self.result = None
        if self.error is None and proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
            self.error = tail[0]
        if self.error is None:
            self.result = json.loads(lines[-1])

    @property
    def setup_s(self) -> float:
        return self.result["setup_done"] - self.started


class Run:
    """All repetitions of one workload for one ``run.py`` invocation."""

    def __init__(self, workload, seed, seconds, trace, size):
        self.workload = workload
        self.size = size
        self.started = time.monotonic()
        self.rng = random.Random(seed)
        self.digests = load_digests()
        self.attempted = 0
        self.failed = 0
        self.errors = []

        # The first set-up writes the bytecode caches and proves that the
        # package is there at all; it is not timed.
        self.setups = []
        self._set_up(1)
        del self.setups[0]

        self.plain = []
        self.traced = []
        if trace:
            # One untraced repetition is the reference for the traced
            # verdicts and digests and for the tracing overhead.
            self.plain.append(self._repeat(trace=False))
            self._loop(self.traced, True, seconds)
        else:
            self._loop(self.plain, False, seconds)

    def _remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def _loop(self, into, trace, seconds):
        # Start another repetition only if one as long as the longest so
        # far still ends within the measuring time.
        while True:
            into.append(self._repeat(trace))
            longest = max(rep.duration for rep in into)
            if time.monotonic() - self.started + longest > seconds:
                return

    def _set_up(self, times):
        for _ in range(times):
            rep = Repetition(["--setup-only"], min(SETUP_DEADLINE_S, self._remaining()))
            if rep.result is None:
                raise Failure(f"cannot set up ospq: {rep.error}")
            self.setups.append(rep.setup_s)

    def _repeat(self, trace) -> Repetition:
        # Set-up samples are spread over the run, a few before each
        # repetition, so that a short burst of load on the machine moves
        # few of them.
        self._set_up(SETUP_SAMPLES_PER_REPETITION)
        args = [
            "--workload", self.workload,
            "--seed", str(self.rng.randrange(2**31)),
            "--size", self.size,
        ]
        if trace:
            args.append("--trace")
        rep = Repetition(args, min(REPETITION_DEADLINE_S, self._remaining()))
        self._score(rep)
        return rep

    def _score(self, rep):
        if rep.result is None:
            planned = len(rep.plan) if rep.plan else 1
            self.attempted += planned
            self.failed += planned
            self.errors.append(rep.error)
            return
        wrong = wrong_answers(rep.result, self.digests[self.workload])
        self.attempted += len(rep.result["checks"])
        self.failed += len(wrong)
        self.errors.extend(wrong)

    def end_to_end(self) -> dict:
        done = [rep.result for rep in self.plain if rep.result is not None]
        setups = self.setups + [rep.setup_s for rep in self.plain if rep.result]
        metrics = {
            "setup_s": statistics.median(setups),
            "verdict_s": _median(r["wall_s"] for r in done),
            "largest_check_s": _median(
                max(c["seconds"] for c in r["checks"]) for r in done
            ),
            "verdicts_ok": 1 - self.failed / self.attempted,
            "peak_rss_mb": _median(r["peak_rss_mb"] for r in done),
        }
        return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}

    def per_layer(self) -> dict:
        # Traced repetitions are held to the same pinned verdicts and
        # digests as untraced ones, so tracing cannot change an answer
        # without failing the run.
        reference = self.plain[0]
        results = [rep.result for rep in self.traced if rep.result is not None]
        metrics = {}
        for name in LAYER_METRICS:
            # Counts repeat exactly from one repetition to the next.
            metrics[name] = _median(
                (r["layers"][name] for r in results), low=name.endswith(".calls")
            )
        overhead = 0.0
        if results and reference.result is not None:
            overhead = _median(r["wall_s"] for r in results) / reference.result["wall_s"]
        metrics["trace.overhead_ratio"] = overhead
        metrics["trace.unattributed_s"] = _median(
            r["wall_s"] - r["attributed_s"] for r in results
        )
        return {name: (value, layer_unit(name)) for name, value in metrics.items()}

    def report(self, trace) -> dict:
        metrics = self.per_layer() if trace else self.end_to_end()
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }


def _median(values, low=False):
    # No finished repetition leaves nothing to measure; such a run
    # already reports failed operations, so 0 stands in for the value.
    values = list(values)
    if not values:
        return 0.0
    return statistics.median_low(values) if low else statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke: a few small checks per workload, for the benchmark's tests",
    )
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = {}
    try:
        for name in names:
            run = Run(name, args.seed, args.seconds, bool(args.trace), args.size)
            reports[name] = run.report(bool(args.trace))
            for error in sorted(set(run.errors)):
                print(f"{name}: {error}", file=sys.stderr)
    except Failure as exc:
        print(exc, file=sys.stderr)
        return 2

    for name, report in reports.items():
        print(f"{name}: {report['attempted']} checks, {report['failed']} failed")
        for metric, entry in report["metrics"].items():
            print(f"  {metric:28s} {entry['value']:.6g} {entry['unit']}")
    result = reports[names[0]] if len(names) == 1 else reports
    print(json.dumps(result))
    return 0 if all(report["correct"] for report in reports.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
