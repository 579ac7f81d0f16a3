"""One repetition of a workload, in a fresh interpreter.

``run.py`` starts this file once per repetition, so every repetition
begins the way an ``ospq`` command does: cold imports and empty
``lru_cache``s.  The last line of standard output is one JSON object
with the set-up time stamp, per-check times, verdicts and digests, and
(with ``--trace``) the per-layer counts and self times.

    python3 perfbench/child.py --workload spin_ladder --seed 3 [--trace]
    python3 perfbench/child.py --setup-only
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
FIXTURE_FILES = ("contract_half_half.json", "contract_half_one.json")


def set_up():
    """Import the package and parse the golden fixtures: what ``setup_s`` times."""
    sys.path[:0] = [SRC, HERE]
    import ospq
    from ospq.cli import load_fixture

    fixtures = {name: load_fixture(name) for name in FIXTURE_FILES}
    return ospq, fixtures, time.monotonic()


def _lru_sizes() -> dict:
    """Current size of every ``lru_cache`` in the package, by name."""
    sizes = {}
    for name, module in sorted(sys.modules.items()):
        if name != "ospq" and not name.startswith("ospq."):
            continue
        for attr, value in vars(module).items():
            info = getattr(value, "cache_info", None)
            if callable(info) and getattr(value, "__module__", None) == name:
                sizes[f"{name}.{attr}"] = info().currsize
    return sizes


def main(argv=None) -> int:
    ospq, fixtures, setup_done = set_up()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Only the package in this checkout may be measured, never an
    # installed copy.
    here = os.path.realpath(os.path.dirname(ospq.__file__))
    want = os.path.realpath(os.path.join(SRC, "ospq"))
    if here != want:
        print(f"ospq was imported from {here}, not {want}", file=sys.stderr)
        return 2
    result = {"setup_done": setup_done}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    import workloads

    checks = workloads.checks_for(args.workload, args.size, args.seed)
    # The plan comes first, so a repetition killed at its deadline still
    # tells how many checks it failed to finish.
    print(json.dumps({"plan": [check.id for check in checks]}), flush=True)
    cold = _lru_sizes()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(extra_namespaces=[workloads])

    # Each output is hashed and dropped as soon as its check is timed, so
    # the heap, and with it the garbage collector's work, does not grow
    # with the position of a check in the seeded order.
    records = []
    for check in checks:
        started = time.perf_counter()
        passed, output = check.run(fixtures)
        seconds = time.perf_counter() - started
        records.append(
            {
                "id": check.id,
                "seconds": seconds,
                "passed": bool(passed),
                "expect": check.expect,
                "digest": workloads.digest(output),
            }
        )
        del output
    result["wall_s"] = sum(record["seconds"] for record in records)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["attributed_s"] = tracer.attributed_s()
    result["cold_caches"] = cold
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["checks"] = records
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
