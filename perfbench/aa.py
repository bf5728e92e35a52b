"""A/A steadiness check: two sets of runs of the same code, interleaved.

Run from the root of a source checkout::

    python3 perfbench/aa.py --workload fig8-small-py --runs 5

makes ``2 x --runs`` benchmark runs, alternating set A and set B, each
a fresh interpreter with its own ``--seed``. For every metric it prints
each set's median and quartiles, the spread of all runs (quartile
distance over median, as ``statistics.quantiles(values, n=4)`` gives
the quartiles), and how far set B's median moved from set A's. Both are
compared with the metric's bound in ``BENCHMARK.json``: the spread
should stay under a third of the bound (``setup_s`` is exempt), the
shift under the bound. Raw results go to ``.perfbench/aa/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent


def spread(values: List[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def one_run(root: Path, workload: str, seed: int, seconds: int) -> Dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"run failed (exit {done.returncode}): {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    sets: Dict[str, List[Dict]] = {"A": [], "B": []}
    for i in range(args.runs):
        for offset, name in enumerate(("A", "B")):
            seed = args.first_seed + 2 * i + offset
            started = time.perf_counter()
            result = one_run(root, args.workload, seed, seconds)
            sets[name].append(result)
            print(
                f"run {name}{i + 1} seed={seed} correct={result['correct']} "
                f"({time.perf_counter() - started:.1f} s)",
                flush=True,
            )
    out = root / ".perfbench" / "aa" / f"{args.workload}-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(sets, indent=1))

    steady = True
    names = list(sets["A"][0]["metrics"])
    print(f"{'metric':34s} {'set':3s} {'q1':>12s} {'median':>12s} {'q3':>12s}")
    for name in names:
        per_set = {}
        for set_name, results in sets.items():
            values = [r["metrics"][name]["value"] for r in results]
            per_set[set_name] = values
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            print(f"{name:34s} {set_name:3s} {q1:12.6g} {median:12.6g} {q3:12.6g}")
        everything = per_set["A"] + per_set["B"]
        bound, better = bounds[name]
        a, b = statistics.median(per_set["A"]), statistics.median(per_set["B"])
        worse = (b - a) / a if better == "lower" else (a - b) / a
        print(
            f"{'':34s} spread of all {len(everything)} runs {spread(everything):.4f}, "
            f"B worse than A by {worse:+.4f}, bound {bound}"
            + ("  <-- SPREAD ABOVE BOUND/3" if name != "setup_s" and spread(everything) > bound / 3 else "")
            + ("  <-- SHIFT ABOVE BOUND" if worse > bound else "")
        )
        steady = steady and worse <= bound and (name == "setup_s" or spread(everything) <= bound / 3)
    print(f"raw results: {out.relative_to(root)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
