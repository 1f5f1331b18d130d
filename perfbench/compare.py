"""Compare two sets of perfbench results, or summarise one.

Usage::

    python3 perfbench/compare.py BASE [NEW]

BASE and NEW are result directories (or single files) written by
``perfbench/run.py`` (default ``.bench_build/perfbench/results``).  For
every workload x metric it prints the number of runs and each side's
median and quartiles (``statistics.quantiles(n=4)``).  With NEW it adds
a verdict, judged by the bounds in ``BENCHMARK.json``:

* ``worse``: NEW's median is worse than BASE's by more than the bound;
* ``better``: NEW's median is better by more than BASE's own spread
  (quartile distance over median) and NEW wins at least 90% of all
  (base, new) run pairs;
* ``unresolved``: either side's spread exceeds the bound, unless every
  NEW run beats (or loses to) every BASE run;
* ``unchanged``: otherwise.

Per-layer metrics have no bound; they get the relative change only.
The ``(build_steal_share)`` and ``(serve_steal_share)`` rows are the
machine's CPU steal during the builds and the serve windows: context
for a wide spread, never judged.  A
warning is printed when the two sides' envelopes (machine, CPUs,
versions, settings) differ.  Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Envelope fields that describe the run, not where it ran.
_PER_RUN = {"seed", "git_rev", "src_sha256", "trace"}
#: Pseudo-metric rows: the machine's CPU steal during the builds and the
#: serve windows (context for a spread, never judged).
STEAL = ("build_steal_share", "serve_steal_share")


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text()) for f in files]
    if not runs:
        raise SystemExit(f"no results in {path}")
    return runs


def spec() -> dict:
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = {m["name"]: m for m in data["end_to_end"]}
    for m in data["per_layer"]:
        table[m["name"]] = {**m, "bound": None}
    return table


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def grouped(runs: list[dict]) -> dict:
    """``{(workload, trace): {metric: [values]}}``."""
    out: dict = {}
    for run in runs:
        key = (run["envelope"]["workload"], run["envelope"]["trace"])
        for name, metric in run["metrics"].items():
            out.setdefault(key, {}).setdefault(name, []).append(
                metric["value"]
            )
        for name in STEAL:
            steal = run.get("details", {}).get(name)
            if steal is not None:
                out.setdefault(key, {}).setdefault(f"({name})", []).append(
                    steal
                )
    return out


def envelope_diff(base: list[dict], new: list[dict]) -> list[str]:
    def fields(runs):
        seen: dict = {}
        for run in runs:
            for key, value in run["envelope"].items():
                if key not in _PER_RUN:
                    seen.setdefault(key, set()).add(json.dumps(value))
        return seen

    left, right = fields(base), fields(new)
    return [
        f"{key}: {sorted(left.get(key, ()))} vs {sorted(right.get(key, ()))}"
        for key in sorted(set(left) | set(right))
        if left.get(key) != right.get(key) and key != "workload"
    ]


def verdict(base: list[float], new: list[float], meta: dict) -> str:
    bound = meta.get("bound")
    sign = 1.0 if meta.get("better", "lower") == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    change = sign * (nm - bm) / abs(bm) if bm else 0.0  # > 0: worse
    if bound is None:
        return f"{-change:+.1%} (no bound)"
    spreads = [(b3 - b1) / abs(bm) if bm else 0.0,
               (n3 - n1) / abs(nm) if nm else 0.0]
    pairs = [(sign * (n - b)) for b in base for n in new]
    wins = sum(1 for d in pairs if d < 0) / len(pairs)
    if max(spreads) > bound:
        if wins == 1.0:
            return "better"
        if all(d > 0 for d in pairs):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if -change > spreads[0] and wins >= 0.9:
        return "better"
    return "unchanged"


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__)
        return 2
    sides = [load(Path(arg)) for arg in argv]
    table = spec()
    if len(sides) == 2:
        for line in envelope_diff(*sides):
            print(f"WARNING: envelopes differ: {line}")
    groups = [grouped(runs) for runs in sides]
    worse = False
    for key in sorted(set().union(*groups)):
        workload, trace = key
        print(f"\n== {workload} (trace {trace})")
        names = sorted(set().union(*(g.get(key, {}) for g in groups)))
        for name in names:
            meta = table.get(name, {"unit": "1", "bound": None})
            cells = []
            values = [g.get(key, {}).get(name) for g in groups]
            for side in values:
                if side is None:
                    cells.append(f"{'-':>40s}")
                    continue
                q1, q2, q3 = quartiles(side)
                spread = (q3 - q1) / abs(q2) if q2 else 0.0
                cells.append(
                    f"n={len(side):<3d} {q2:12.6g} [{q1:.6g} .. {q3:.6g}]"
                    f" {spread:6.1%}"
                )
            line = f"  {name:28s} {meta.get('unit', ''):6s} " + " | ".join(cells)
            if len(values) == 2 and None not in values:
                judged = verdict(values[0], values[1], meta)
                worse = worse or judged == "worse"
                line += f"  -> {judged}"
            elif meta.get("bound") is not None:
                line += f"  (bound {meta['bound']:.0%})"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
