"""Compare full reports of ``bench/run.py`` from two commits.

    python3 bench/compare.py PARENT.json [...] -- CHANGE.json [...]

Each side's samples for an (end-to-end metric, workload) are the untraced
runs pooled over its reports; the i-th parent run is paired with the
i-th change run.  The verdict per pair of metric and workload:

``improved``
    at least ten pairs, the change wins at least 9/10 of them (ties count
    for neither side), and the medians differ by more than the parent's
    own spread (the distance between its quartiles);
``unresolved``
    either side's spread, as a share of its median, exceeds the metric's
    bound, and not every change run beats every parent run;
``regressed``
    the change's median is worse than the parent's by more than the bound;
``no-worse``
    otherwise.

Bounds and directions come from ``BENCHMARK.json``.  The exit code is 1
when anything regressed, a failure rate rose or outputs differ.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: a gain needs this many pairs and this share of them won
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: Sequence[float], change: Sequence[float],
            bound: float, better: str) -> str:
    """The verdict for one (metric, workload); see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0

    def gain(p: float, c: float) -> float:     # > 0: the change is better
        return sign * (p - c)

    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(gain(p, c) > 0 for p, c in pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain(p_med, c_med) > p_q3 - p_q1):
        return "improved"
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    all_better = all(gain(p, c) > 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved"
    if -gain(p_med, c_med) > bound * abs(p_med):
        return "regressed"
    return "no-worse"


def pooled(reports: List[Dict], workload: str, metric: str) -> List[float]:
    return [v for r in reports
            for v in r["workloads"].get(workload, {}).get("e2e", {})
            .get(metric, {}).get("values", [])]


def compare(parents: List[Dict], changes: List[Dict],
            spec: Dict) -> Tuple[List[str], bool]:
    """Report lines and whether the change passes."""
    lines, ok = [], True
    workloads = [w for w in parents[0]["workloads"]
                 if all(w in r["workloads"] for r in parents + changes)]
    for w in workloads:
        lines.append(f"== {w}")
        for m in spec["end_to_end"]:
            p, c = pooled(parents, w, m["name"]), pooled(changes, w, m["name"])
            if not p or not c:
                continue
            v = verdict(p, c, m["bound"], m["better"])
            ok &= v != "regressed"
            p_q1, p_med, p_q3 = quartiles(p)
            c_q1, c_med, c_q3 = quartiles(c)
            lines.append(
                f"  {m['name']:18s} {v:10s} change/parent = "
                f"{c_med / p_med:.4f} (base {p_med:.5g} {m['unit']}); "
                f"parent [{p_q1:.5g}, {p_q3:.5g}] n={len(p)}, "
                f"change [{c_q1:.5g}, {c_q3:.5g}] n={len(c)}; "
                f"bound {m['bound']:.0%} {m['better']}")
        fails = [sum(r["workloads"][w]["e2e"]["failed_frac"]["median"]
                     for r in side) / len(side) for side in (parents, changes)]
        if fails[1] > fails[0]:
            ok = False
            lines.append(f"  failed_frac ROSE: {fails[0]:.3f} -> "
                         f"{fails[1]:.3f}")
        shas = [{json.dumps(r["workloads"][w]["outputs_sha256"]) for r in side}
                for side in (parents, changes)]
        same = len(shas[0] | shas[1]) == 1
        ok &= same
        lines.append("  outputs_sha256 " + ("identical" if same else
                                            f"DIFFER: {shas[0]} vs {shas[1]}"))
    return lines, ok


def main(argv: List[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    sides = []
    for paths in (argv[:cut], argv[cut + 1:]):
        if not paths:
            print("each side needs at least one report", file=sys.stderr)
            return 2
        reports = []
        for path in paths:
            with open(path) as fh:
                reports.append(json.load(fh))
        sides.append(reports)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    lines, ok = compare(sides[0], sides[1], spec)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
