"""Compare two result sets (parent and change), one row per workload and metric.

    python3 perfbench/compare.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are directories (or single files) of the result
documents ``run.py`` writes (``--results-dir``).  End-to-end metrics come
from untraced runs: each side shows median [q1, q3] over its runs, the
change is given relative to the parent median, and the verdict applies the
metric's bound from ``BENCHMARK.json``:

- ``REGRESSION``: the change median is worse than the parent median by more
  than the bound;
- ``unresolved``: the parent's own spread (IQR / median) exceeds the bound,
  unless every change run beats every parent run;
- ``better``: the change median is better by more than the parent's IQR;
- ``within bound`` otherwise.

Each workload's row also shows, per side, how many runs were not correct
and how many operations failed in them; a gain does not count when the
change fails more runs than the parent.  Per-layer metrics come from traced
runs: the median of each side and the delta, with the parent median named
as the base of every percentage.  Exit status is 1 when any end-to-end
metric regressed or the change failed more runs of a workload than the
parent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import REPO, median, quartiles


def load_results(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    docs = []
    for file in files:
        try:
            doc = json.loads(file.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(doc, dict) and "workload" in doc and "metrics" in doc:
            docs.append(doc)
    return docs


def collect(docs: list[dict], trace: int) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values over the runs with the given trace flag."""
    out: dict[str, dict[str, list[float]]] = {}
    for doc in docs:
        if doc.get("trace") != trace:
            continue
        for name, metric in doc["metrics"].items():
            out.setdefault(doc["workload"], {}).setdefault(name, []).append(metric["value"])
    return out


def failures(docs: list[dict]) -> dict[str, tuple[int, int, int]]:
    """workload -> (runs, runs not correct, failed operations), over every run."""
    out: dict[str, list[int]] = {}
    for doc in docs:
        counts = out.setdefault(doc["workload"], [0, 0, 0])
        counts[0] += 1
        counts[1] += not doc.get("correct", False)
        counts[2] += int(doc.get("failed", 0))
    return {workload: tuple(counts) for workload, counts in out.items()}


def verdict(parent: list[float], change: list[float], bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    base = median(parent)
    q1, _, q3 = quartiles(parent)
    worse = sign * (median(change) - base)
    if base and worse > bound * abs(base):
        return "REGRESSION"
    if base and (q3 - q1) > bound * abs(base):
        if all(sign * c < sign * p for c in change for p in parent):
            return "better (every run)"
        return "unresolved"
    if -worse > (q3 - q1) and -worse > 0:
        return "better"
    return "within bound"


def _fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def _pct(delta: float, base: float) -> str:
    return f"{100.0 * delta / base:+.1f}% of {base:.4g}" if base else "base 0"


def compare(parent_docs: list[dict], change_docs: list[dict], benchmark: dict) -> tuple[str, bool]:
    lines = []
    regressed = False
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    better = {m["name"]: m["better"] for m in benchmark["per_layer"]}
    parent, change = collect(parent_docs, 0), collect(change_docs, 0)
    parent_failed, change_failed = failures(parent_docs), failures(change_docs)
    lines.append("end-to-end (untraced runs): median [q1, q3]; change relative to the parent median")
    header = f"{'workload':<12} {'metric':<12} {'parent':<34} {'change':<34} {'delta':<22} {'bound':>6}  verdict"
    lines += [header, "-" * len(header)]
    for workload in sorted(set(parent) | set(change) | set(parent_failed) | set(change_failed)):
        p_runs, p_bad, p_ops = parent_failed.get(workload, (0, 0, 0))
        c_runs, c_bad, c_ops = change_failed.get(workload, (0, 0, 0))
        worse = c_bad > p_bad
        regressed |= worse
        lines.append(
            f"{workload:<12} {'failures':<12} {f'{p_bad}/{p_runs} runs, {p_ops} ops':<34} "
            f"{f'{c_bad}/{c_runs} runs, {c_ops} ops':<34} {'':<22} {'':>6}  "
            f"{'MORE FAILURES' if worse else 'no more failures'}"
        )
        for name, spec in bounds.items():
            p, c = parent.get(workload, {}).get(name), change.get(workload, {}).get(name)
            if not p or not c:
                lines.append(f"{workload:<12} {name:<12} {'missing' if not p else _fmt(p):<34} "
                             f"{'missing' if not c else _fmt(c):<34}")
                continue
            result = verdict(p, c, spec["bound"], spec["better"] == "lower")
            regressed |= result == "REGRESSION"
            lines.append(
                f"{workload:<12} {name:<12} {_fmt(p):<34} {_fmt(c):<34} "
                f"{_pct(median(c) - median(p), median(p)):<22} {spec['bound']:>6.0%}  {result}"
            )
    parent, change = collect(parent_docs, 1), collect(change_docs, 1)
    if parent or change:
        lines.append("")
        lines.append("per-layer (traced runs): medians; delta = change - parent, "
                     "percentage of the parent median")
        for workload in sorted(set(parent) | set(change)):
            lines.append(f"[{workload}]")
            for name in better:
                p, c = parent.get(workload, {}).get(name), change.get(workload, {}).get(name)
                if not p or not c or (not any(p) and not any(c)):
                    continue
                delta = median(c) - median(p)
                lines.append(f"  {name:<38} {median(p):>12.5g} -> {median(c):<12.5g} "
                             f"{delta:+.4g} ({_pct(delta, median(p))}; {better[name]} is better)")
    return "\n".join(lines), regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/compare.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=REPO / "BENCHMARK.json")
    args = parser.parse_args(argv)
    text, regressed = compare(
        load_results(args.parent), load_results(args.change),
        json.loads(args.benchmark.read_text()),
    )
    print(text)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
