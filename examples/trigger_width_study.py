#!/usr/bin/env python
"""Study how trigger width affects detectability (the paper's Figure 5 scenario).

DETERRENT and TGRL pattern sets are generated once for the c6288 analogue and
then evaluated against Trojan populations of increasing trigger width.  The
paper's message — the set-cover formulation stays effective as triggers get
rarer while pattern-space RL collapses — is visible directly in the printed
sweep.

Run with:  python examples/trigger_width_study.py
"""

from repro.runner.execution import run_experiment


def main() -> None:
    run = run_experiment(
        "figure5", profile="quick", options={"design": "c6288_like", "widths": (2, 4, 6, 8, 10)}
    )
    print(run.report_text)
    points = run.collected
    if points:
        last = points[-1]
        print(
            f"\nAt trigger width {last.width}: DETERRENT {last.deterrent_coverage:.1f}% "
            f"vs TGRL {last.tgrl_coverage:.1f}% "
            f"(paper: DETERRENT stays ~steady while TGRL drops sharply)"
        )


if __name__ == "__main__":
    main()
