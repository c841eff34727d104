"""Record ``golden.json``: the non-timing outputs every benchmark run is checked against.

    python3 perfbench/golden.py

Run on the seed code from the root of a checkout.  seq_detect and comb_flow
goldens come from the same ``deterrent run`` passes the benchmark times
(plus one traced replay for the comb_flow pattern-set digests); service_mix
goldens come from a *local serial* run of each job's grid cell, so a
service answer is checked against the path that does not go through the
queue; sat_random records the pool digest.  Only outputs are recorded:
work counters (solver decisions, cache hits) are checked for repeating
across passes, never against a golden, so a change that does less work for
the same outputs stays correct.
"""

from __future__ import annotations

import json
import shutil
import sys

from common import SRC, prepare_parent_process, child_env
from run import WORK_ROOT, _replay


def service_goldens(jobs, cache_dir) -> dict:
    from repro.experiments import sequential_detect
    from repro.experiments.common import TINY
    from repro.runner.cache import ArtifactCache, set_default_cache
    from repro.runner.execution import run_experiment
    from repro.runner.registry import get_experiment
    from repro.service.jobs import job_record_test_sets
    from workloads import job_key, job_outputs

    goldens = {}
    for job in jobs:
        design, cycles, mode, count = job
        options = {"designs": [design], "cycles": [cycles], "modes": [mode], "counts": [count]}
        run = run_experiment("sequential_detect", profile="tiny", jobs=1, options=options,
                             cache_dir=cache_dir)
        record = run.record()
        set_default_cache(ArtifactCache(cache_dir))
        cells = get_experiment("sequential_detect").build_cells(TINY, options)
        record["test_sets"] = job_record_test_sets(
            sequential_detect, cells, [outcome.result for outcome in run.outcomes], TINY)
        set_default_cache(None)
        goldens[job_key(job)] = job_outputs(json.loads(json.dumps(record, default=str)))
    return goldens


def main() -> int:
    sys.path.insert(0, str(SRC))
    prepare_parent_process()
    import workloads

    work = WORK_ROOT / "golden"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Context(work=work, env=child_env(work), golden={})
    golden = {}
    try:
        seq = workloads.SeqDetect()
        rep = seq.rep(ctx, seq.inputs(0), 0)
        golden["seq_detect"] = {"cells": rep.extra["outputs"]}

        comb = workloads.CombFlow()
        inputs = comb.inputs(0)
        rep = comb.rep(ctx, inputs, 0)
        traced = _replay(ctx, comb.name, 0, trace=True)
        cells = rep.extra["outputs"]
        for design, digest in zip(inputs["designs"], traced["patterns"]):
            cells[design]["patterns"] = digest
        golden["comb_flow"] = {"cells": cells}

        golden["service_mix"] = {
            "jobs": service_goldens(workloads.SERVICE_JOBS, work / "service-cache"),
        }

        golden["sat_random"] = {"pool_digest": workloads.SatRandom().pool["digest"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
