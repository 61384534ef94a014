"""One round of one workload, in the interpreter that runs this file.

    python3 perfbench/one_round.py --workload scan3 --seed 1 --trace 0

``run.py`` starts this in a fresh interpreter for every round.  It draws the
inputs from the seed, times the closed loop with the yardstick probing it,
checks every result exactly (untimed) and prints one JSON line with the
operations' spans and the probes.  With ``--trace 1`` it runs the loop
without the probe, records spans around it, writes them to ``--spans`` and
adds the per-layer metrics.
"""

import argparse
import json
import resource
import sys
from time import perf_counter

from spans import Tracer, layer_metrics
from workloads import WORKLOADS, Runner


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None,
                    help="file for the spans of a traced round")
    args = ap.parse_args()

    make_inputs, prepare, run, check = WORKLOADS[args.workload]
    prepared = prepare(make_inputs(args.seed))
    tracer = Tracer() if args.trace else None
    runner = Runner(tracer)
    # A traced round runs without the probe: its spans would hold it.
    prober = runner.prober
    with tracer.installed() if tracer else prober.probing():
        first = len(prober.probes)
        start = perf_counter()
        results = run(prepared, runner.call)
        wall = perf_counter() - start - prober.seconds(first)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checks = check(prepared, results)
    for error in runner.errors:
        sys.stderr.write(error.traceback)

    out = {
        "wall_s": wall,
        "op_s": runner.times,
        "op_span": runner.spans,
        "probes": prober.probes,
        "peak_rss_mb": peak_kib / 1024,
        "attempted": len(runner.times),
        "failed": checks.failed,
        "messages": checks.messages,
        "notes": checks.notes,
    }
    if tracer:
        out["layers"] = layer_metrics(tracer)
        out["spans"] = len(tracer.spans)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
