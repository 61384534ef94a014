"""The repository benchmark: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0

Run it from anywhere; it finds the library at ``src/`` next to this
directory.  Every round runs in a fresh single-threaded interpreter
(``one_round.py``).  With ``--trace 0`` it first times set-up (a fresh
interpreter importing ``totalparts.cli`` and building its parser) several
times, then runs three rounds of the workload and more while the next round
still fits in ``--seconds``.  With ``--trace 1`` it runs one untraced round
and one traced round and reports the per-layer metrics.  The last line of
standard output is one JSON object; the lines before it print the same
metrics for a reader.

Every end-to-end time is calibrated against the host's speed: a timer
signal runs the fixed ``yardstick`` probe every ``PROBE_EVERY_S`` seconds of
an untraced round, and each piece of an operation is scaled by
``yardstick.REFERENCE_S`` over the probe times around it
(``calibrated_ops``).  The per-operation figures are then medians over
rounds, so ``wall_s`` is the sum of each operation's median calibrated time
and ``op_p50_ms`` and ``op_p90_ms`` are percentiles over those medians.
``setup_s`` is calibrated by probes run in the set-up interpreter.  The
uncalibrated medians are printed on the header line.

It refuses to run (exit 2, no result) when ``TOTALPARTS_PRECISION`` is set,
because the scans and censuses must run at the library's default interval
start precision, or when the library source is missing.
"""

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("census", "scan3", "scan4", "fiber")
SETUP_PROBES = 5
# Each operation's figure is its median calibrated time over the rounds; a
# median needs three.
MIN_ROUNDS = 3
# A run must end within 180 s; leave room for set-up and reporting.
DEADLINE_S = 165
MIN_BEYOND = 10
# A segment between two probes takes its speed from this many probes
# around it.
SPEED_PROBES = 4


# Set-up is timed like an operation, with the yardstick probing during the
# import.  The yardstick imports ``fractions`` and ``signal`` first, which
# the library imports too; that moves a few milliseconds out of set-up, the
# same at every commit.
SETUP_PROBE = """\
import json, sys, time
sys.path.insert(0, {here!r})
import yardstick
prober = yardstick.Prober()
with prober.probing():
    first = len(prober.probes)
    start = time.perf_counter()
    import totalparts.cli as cli
    cli.build_parser()
    end = time.perf_counter()
    raw = end - start - prober.seconds(first)
import mpmath, numpy, platform
from totalparts import exactnum
print(json.dumps({{"op_span": [[start, end]], "probes": prober.probes,
                  "setup_s": raw, "python": platform.python_version(),
                  "numpy": numpy.__version__, "mpmath": mpmath.__version__,
                  "start_bits": exactnum.get_start_bits()}}))
""".format(here=HERE)


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, deadline):
    """Run a fresh interpreter and return the JSON object on its last line."""
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before starting a round")
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[:3]} did not finish in {timeout:.0f} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{argv[:3]} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(samples, q):
    """The q-quantile of the samples and how many samples lie above it."""
    value = statistics.quantiles(samples, n=100, method="inclusive")[
        round(q * 100) - 1] if len(samples) > 1 else samples[0]
    return value, sum(1 for s in samples if s > value)


def p90_supported(samples):
    """True when at least ten samples lie beyond the 90th percentile."""
    return tail_percentile(samples, 0.9)[1] >= MIN_BEYOND


def calibrated_ops(round_):
    """The round's operation times, calibrated against the host's speed.

    The probes cut the round into segments (from the end of one probe to
    the start of the next).  A segment's speed is the median time of the
    four probes around it, and each piece of an operation that lies in a
    segment counts REFERENCE_S / that time as long as it took."""
    probes = round_["probes"]
    seg_start = [end for _, end, _ in probes[:-1]]
    seg_end = [start for start, _, _ in probes[1:]]
    half = SPEED_PROBES // 2
    scale = [yardstick.REFERENCE_S / statistics.median(
        p for _, _, p in probes[max(j + 1 - half, 0):j + 1 + half])
        for j in range(len(seg_start))]
    out = []
    for start, end in round_["op_span"]:
        j = max(bisect.bisect_right(seg_start, start) - 1, 0)
        total = 0.0
        while j < len(seg_start) and seg_start[j] < end:
            total += max(min(end, seg_end[j]) - max(start, seg_start[j]),
                         0.0) * scale[j]
            j += 1
        out.append(total)
    return out


def per_op_medians(rounds):
    """Each operation's calibrated time, as the median over rounds (every
    round runs the same operations in the same order)."""
    return [statistics.median(times)
            for times in zip(*(calibrated_ops(r) for r in rounds))]


def round_cmd(workload, seed, trace, spans=None):
    argv = [os.path.join(HERE, "one_round.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    return argv + (["--spans", spans] if spans else [])


def another_round(durations, start, seconds, deadline):
    """At least MIN_ROUNDS rounds, then more while one fits in ``seconds``;
    never one that could run past the deadline (but always a first)."""
    if not durations:
        return True
    now = perf_counter()
    if now + max(durations) >= deadline:
        return False
    return (len(durations) < MIN_ROUNDS
            or now - start + statistics.median(durations) <= seconds)


def end_to_end(workload, seed, seconds, deadline):
    run_child(["-c", SETUP_PROBE], deadline)  # compiles .pyc files; untimed
    probes = [run_child(["-c", SETUP_PROBE], deadline)
              for _ in range(SETUP_PROBES)]
    rounds, durations = [], []
    start = perf_counter()
    while another_round(durations, start, seconds, deadline):
        t = perf_counter()
        rounds.append(run_child(round_cmd(workload, seed, 0), deadline))
        durations.append(perf_counter() - t)
    ops = per_op_medians(rounds)
    p90 = tail_percentile(ops, 0.9)[0]
    metrics = {
        "wall_s": sum(ops),
        "op_p50_ms": 1000 * statistics.median(ops),
        "op_p90_ms": 1000 * p90,
        "setup_s": statistics.median(calibrated_ops(p)[0] for p in probes),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    meta = {k: probes[0][k] for k in ("python", "numpy", "mpmath",
                                      "start_bits")}
    meta["nproc"] = os.cpu_count()
    meta["rounds"] = len(rounds)
    meta["ops_per_round"] = len(ops)
    meta["p90_ten_beyond"] = p90_supported(ops)
    meta["raw_wall_s"] = round(statistics.median(r["wall_s"]
                                                 for r in rounds), 4)
    meta["raw_setup_s"] = round(statistics.median(p["setup_s"]
                                                  for p in probes), 4)
    meta["probe_ms"] = round(1000 * statistics.median(
        p for r in rounds for _, _, p in r["probes"]), 3)
    return metrics, rounds, meta


def per_layer(workload, seed, deadline):
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl")
    plain = run_child(round_cmd(workload, seed, 0), deadline)
    traced = run_child(round_cmd(workload, seed, 1, spans), deadline)
    metrics = dict(traced["layers"])
    # The traced round runs without the probe, so both sides are raw.
    metrics["trace.overhead_ratio"] = sum(traced["op_s"]) / sum(plain["op_s"])
    meta = {"spans": traced["spans"], "spans_file": os.path.relpath(spans,
                                                                   ROOT)}
    return metrics, [plain, traced], meta


def declared_metrics():
    """{metric name: unit} for ``end_to_end`` and ``per_layer`` as declared
    in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if os.environ.get("TOTALPARTS_PRECISION"):
        print("perfbench: TOTALPARTS_PRECISION is set; unset it so that the "
              "library runs at its default start precision", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "totalparts", "__init__.py")):
        print(f"perfbench: no library source at {SRC}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    try:
        if args.trace:
            metrics, rounds, meta = per_layer(args.workload, args.seed,
                                              deadline)
        else:
            metrics, rounds, meta = end_to_end(args.workload, args.seed,
                                               args.seconds, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    units = declared_metrics()[1 if args.trace else 0]
    if set(units) != set(metrics):
        print("perfbench: measured metrics differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in meta.items()))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6f} {units[name]}")
    print(f"  {'fail_ratio':34s} {failed / attempted:>16.6f} "
          f"({failed} of {attempted} operations)")
    if not meta.get("p90_ten_beyond", True):
        print("  note: fewer than ten operations of a round lie beyond "
              "op_p90_ms; read it as indicative")
    for line in dict.fromkeys(rounds[0]["notes"]
                              + [m for r in rounds for m in r["messages"]]):
        print(f"  {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
