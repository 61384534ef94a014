"""Tests of the benchmark's own machinery (not of the library).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

import run
import spans
import workloads
import yardstick


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    make_inputs = workloads.WORKLOADS[name][0]
    assert make_inputs(7) == make_inputs(7)


def test_different_seeds_give_different_fiber_sacks():
    a = set(workloads.fiber_inputs(1))
    b = set(workloads.fiber_inputs(2))
    assert a and b and not a & b


def test_scan_inputs_hold_each_k_once():
    for name in ("scan3", "scan4"):
        pairs = workloads.WORKLOADS[name][0](3)
        assert len(pairs) == len(set(pairs))
        assert all(2 <= k <= workloads.K_MAX for _, k in pairs)


def test_self_time_of_nested_spans():
    synthetic = [
        ("exotica.s_scan", 0.0, 10.0, -1, 0),
        ("exactnum.sign", 1.0, 4.0, 0, 0),
        ("exactnum.sign", 2.0, 3.0, 1, 0),      # same layer, nested
        ("exotica.s_scan", 5.0, 9.0, 0, 0),     # same name, nested
    ]
    selfs = spans.self_times(synthetic)
    assert selfs == {"exotica.s_scan": (10 - 3 - 4) + 4,
                     "exactnum.sign": (3 - 1) + 1}
    assert sum(selfs.values()) == 10


def test_p90_is_reported_only_with_ten_samples_beyond():
    assert not run.p90_supported([float(i) for i in range(91)])
    assert run.p90_supported([float(i) for i in range(100)])
    value, beyond = run.tail_percentile([float(i) for i in range(100)], 0.9)
    assert beyond == 10 and 89 < value < 90


def _round(ops, probe_s):
    """A synthetic round: ``ops`` as (start, end) pairs, and a 0.01 s probe
    every 0.2 s for 4 s whose own timing reads ``probe_s(t)``."""
    return {"op_span": ops,
            "probes": [(0.2 * i, 0.2 * i + 0.01, probe_s(0.2 * i))
                       for i in range(21)]}


def test_calibration_cancels_a_slowdown_of_the_host():
    ref = yardstick.REFERENCE_S
    ops = [(0.3, 0.35), (1.02, 1.5), (2.02, 3.0)]
    # 0.05 s; 0.48 s less two probes; 0.98 s less four probes
    want = [0.05, 0.48 - 2 * 0.01, 0.98 - 4 * 0.01]
    assert run.calibrated_ops(_round(ops, lambda t: ref)) == \
        pytest.approx(want)
    # the host runs 1.7 times slower throughout
    assert run.calibrated_ops(_round(ops, lambda t: 1.7 * ref)) == \
        pytest.approx([w / 1.7 for w in run.calibrated_ops(
            _round(ops, lambda t: ref))])
    # the host runs twice as slow from t = 2.5 on: the last operation ran
    # half its time at each speed
    mixed = run.calibrated_ops(_round(ops, lambda t: ref * (1 + (t > 2.5))))
    assert mixed[:2] == pytest.approx(
        run.calibrated_ops(_round(ops, lambda t: ref))[:2])
    assert 0.6 < mixed[2] / want[2] < 0.9


def test_probing_interrupts_long_operations_and_restores_the_handler():
    import signal
    import time

    previous = signal.getsignal(signal.SIGALRM)
    runner = workloads.Runner()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    with runner.prober.probing():
        runner.call("busy", busy, 0.7)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    (start, end), = runner.spans
    inside = [p for p in runner.prober.probes if start < p[0] < end]
    assert len(inside) >= 2
    assert runner.times[0] == pytest.approx(
        end - start - sum(e - s for s, e, _ in inside))


def test_per_op_medians_take_each_operation_over_rounds():
    ref = yardstick.REFERENCE_S
    rounds = [_round([(0.21, 0.21 + a), (2.01, 2.01 + b)], lambda t: ref)
              for a, b in [(0.1, 0.05), (0.15, 0.04), (0.12, 0.17)]]
    assert run.per_op_medians(rounds) == pytest.approx([0.12, 0.05])
    assert run.per_op_medians(rounds[:1]) == pytest.approx([0.1, 0.05])


def test_metric_names_match_benchmark_json():
    end_to_end, per_layer = run.declared_metrics()
    assert set(per_layer) == set(spans.layer_metrics(spans.Tracer())) | {
        "trace.overhead_ratio"}
    assert set(end_to_end) == {"wall_s", "op_p50_ms", "op_p90_ms",
                               "setup_s", "peak_rss_mb"}


def _patched_objects():
    return [vars(spans._owner(path))[attr] for path, attr, _ in spans.PATCHES]


def test_traced_round_restores_every_attribute():
    make_inputs, prepare, run_fiber, check = workloads.WORKLOADS["fiber"]
    prepared = prepare(make_inputs(5))[:1]
    before = _patched_objects()
    tracer = spans.Tracer()
    runner = workloads.Runner(tracer)

    def boom():
        raise ZeroDivisionError("raised inside a traced operation")

    with pytest.raises(KeyError):
        with tracer.installed():
            assert all(a is not b for a, b in zip(before, _patched_objects()))
            results = run_fiber(prepared, runner.call)
            assert isinstance(runner.call("exotica.boom", boom),
                              workloads.OpError)
            raise KeyError("leaves the traced block by an exception")
    after = _patched_objects()
    assert all(a is b for a, b in zip(before, after))
    assert check(prepared, results).failed == 0
    metrics = spans.layer_metrics(tracer)
    assert metrics["fibers.sacks"] == workloads.FIBER_DEGREE
    assert metrics["crapseval.calls"] == workloads.FIBER_DEGREE
    assert metrics["exactnum.mul.calls"] == 0
    assert metrics["dicecore.poly_mul.calls"] > 0


def test_corrupted_census_result_counts_as_failure():
    ops = [("swap_census", (20,)), ("swap_census", (12,))]
    results = [[SimpleNamespace(give=g, take=t) for g, t in workloads.SWAPS_20],
               [SimpleNamespace(give=(4,), take=(5,))] * 3]
    assert workloads.check_census(ops, results).failed == 0
    results[0] = results[0] + results[0][:1]      # E(20) off by one
    checks = workloads.check_census(ops, results)
    assert checks.failed == 1 and "E(20)" in checks.messages[0]


def test_product_check_is_exact():
    from totalparts.dicecore import poly_mul
    from totalparts.exactnum import two_cos

    tau = two_cos(1, 7)
    a, b = [Fraction(1), -tau, Fraction(1)], [Fraction(1, 2), Fraction(1, 3)]
    product = poly_mul(a, b)
    assert workloads._product_equals([a, b], product)
    assert not workloads._product_equals([a, b], product[:-1] + [0])


def test_corrupted_or_raising_scan_counts_as_failure():
    from totalparts.exotica import s_scan

    pairs = [(3, 24), (3, 143), (4, 30)]
    results = [s_scan(ell, k) for ell, k in pairs]
    assert workloads.check_scan(pairs, results).failed == 0
    results[0] = replace(results[0], M=results[0].M + 1)
    results[1] = replace(results[1], R=Fraction(61, 143))
    try:
        raise ArithmeticError("unresolved sign")
    except ArithmeticError as exc:
        results[2] = workloads.OpError(exc)
    assert workloads.check_scan(pairs, results).failed == 3
