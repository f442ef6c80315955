"""The A/B summary of tools/ab.py on synthetic runs; no benchmark runs."""

import importlib.util
import json
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]

SPEC = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
        {"name": "op_s_p50", "better": "lower", "bound": 0.25}]


def _ab():
    spec = importlib.util.spec_from_file_location("ab", _ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(parent, change, digests=None, failed=None):
    """ABBA runs of (ops_per_s, op_s_p50) pairs, as ab.schedule orders them;
    digests and failed map (pair, side) to a run's digest and failed ops."""
    values = {"parent": parent, "change": change}
    runs = []
    for pair, seed, side in _ab().schedule(len(parent), 40):
        ops, p50 = values[side][pair]
        runs.append({"pair": pair, "seed": seed, "side": side, "correct": True,
                     "attempted": 100, "failed": (failed or {}).get((pair, side), 0),
                     "metrics": {"ops_per_s": ops, "op_s_p50": p50},
                     "digests": {"results.jsonl": (digests or {}).get((pair, side), "d")}})
    return runs


def test_schedule_is_abba_with_one_seed_a_pair():
    assert _ab().schedule(3, 7) == [(0, 7, "parent"), (0, 7, "change"), (1, 8, "change"),
                                    (1, 8, "parent"), (2, 9, "parent"), (2, 9, "change")]


def test_a_clear_gain_meets_the_claim_rule():
    """Ten pairs, the change faster in every one: ops_per_s up and op_s_p50
    down by far more than the parent's interquartile range, with as many
    failed operations on each side."""
    parent = [(100.0 + k, 2.0 + 0.01 * k) for k in range(10)]
    change = [(120.0 + k, 1.5 + 0.01 * k) for k in range(10)]
    failed = {(0, "change"): 1, (3, "parent"): 1}
    summary = _ab().summarize(_runs(parent, change, failed=failed), SPEC)
    ops, p50 = summary["ops_per_s"], summary["op_s_p50"]
    assert (ops["parent_median"], ops["change_median"]) == (104.5, 124.5)
    assert ops["parent_iqr"] == pytest.approx([102.25, 106.75])
    assert ops["change"] == pytest.approx(124.5 / 104.5 - 1.0)
    assert (ops["wins"], ops["verdict"], ops["gain_met"]) == ("10/10", "within bound", True)
    assert (p50["wins"], p50["verdict"], p50["gain_met"]) == ("10/10", "within bound", True)
    assert summary["pairs"] == 10
    assert summary["failed_share_change"] == summary["failed_share_parent"] == 0.001
    assert summary["all_correct"] and summary["digests_equal_per_pair"]


def test_a_gain_with_more_failures_is_no_gain():
    """The same clear gain does not count when the change fails more
    operations than the parent."""
    parent = [(100.0 + k, 2.0 + 0.01 * k) for k in range(10)]
    change = [(120.0 + k, 1.5 + 0.01 * k) for k in range(10)]
    summary = _ab().summarize(_runs(parent, change, failed={(0, "change"): 1}), SPEC)
    assert summary["failed_share_change"] == 0.001 and summary["failed_share_parent"] == 0.0
    assert (summary["ops_per_s"]["wins"], summary["ops_per_s"]["gain_met"]) == ("10/10", False)
    assert (summary["op_s_p50"]["wins"], summary["op_s_p50"]["gain_met"]) == ("10/10", False)


def test_eight_wins_of_ten_is_no_gain_and_a_loss_beyond_the_bound_is_named():
    """A gain in 8 of 10 pairs misses the 9/10 rule; op_s_p50 30 % slower
    is worse than its 25 % bound; a pair whose digests differ is named."""
    parent = [(100.0, 1.0)] * 10
    change = [(110.0, 1.3)] * 8 + [(90.0, 1.3)] * 2
    runs = _runs(parent, change, digests={(3, "change"): "other"})
    summary = _ab().summarize(runs, SPEC)
    assert (summary["ops_per_s"]["wins"], summary["ops_per_s"]["gain_met"]) == ("8/10", False)
    assert summary["op_s_p50"]["verdict"] == "worse than bound"
    assert (summary["op_s_p50"]["wins"], summary["op_s_p50"]["gain_met"]) == ("0/10", False)
    assert not summary["digests_equal_per_pair"]


def test_the_benchmark_declares_what_the_summary_reads():
    """summarize reads name, better and bound of BENCHMARK.json's end-to-end
    metrics, and the runs of an unpaired side are refused."""
    spec = json.loads((_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert all({"name", "better", "bound"} <= set(entry) for entry in spec)
    runs = _runs([(100.0, 1.0)] * 2, [(100.0, 1.0)] * 2)
    with pytest.raises(ValueError, match="every pair"):
        _ab().summarize(runs[:-1], SPEC)


def test_op_time_sums_are_read_from_the_ops_per_s_line():
    """The scaled and measured op-time sums of bench/run.py's ops_per_s
    line, so that a record shows the host's drift; no line, no sums."""
    lines = ["workload mc-periodic  seed 7  env {}",
             "  setup_s       0.1000 s   median of 0.1000, 0.1100",
             "  ops_per_s     353.2000 1/s  = 180 ops / 0.5096 s (op time = median of 1 "
             "passes at reference host speed; 0.4871 s as measured, 0.982 s wall)",
             "  op_s_p50      0.00200 s   over 180 ops"]
    ab = _ab()
    assert ab.op_time_sums(lines) == {"ops": 180, "scaled_s": 0.5096, "measured_s": 0.4871}
    assert ab.op_time_sums(lines[:2]) == {}
