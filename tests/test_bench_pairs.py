"""tools/bench_pairs.py: the gain rule and the bound verdicts on canned
results, and the alternation of runs on two stand-in checkouts."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = sys.modules["bench_pairs"] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

#: Ten parent runs: median 1.595, quartiles 1.5725 and 1.6175 (distance 0.045).
PARENT = [1.55, 1.58, 1.60, 1.62, 1.65, 1.50, 1.57, 1.61, 1.64, 1.59]


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles(PARENT) == pytest.approx((1.5725, 1.595, 1.6175))
    assert bench_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)


@pytest.mark.parametrize("change, gain", [
    # wins 10 of 10, medians 0.105 apart, more than the parent's 0.045
    ([p - 0.105 for p in PARENT], True),
    # wins 9 of 10: still a gain
    ([p - 0.105 for p in PARENT[:9]] + [PARENT[9] + 0.01], True),
    # wins 8 of 10: no gain, however far the medians are apart
    ([p - 0.5 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]], False),
    # a tie counts for neither side: 9 wins and a tie of 10 pairs is a gain,
    # 8 wins and 2 ties is not
    ([p - 0.105 for p in PARENT[:9]] + [PARENT[9]], True),
    ([p - 0.105 for p in PARENT[:8]] + PARENT[8:], False),
    # wins every pair, but the medians are closer than the quartile distance
    ([p - 0.04 for p in PARENT], False),
])
def test_the_gain_rule(change, gain):
    verdict = bench_pairs.judge("rerun_s", PARENT, change, "lower", 0.25)
    assert verdict.gain is gain
    assert verdict.pairs == 10


def test_the_gain_rule_for_a_metric_that_grows_better():
    assert bench_pairs.judge("success_rate", PARENT, [p + 0.2 for p in PARENT],
                             "higher", 0.05).gain
    assert not bench_pairs.judge("success_rate", PARENT, [p - 0.2 for p in PARENT],
                                 "higher", 0.05).gain


@pytest.mark.parametrize("change, bound, verdict", [
    ([p - 0.2 for p in PARENT], 0.01, "better"),  # every change run is better
    ([p + 0.01 for p in PARENT], 0.25, "within"),
    ([p * 1.5 for p in PARENT], 0.25, "worse"),
    # spread 0.045 wider than 1% of the median: no verdict but this
    ([p + 0.001 for p in PARENT], 0.01, "unresolved"),
])
def test_the_bound_verdicts(change, bound, verdict):
    assert bench_pairs.judge("audit_s", PARENT, change, "lower", bound).bound == verdict


def test_identical_runs_are_within_any_bound():
    verdict = bench_pairs.judge("cache_mb", [2.5] * 10, [2.5] * 10, "lower", 0.1)
    assert (verdict.wins, verdict.ties, verdict.gain, verdict.bound) == (0, 10, False, "within")


def test_a_result_is_the_last_line_of_json():
    assert bench_pairs.result_of('table\n{"correct": true, "metrics": {}}\n\n') == {
        "correct": True, "metrics": {}}
    for output in ("", "no json here\n", '{"correct": true}\n'):
        with pytest.raises(bench_pairs.RunFailed):
            bench_pairs.result_of(output)


#: A stand-in for perfbench/run.py: logs its checkout's name and prints a
#: result with the checkout's rerun time, unless this is its run FAIL_ON.
STAND_IN = """\
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parents[1]
with open(here.parent / "order.log", "a") as log:
    log.write(here.name + " " + " ".join(sys.argv[1:]) + "\\n")
with open(here / "runs.log", "a") as runs:
    runs.write("x")
if len((here / "runs.log").read_text()) == {FAIL_ON}:
    raise SystemExit("stand-in failure")
value = {VALUE}
print("a table line")
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0, "metrics": {{
    "rerun_s": {{"value": value, "unit": "s"}},
    "success_rate": {{"value": 1.0, "unit": "ratio"}}}}}}))
"""


def stand_in(root: Path, name: str, value: float, fail_on: int = 0) -> Path:
    checkout = root / name
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(STAND_IN.format(VALUE=value,
                                                                   FAIL_ON=fail_on))
    (checkout / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w"}, {"name": "v"}],
        "end_to_end": [{"name": "rerun_s", "better": "lower", "bound": 0.25},
                       {"name": "success_rate", "better": "higher", "bound": 0.05}]}))
    return checkout


def test_pairs_alternate_and_report_each_metric(tmp_path, capsys):
    parent = stand_in(tmp_path, "parent", 2.0)
    change = stand_in(tmp_path, "change", 1.0)
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--seed", "7",
                             "--pairs", "3"]) == 0
    assert (tmp_path / "order.log").read_text().splitlines() == [
        f"{name} --workload w --seed 7"
        for name in ("parent", "change", "change", "parent", "parent", "change")]
    table = capsys.readouterr().out.split("workload w, seed 7, 3 pairs\n")[1].splitlines()
    assert table[1].split()[0] == "rerun_s" and table[1].split()[-3:] == ["0", "yes", "better"]
    assert table[2].split()[0] == "success_rate"
    assert table[2].split()[-3:] == ["3", "no", "within"]


def test_a_failed_run_is_counted_and_the_pairs_go_on(tmp_path, capsys):
    """The change's second run fails: its output is printed, every pair is
    still run, the metrics are judged over the two pairs left whole, and the
    exit code is 1."""
    parent = stand_in(tmp_path, "parent", 2.0)
    change = stand_in(tmp_path, "change", 1.0, fail_on=2)
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--seed", "7",
                             "--pairs", "3"]) == 1
    assert len((tmp_path / "order.log").read_text().splitlines()) == 6
    out, err = capsys.readouterr()
    assert "w pair 2: change run failed" in err and "stand-in failure" in err
    table = out.split("workload w, seed 7, 3 pairs\n")[1].splitlines()
    assert table[1].split()[0] == "rerun_s"
    assert table[1].split()[-4:] == ["2/2", "0", "yes", "better"]
    assert table[3] == "failed runs: parent 0, change 1"


def test_a_side_that_always_fails_gets_no_verdict(tmp_path, capsys):
    parent = stand_in(tmp_path, "parent", 2.0)
    change = stand_in(tmp_path, "change", 1.0)
    (change / "perfbench" / "run.py").write_text("raise SystemExit(2)\n")
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--seed", "7",
                             "--pairs", "2"]) == 1
    out = capsys.readouterr().out.split("workload w, seed 7, 2 pairs\n")[1].splitlines()
    assert out == ["no pair in which both runs gave a result",
                   "failed runs: parent 0, change 2"]


@pytest.mark.parametrize("value", ["float('nan')", "None", "'fast'", "True", "missing"])
def test_a_result_without_a_finite_metric_is_a_failed_run(tmp_path, capsys, value):
    """A result whose declared metric is missing or not a finite number is
    a failed run naming the metric, not a NaN in the verdicts."""
    parent = stand_in(tmp_path, "parent", 2.0)
    change = stand_in(tmp_path, "change", 1.0 if value == "missing" else value)
    if value == "missing":
        script = change / "perfbench" / "run.py"
        script.write_text(script.read_text().replace('"rerun_s"', '"other_s"'))
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--seed", "7",
                             "--pairs", "2"]) == 1
    out, err = capsys.readouterr()
    assert "w pair 1: change run failed" in err and "no finite rerun_s" in err
    assert out.split("workload w, seed 7, 2 pairs\n")[1].splitlines() == [
        "no pair in which both runs gave a result", "failed runs: parent 0, change 2"]


def test_without_a_workload_every_declared_workload_gets_its_pairs(tmp_path, capsys):
    """Without --workload, each workload of PARENT's BENCHMARK.json gets its
    pairs in turn, alternating, and a report of its own."""
    parent = stand_in(tmp_path, "parent", 2.0)
    change = stand_in(tmp_path, "change", 1.0)
    assert bench_pairs.main([str(parent), str(change), "--seed", "7", "--pairs", "2"]) == 0
    assert (tmp_path / "order.log").read_text().splitlines() == [
        f"{name} --workload {workload} --seed 7" for workload in ("w", "v")
        for name in ("parent", "change", "change", "parent")]
    out = capsys.readouterr().out
    for workload in ("w", "v"):
        table = out.split(f"workload {workload}, seed 7, 2 pairs\n")[1].splitlines()
        assert table[1].split()[0] == "rerun_s" and table[1].split()[-1] == "better"
        assert table[2].split()[0] == "success_rate"
