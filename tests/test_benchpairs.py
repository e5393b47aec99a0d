"""Aggregation of tools/benchpairs.py on fixed inputs; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "benchpairs.py"
_spec = importlib.util.spec_from_file_location("benchpairs", _PATH)
benchpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpairs)

END_TO_END = [{"name": "fixed_ms", "unit": "ms", "better": "lower"},
              {"name": "ops_per_s", "unit": "1/s", "better": "higher"}]


def _record(fixed_ms, ops_per_s, failed=0, attempted=100, commit="abc"):
    return {"detail": {"environment": {"numpy": "2.0", "threads": {},
                                       "git_commit": commit}},
            "result": {"correct": failed == 0, "attempted": attempted,
                       "failed": failed,
                       "metrics": {"fixed_ms": {"value": fixed_ms,
                                                "unit": "ms"},
                                   "ops_per_s": {"value": ops_per_s,
                                                 "unit": "1/s"}}}}


def test_quartiles_interpolate_linearly():
    assert benchpairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "q1": 2.0, "median": 3.0, "q3": 4.0}
    # positions (n - 1) p: 0.75, 1.5 and 2.25 between the sorted values
    assert benchpairs.quartiles([10.0, 20.0, 30.0, 40.0]) == {
        "q1": 17.5, "median": 25.0, "q3": 32.5}
    assert benchpairs.quartiles([7.0]) == {"q1": 7.0, "median": 7.0,
                                           "q3": 7.0}


def test_compare_counts_wins_by_direction():
    parent = [10.0, 12.0, 11.0, 13.0]
    change = [9.0, 12.0, 12.0, 10.0]
    lower = benchpairs.compare(parent, change, "lower")
    assert (lower["change_wins"], lower["ties"]) == (2, 1)
    higher = benchpairs.compare(parent, change, "higher")
    assert (higher["change_wins"], higher["ties"]) == (1, 1)
    assert lower["parent"] == {"q1": 10.75, "median": 11.5, "q3": 12.25}
    assert lower["parent_quartile_spread"] == pytest.approx(1.5)
    assert lower["change_of_median"] == pytest.approx((11.0 - 11.5) / 11.5)
    assert lower["per_seed"] == {"parent": parent, "change": change}
    with pytest.raises(ValueError):
        benchpairs.compare([1.0], [1.0, 2.0], "lower")


def test_claim_rule():
    parent = [20.0, 21.0, 22.0, 21.5, 20.5, 22.5, 21.0, 20.0, 22.0, 21.0]
    faster = [p * 1.7 for p in parent]
    block = {"better": "higher",
             **benchpairs.compare(parent, faster, "higher")}
    assert benchpairs.claim_holds(block)
    # two losses in ten pairs break the rule
    mixed = faster[:8] + [p - 1.0 for p in parent[8:]]
    assert not benchpairs.claim_holds(
        {"better": "higher", **benchpairs.compare(parent, mixed, "higher")})
    # ten wins by less than the parent's quartile spread do not count
    tiny = [p + 0.01 for p in parent]
    assert not benchpairs.claim_holds(
        {"better": "higher", **benchpairs.compare(parent, tiny, "higher")})
    # nine wins in nine pairs are too few pairs
    assert not benchpairs.claim_holds(
        {"better": "higher",
         **benchpairs.compare(parent[:9], faster[:9], "higher")})
    # a lower-is-better metric gains when the change is smaller
    assert benchpairs.claim_holds(
        {"better": "lower", **benchpairs.compare(faster, parent, "lower")})


def test_bench_document_layout():
    runs = [{"seed": s, "parent": _record(30.0 + s, 21.0 + s / 10),
             "change": _record(10.0 + s, 38.0 + s / 10, attempted=170)}
            for s in (1, 2, 3)]
    traced = [{"seed": 1,
               "parent": _record(400.0, 0.0, commit="p"),
               "change": _record(180.0, 0.0, commit="c")}]
    bytecode = {"PYTHONDONTWRITEBYTECODE": True,
                "pycache_after_runs": {"parent": False, "change": False}}
    doc = benchpairs.bench_document(
        {"validate_sweep": runs}, {"validate_sweep": traced}, END_TO_END,
        30.0, {"parent": "p", "change": "c"}, bytecode,
        claim=("validate_sweep", "ops_per_s"))
    assert doc["commits"] == {"parent": "p", "change": "c"}
    assert doc["bytecode"] == bytecode
    # 3 of 3 wins far beyond the parent's spread, but fewer than ten pairs
    assert doc["claim"]["holds"] is False
    w = doc["workloads"]["validate_sweep"]
    assert w["seeds"] == [1, 2, 3] and w["pairs"] == 3
    assert w["failed_ops"] == {"parent": 0, "change": 0}
    assert w["attempted_ops"] == {"parent": 300, "change": 510}
    assert w["environment"]["parent"] == {"numpy": "2.0", "threads": {}}
    fixed = w["metrics"]["fixed_ms"]
    assert (fixed["unit"], fixed["better"]) == ("ms", "lower")
    assert fixed["per_seed"]["parent"] == [31.0, 32.0, 33.0]
    assert fixed["parent"]["median"] == 32.0
    assert fixed["change_wins"] == 3
    assert w["metrics"]["ops_per_s"]["change_wins"] == 3
    assert w["traced"]["seeds"] == [1]
    assert w["traced"]["fixed_ms"] == {"parent": [400.0], "change": [180.0]}


def test_bytecode_record_reads_the_environment_and_each_tree(tmp_path):
    trees = {side: tmp_path / side for side in benchpairs.SIDES}
    (trees["change"] / "src" / "lqdisc" / "__pycache__").mkdir(parents=True)
    trees["parent"].mkdir()
    assert benchpairs.bytecode_record(trees, {}) == {
        "PYTHONDONTWRITEBYTECODE": False,
        "pycache_after_runs": {"parent": False, "change": True}}
    record = benchpairs.bytecode_record(
        trees, {"PYTHONDONTWRITEBYTECODE": "1"})
    assert record["PYTHONDONTWRITEBYTECODE"] is True


def test_parse_seeds():
    assert benchpairs.parse_seeds("1-4,7") == [1, 2, 3, 4, 7]
    assert benchpairs.parse_seeds("11") == [11]
