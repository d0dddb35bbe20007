"""scripts/bench_compare.py: medians, wins, no-regression verdicts and
failed pairs of a series."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"
spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)

METRICS = {
    "wall_s": {"better": "lower", "bound": 0.24},
    "steps_per_s": {"better": "higher", "bound": 0.24},
}


def side(wall, correct=True, failed=0):
    return {"correct": correct, "attempted": 3, "failed": failed, "wall_s": wall,
            "steps_per_s": 100.0 / wall}


def pair(base, head, **head_kw):
    return {"first": "base", "base": side(base), "head": side(head, **head_kw)}


def test_clear_gain_holds():
    pairs = [pair(10.0 + 0.1 * i, 5.0 + 0.1 * i) for i in range(10)]
    out = bench_compare.summary(pairs, METRICS)
    assert out["wall_s"]["head_wins"] == 10
    assert out["wall_s"]["pairs"] == 10
    assert out["wall_s"]["base"]["median"] == pytest.approx(10.45)
    assert out["wall_s"]["head"]["median"] == pytest.approx(5.45)
    assert out["wall_s"]["gain_holds"]
    assert out["steps_per_s"]["head_wins"] == 10 and out["steps_per_s"]["gain_holds"]


def test_gain_within_base_spread_does_not_hold():
    pairs = [pair(10.0 + i, 10.0 + i - 0.5) for i in range(10)]
    out = bench_compare.summary(pairs, METRICS)
    assert out["wall_s"]["head_wins"] == 10
    assert not out["wall_s"]["gain_holds"]  # gap 0.5 s against a base IQR of 4.5 s
    # that IQR is above the bound, 0.24 x the median 14.5 s
    assert out["wall_s"]["no_regression"] == "unresolved"


@pytest.mark.parametrize(
    "base,head,verdict",
    [
        ([10.0 + 0.01 * i for i in range(10)], [10.5 + 0.01 * i for i in range(10)], "ok"),
        ([10.0 + 0.01 * i for i in range(10)], [14.0 + 0.01 * i for i in range(10)], "worse"),
        ([10.0 + i for i in range(10)], [10.2 + i for i in range(10)], "unresolved"),
        ([10.0 + 2 * i for i in range(10)], [5.0 + 0.1 * i for i in range(10)], "ok"),
        ([10.0 + 2 * i for i in range(10)], [40.0 + 0.1 * i for i in range(10)], "worse"),
    ],
    ids=["within-bound", "beyond-bound", "base-spread", "beats-every-run", "worse-despite-spread"],
)
def test_no_regression_verdict(base, head, verdict):
    # wall_s is lower-better and steps_per_s = 100 / wall_s higher-better:
    # the verdicts agree in both directions
    out = bench_compare.summary([pair(b, h) for b, h in zip(base, head)], METRICS)
    assert out["wall_s"]["no_regression"] == verdict
    assert out["steps_per_s"]["no_regression"] == verdict


@pytest.mark.parametrize(
    "bad",
    [
        {"correct": False},
        {"failed": 1},
    ],
    ids=["incorrect", "failed-operations"],
)
def test_failed_pairs_are_left_out_and_void_the_gain(bad):
    pairs = [pair(10.0, 5.0) for _ in range(9)] + [pair(10.0, 0.001, **bad)]
    assert bench_compare.pair_failed(pairs[-1])
    assert sum(bench_compare.pair_failed(p) for p in pairs) == 1
    out = bench_compare.summary(pairs, METRICS)
    assert out["wall_s"]["pairs"] == 9
    assert out["wall_s"]["head_wins"] == 9
    assert out["wall_s"]["head"]["median"] == 5.0  # the failed head's 0.001 s is not counted
    assert not out["wall_s"]["gain_holds"]


def test_failed_base_side_counts_too():
    bad = {"first": "base", "base": {"correct": False, "error": ["Traceback"]}, "head": side(5.0)}
    assert bench_compare.pair_failed(bad)
    out = bench_compare.summary([bad], METRICS)
    assert out == {}


def test_existing_workdir_base_is_refused(tmp_path, capsys):
    (tmp_path / "base").mkdir()
    with pytest.raises(SystemExit) as exc:
        bench_compare.main(["--base", "HEAD", "--tag", "t", "--workdir", str(tmp_path)])
    assert exc.value.code == 2
    assert "already exists" in capsys.readouterr().err
