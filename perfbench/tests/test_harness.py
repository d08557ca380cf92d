"""Tests of the benchmark harness itself: self-time arithmetic, metric names
and the make-up of the inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from checks import joint_eigenvalue  # noqa: E402
from tracer import LAYER_METRICS, Tracer, inclusive_times, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_direct_children():
    spans = [
        ["cell", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 4.0, 5.0, 0],
        ["d", 1.5, 2.5, 1],  # a grandchild does not count for the cell
    ]
    assert self_times(spans) == [7.0, 1.0, 1.0, 1.0]


def test_self_times_of_nested_spans_add_up_to_the_top_level_span():
    spans = [["cell", 0.0, 6.0, -1], ["suite", 1.0, 5.0, 0], ["apply", 2.0, 3.0, 1], ["apply", 3.0, 4.0, 1]]
    assert sum(self_times(spans)) == 6.0


def test_inclusive_time_counts_a_name_nested_in_itself_once():
    spans = [["reduce", 0.0, 4.0, -1], ["reduce", 1.0, 2.0, 0], ["reduce", 5.0, 6.0, -1]]
    assert inclusive_times(spans) == {"reduce": 5.0}


def test_wrap_records_parent_links_and_counts():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, counter="inner.calls")
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert tracer.counters["inner.calls"] == 2


def test_benchmark_json_names_the_metrics_the_harness_prints():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_the_suite_wrappers_cover_every_check_name():
    from checks import expected_checks
    from simplexalg.verify import SUITES

    suite_metrics = {name for name in LAYER_METRICS if name.startswith("suite.")}
    assert suite_metrics == {f"suite.{check}_s" for check in expected_checks(SUITES)}


def test_inputs_depend_only_on_the_seed_and_fail_the_same_share():
    for name in workloads.WORKLOADS:
        first, _ = workloads.make_cells(name, 7)
        again, _ = workloads.make_cells(name, 7)
        assert first == again
    for seed in (0, 1, 2, 175):  # 175 needs more than the first 200 draws
        cells, info = workloads.make_cells("sweep-random", seed)
        assert len(cells) == 46 and info["fixed_escape_cells"] == 4 and info["fixed_wrong_fail_cells"] == 2
        assert not any(workloads.nongeneric(cell[2]) for cell in cells[:40])
    for text in workloads.ESCAPE_CELLS + workloads.WRONG_FAIL_CELLS:
        assert workloads.nongeneric(workloads.ParamVector.parse(text))


def test_joint_eigenvalue_matches_the_library_formula():
    from simplexalg.verify import eigenvalue

    gamma = workloads.ParamVector.parse("1/2,1/3,1/5,1/7")
    for nu in [(2, 0, 1), (0, 3, 0), (1, 1, 1)]:
        for j in (1, 2, 3):
            assert joint_eigenvalue(j, nu, gamma) == eigenvalue(j, nu, gamma)
