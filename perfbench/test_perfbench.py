"""Tests of the benchmark itself: span arithmetic, seed -> config, metric names."""

import json
import pathlib
import re
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _span(name, start, end, parent=None, run=0):
    return (name, start, end, parent, run)


def test_self_time_of_nested_spans():
    s = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),  # overlaps a: the overlap is covered once
        _span("a.child", 2.0, 3.0, parent=1),
        _span("late", 9.5, 12.0, parent=0),  # runs past its parent: clipped
    ]
    assert spans.self_times(s) == pytest.approx([10.0 - 5.0 - 0.5, 2.0, 3.0, 1.0, 2.5])


def test_self_time_without_children_is_duration():
    assert spans.self_times([_span("x", 2.0, 2.75)]) == [0.75]


def test_tracer_wraps_and_restores(tmp_path):
    import signorini
    import signorini.cli as cli
    import signorini.grid as grid

    original = grid.build_grid
    cfg = cli.ExperimentConfig.from_dict(
        {"n": 1, "a": 0.0, "hx": 0.25, "hy": 0.25, "boundary": "oracle:signorini_profile"})
    tracer = spans.Tracer()
    tracer.install(run_id=0)
    try:
        assert signorini.build_grid is not original
        assert cli.build_grid is signorini.build_grid
        cli.build_experiment(cfg)
    finally:
        tracer.uninstall()
    assert grid.build_grid is original and signorini.build_grid is original
    assert cli.build_grid is original
    names = [s[spans.SPAN_NAME] for s in tracer.spans]
    top = names.index("cli.build_experiment")
    assert tracer.spans[names.index("grid.build_grid")][spans.SPAN_PARENT] == top
    m = tracer.layer_metrics()
    assert m["grid.build_grid.s"] > 0.0
    assert m["oracle.exact_solution.s"] > 0.0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_determines_config(workload):
    for seed in (0, 1, 7):
        assert workloads.make_config(workload, seed) == workloads.make_config(workload, seed)
    if workload != "diag1d_fine":
        assert workloads.make_config(workload, 1) != workloads.make_config(workload, 2)


def test_seed_zero_gives_nominal_values_and_others_stay_in_range():
    assert workloads.perturbations("diag2d_tilt", 0) == {
        "slope": 0.1, "tilt": 0.25, "tilt_slope": 0.1}
    assert workloads.perturbations("diag1d_fine", 3) == {}
    for seed in range(1, 50):
        p = workloads.perturbations("diag2d_tilt", seed)
        assert workloads.SLOPE_RANGE[0] <= p["slope"] <= workloads.SLOPE_RANGE[1]
        assert workloads.SLOPE_RANGE[0] <= p["tilt_slope"] <= workloads.SLOPE_RANGE[1]
        assert workloads.TILT_RANGE[0] <= p["tilt"] <= workloads.TILT_RANGE[1]


def test_names_use_the_allowed_alphabet_once():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_traced_run_reports_every_per_layer_metric():
    produced = set(spans.Tracer().layer_metrics())
    produced |= {"cli.artifact_files", "cli.artifact_bytes", "trace.overhead_s",
                 "setup.import_s", "setup.import_scipy_interpolate_s"}
    assert produced == {m["name"] for m in BENCH["per_layer"]}
