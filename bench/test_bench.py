"""Self-tests of the benchmark's own logic: span arithmetic, seeded inputs,
failure counting.  Run with ``python3 -m pytest bench``."""

import math
import time
from dataclasses import replace

import pytest

import run

run.load_program()

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, Span, self_times  # noqa: E402


def make_span(id, parent, name, start, end):
    s = Span(id, parent, 0, name, start, 0.0)
    s.end = end
    return s


def test_self_time_subtracts_nested_children():
    spans = [
        make_span(0, None, "rep", 0.0, 10.0),
        make_span(1, 0, "pipeline.run", 1.0, 9.0),
        make_span(2, 1, "assembly.assemble", 2.0, 5.0),
        make_span(3, 2, "bspline.eval_basis", 3.0, 4.0),
        make_span(4, 1, "solver.gmres", 6.0, 8.5),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 2.0, 1: 2.5, 2: 2.0, 3: 1.0, 4: 2.5})
    assert sum(selfs.values()) == pytest.approx(spans[0].duration)


def test_observer_time_is_excluded_from_enclosing_spans():
    def slow_observer(counts, args, kwargs, result):
        time.sleep(0.05)

    rec = Recorder()
    inner = rec.wrap(lambda: None, "t.inner", slow_observer)
    root = rec.begin("rep")
    inner()
    rec.end(root)
    child = rec.spans[1]
    assert child.excluded == 0.0
    assert root.excluded >= 0.05
    assert root.duration < 0.05
    assert self_times(rec.spans)[root.id] == pytest.approx(root.duration - child.duration)
    m = layers.rep_metrics(rec.spans, {})
    assert m["trace.observe_s"] == root.excluded
    assert layers.summarize([m], [0.0])[0]["trace.overhead_s"] >= 0.05


def test_every_eval_basis_call_is_counted():
    import igarad.bspline

    rec = Recorder()
    layers.install(rec)
    try:
        root = rec.begin("rep")
        kv = igarad.bspline.make_uniform_open_knots(4, 8)
        igarad.bspline.basis_matrix(kv, [0.1, 0.4, 0.7])
        rec.end(root)
    finally:
        rec.restore()
    m = layers.rep_metrics(rec.spans, rec.counts)
    assert m["bspline.basis_matrix.points"] == 3
    assert m["bspline.eval_basis.calls"] >= m["bspline.basis_matrix.points"]


def test_rep_metrics_layer_self_time_and_unaccounted_share():
    spans = [
        make_span(0, None, "rep", 0.0, 10.0),
        make_span(1, 0, "pipeline.run", 0.5, 10.0),
        make_span(2, 1, "assembly.assemble", 1.0, 5.0),
        make_span(3, 2, "bspline.eval_basis", 2.0, 3.0),
        make_span(4, 1, "solver.gmres", 5.0, 9.0),
    ]
    m = layers.rep_metrics(spans, {"assembly.nnz": 7})
    assert m["assembly.assemble.s"] == pytest.approx(4.0)
    assert m["assembly.assemble.self_s"] == pytest.approx(3.0)
    assert m["bspline.self_s"] == pytest.approx(1.0)
    assert m["bspline.eval_basis.calls"] == 1
    assert m["assembly.nnz"] == 7
    assert m["trace.wall_s"] == pytest.approx(10.0)
    assert m["trace.unaccounted_frac"] == pytest.approx((10.0 - 8.0) / 10.0)


def test_recorder_links_parents_and_restores_patches():
    class Host:
        @staticmethod
        def outer(x):
            return Host.inner(x) + 1

        @staticmethod
        def inner(x):
            time.sleep(0.001)
            return 2 * x

    originals = (Host.__dict__["outer"], Host.__dict__["inner"])
    rec = Recorder()
    rec.patch(Host, "outer", "t.outer")
    rec.patch(Host, "inner", "t.inner", lambda counts, a, k, r: counts.update(inner=r))
    assert Host.outer(3) == 7
    rec.restore()
    assert (Host.__dict__["outer"], Host.__dict__["inner"]) == originals
    outer, inner = rec.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == ("t.outer", None, "t.inner", 0)
    assert outer.start <= inner.start < inner.end <= outer.end
    assert rec.counts["inner"] == 6


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_depend_only_on_seed(name):
    w = workloads.WORKLOADS[name]
    assert w.inputs(3, run.ROOT) == w.inputs(3, run.ROOT)
    assert w.inputs(3, run.ROOT) != w.inputs(4, run.ROOT)


def test_radiation_inputs_keep_dofs_and_draw_phase_and_frequency():
    w = workloads.WORKLOADS["desk_k300"]
    base = w.inputs(0, run.ROOT)
    for seed in range(20):
        cfg = w.inputs(seed, run.ROOT)
        assert (cfg.n, cfg.m, cfg.order_xi, cfg.order_eta) == (base.n, base.m, 4, 4)
        assert abs(cfg.amplitude) == pytest.approx(1.0)
        assert abs(cfg.frequency / 71619.72439135291 - 1.0) <= workloads.FREQUENCY_JITTER


def test_mms_inputs_draw_a_unit_direction():
    for seed in range(20):
        d = workloads.WORKLOADS["mms_cubic"].inputs(seed, run.ROOT)["direction"]
        assert math.hypot(*d) == pytest.approx(1.0)


class FakeWorkload:
    def __init__(self, failures, raises=False, sleep=0.0):
        self.failures = failures
        self.raises = raises
        self.sleep = sleep

    def run(self, inputs, workdir):
        time.sleep(self.sleep)
        if self.raises:
            raise RuntimeError("deliberate")
        return inputs

    def check(self, inputs, output):
        return list(self.failures)


def test_traced_run_has_two_traced_repetitions():
    samples, traced = run.repeat(FakeWorkload([], sleep=0.001), None, seconds=0.0,
                                 recorder=Recorder())
    assert [s.traced for s in samples] == [False, True, False, True]
    assert len(traced) == 2


@pytest.mark.parametrize("workload", [
    FakeWorkload(["deliberately failing check"]),
    FakeWorkload([], raises=True),
])
def test_failed_repetitions_are_counted(workload):
    samples, _ = run.repeat(workload, None, seconds=0.05)
    tally = run.tally_samples(samples)
    assert tally["attempted"] == len(samples) >= 1
    assert tally["failed"] == tally["attempted"]
    assert tally["failed_frac"] == 1.0


def test_passing_repetitions_are_not_counted():
    samples, _ = run.repeat(FakeWorkload([]), None, seconds=0.0)
    assert run.tally_samples(samples)["failed_frac"] == 0.0
    samples[0] = replace(samples[0], failures=["x"])
    assert run.tally_samples(samples)["failed_frac"] == 1.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(20))) is None
    p, value = run.tail_percentile([float(i) for i in range(100)])
    assert p == 90 and 89.0 <= value <= 90.0


def test_reported_metrics_match_benchmark_json():
    import json

    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    spans = [make_span(0, None, "rep", 0.0, 1.0), make_span(1, 0, "pipeline.run", 0.0, 1.0)]
    per_layer, _ = layers.summarize([layers.rep_metrics(spans, {})], [1.0])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: layers.unit(k) for k in per_layer
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_count_mismatch_between_repetitions_is_reported():
    spans = [make_span(0, None, "rep", 0.0, 1.0), make_span(1, 0, "pipeline.run", 0.0, 1.0)]
    reps = [layers.rep_metrics(spans, {"solver.lu_nnz": n, "pipeline.bytes_written": n})
            for n in (10, 11)]
    _, mismatches = layers.summarize(reps, [1.0])
    assert len(mismatches) == 1 and mismatches[0].startswith("solver.lu_nnz")
