"""Tests of the benchmark's own code, on inputs small enough to run in seconds."""

import json
from pathlib import Path

import numpy as np
import pytest

import datagen
import layertrace
import workloads

TINY_TOY = workloads.ToySize(n_train=100, n_val=50, epochs=2, runs=2, channels=(4, 4, 8, 8))
TINY_INFER = workloads.InferSize(batch=16, pool_batches=2, channels=(4, 4, 8, 8), check_rows=8)
TINY_LABELS = workloads.LabelSize(n_samples=3000, n_labels=12, n_scores=2000)


def _run(name, tracer, tmp_path, seconds=0.4):
    if name == "toy-train":
        return workloads.toy_train(3, seconds, tracer, TINY_TOY)
    if name == "wide-infer":
        return workloads.wide_infer(3, seconds, tracer, TINY_INFER)
    return workloads.coco_labels(3, seconds, tracer, TINY_LABELS, workdir=tmp_path / "coco")


def _current(targets):
    return [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            for owner, attr, _ in targets]


class TestGenerator:
    def test_label_matrix_is_deterministic_per_seed(self):
        a = datagen.label_matrix(7, 500, 20)
        assert np.array_equal(a, datagen.label_matrix(7, 500, 20))
        assert not np.array_equal(a, datagen.label_matrix(8, 500, 20))
        assert a.any(axis=1).all()

    def test_files_are_byte_identical_per_seed(self, tmp_path):
        one = datagen.write_coco_files(tmp_path / "a", 5, 400, 12)
        two = datagen.write_coco_files(tmp_path / "b", 5, 400, 12)
        other = datagen.write_coco_files(tmp_path / "c", 6, 400, 12)
        for field in ("vocabulary", "annotations", "knowledge"):
            assert getattr(one, field).read_bytes() == getattr(two, field).read_bytes()
        assert one.annotations.read_bytes() != other.annotations.read_bytes()

    def test_scores_are_deterministic_per_seed(self):
        y = datagen.label_matrix(2, 300, 10).astype(np.int64)
        assert np.array_equal(datagen.scores_for(2, y, 2.0), datagen.scores_for(2, y, 2.0))
        assert not np.array_equal(datagen.scores_for(2, y, 2.0), datagen.scores_for(3, y, 2.0))

    def test_toy_inputs_are_deterministic_per_seed(self):
        data, adjacency = workloads.toy_setup(4, TINY_TOY)
        again, adjacency_again = workloads.toy_setup(4, TINY_TOY)
        assert np.array_equal(data.train.x, again.train.x)
        assert np.array_equal(adjacency, adjacency_again)

    def test_expected_ap_limits(self):
        assert datagen.expected_ap(0.3, 0.0) == pytest.approx(0.3, abs=1e-3)
        assert datagen.expected_ap(0.3, 8.0) == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
class TestWorkloads:
    def test_untraced_run_is_correct(self, name, tmp_path):
        before = _current(workloads.TARGETS[name])
        report = _run(name, None, tmp_path)
        assert report.correct, report.problems
        assert set(report.metrics) == set(workloads.E2E_UNITS)
        assert all(v > 0 for v in report.metrics.values())
        assert _current(workloads.TARGETS[name]) == before

    def test_traced_self_times_fit_in_the_total(self, name, tmp_path):
        report = _run(name, layertrace.Tracer(workloads.TARGETS[name]), tmp_path, seconds=0.8)
        assert report.correct, report.problems
        values = report.metrics
        assert list(values) == layertrace.metric_names()
        self_total = sum(v for k, v in values.items()
                         if k.endswith("_s") and not k.startswith("trace."))
        assert self_total > 0
        assert self_total <= values["trace.step_s"]
        assert values["trace.unattributed_s"] >= 0

    def test_tracer_restores_every_original(self, name, tmp_path):
        targets = workloads.TARGETS[name]
        before = _current(targets)
        _run(name, layertrace.Tracer(targets), tmp_path)
        after = _current(targets)
        assert all(a is b for a, b in zip(after, before))


def test_traced_layers_cover_the_model():
    report = _run("toy-train", layertrace.Tracer(layertrace.MODEL_TARGETS), None, seconds=0.8)
    values = report.metrics
    for s in range(layertrace.N_STAGES):
        assert values[f"train.autodiff.conv2d.stage{s}.bwd_s"] > 0
        assert values[f"eval.autodiff.conv2d.stage{s}.fwd_s"] > 0
    for s in layertrace.LC_STAGES:
        assert values[f"train.lateral.lc_core.stage{s}.bwd_s"] > 0
    assert values["train.model.embeddings.bwd_s"] > 0
    assert values["train.model.Adam.step.calls"] == TINY_TOY.n_train // 50


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == layertrace.metric_names()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
