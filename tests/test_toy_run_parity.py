"""``kssnet train-toy`` and the benchmark's ``toy-train`` workload build the same run.

The benchmark builds its toy run by calling the library with the library's
own defaults, while the CLI builds it from a config file; a default changed
on either side makes this test fail.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from kssnet import cli, storage
from kssnet.model import TrainConfig

_BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(_BENCH) not in sys.path:
    sys.path.append(str(_BENCH))  # workloads imports its sibling modules by bare name
_SPEC = importlib.util.spec_from_file_location("bench_workloads", _BENCH / "workloads.py")
workloads = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)  # for its dataclasses
_SPEC.loader.exec_module(workloads)


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_cli_config_builds_the_benchmark_run(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("epochs = 2\ndata_seed = 5\nseed = 7\n")
    run_cfg = {**cli._CLI_DEFAULTS, **storage.load_config(cfg)}
    data, model, train_cfg = cli._toy_setup(run_cfg, cfg)
    bench_data, adjacency = workloads.toy_setup(5)
    bench_model = workloads.toy_model(bench_data, adjacency, 7, (16, 32, 64, 128))

    assert _same_array(data.train.x, bench_data.train.x)
    assert _same_array(data.val.y, bench_data.val.y)
    assert _same_array(data.train.e0, bench_data.train.e0)
    assert _same_array(model.adjacency.data, bench_model.adjacency.data)
    params = dict(model.named_parameters())
    bench_params = dict(bench_model.named_parameters())
    assert list(params) == list(bench_params)
    for name, p in params.items():
        assert _same_array(p.data, bench_params[name].data), name
    assert model.lc_stages == bench_model.lc_stages
    assert model.dropout_rate == bench_model.dropout_rate
    assert train_cfg == TrainConfig(epochs=2, seed=7)
