"""The worker pool: split kernels give the same bits with one worker as with two.

The worker count is forced by patching ``workers._size``; for two, the job
queue ``workers._jobs`` becomes one that a pool thread serves.  Backbone
shapes are those of the toy trainer (B = 50), of the last chunk of its
``train_map`` pass (B = 208), of ``wide-infer`` (B = 256) and a batch smaller
than the worker count.  The label kernels (per-class AP, decisions,
co-occurrence counts) run on shapes whose blocks two workers split unevenly,
with the block sizes patched small where the real ones would need large
inputs.  The thread budget itself is read from OpenBLAS when a process first
splits a kernel, so it is tested in fresh subprocesses.
"""

import json
import math
import os
import queue
import signal
import subprocess
import sys
import threading
import time
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import kssnet.autodiff as ad
from kssnet import graph, metrics, model, workers

import oracles
from test_ingest import annotation_set

SRC = Path(__file__).resolve().parent.parent / "src"

# (B, widths of the four stages): the toy trainer, wide-infer, one sample,
# three samples, which two workers split unevenly, and the toy's 208-sample
# train_map chunk, whose 2x2 stage is dense blocks of 128 and 80 samples.
BACKBONES = [(50, (16, 32, 64, 128)), (256, (32, 64, 128, 256)), (1, (16, 32, 64, 128)),
             (3, (16, 32, 64, 128)), (208, (16, 32, 64, 128))]


# The job queue of the one pool thread beside the caller when two workers are forced.
HELPER = queue.SimpleQueue()
threading.Thread(target=workers._serve, args=(HELPER,), daemon=True).start()


@pytest.fixture(params=[1, 2], ids=["one_worker", "two_workers"])
def n_workers(request, monkeypatch):
    return _with_workers(monkeypatch, request.param, lambda: request.param)


def _with_workers(monkeypatch, n, fn=lambda: None):
    monkeypatch.setattr(workers, "_jobs", HELPER)
    monkeypatch.setattr(workers, "_size", n)
    return fn()


def _stage(x, w, b, g):
    """Conv then fused pool, and every gradient, for an upstream ``g`` at the pool."""
    xt, wt, bt = (ad.Tensor(a, requires_grad=True) for a in (x, w, b))
    conv = ad.conv2d(xt, wt, bt)
    pooled = ad.avg_pool2d(conv)
    ad.tsum(ad.mul(pooled, ad.Tensor(g))).backward()
    return [conv.data, pooled.data, conv.grad, xt.grad, wt.grad, bt.grad]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch,widths", BACKBONES,
                         ids=["toy", "wide", "one", "three", "toy_chunk"])
def test_backbone_stages_give_the_same_bits_with_one_or_two_workers(
        batch, widths, dtype, monkeypatch):
    rng = np.random.default_rng(batch)
    side, c_in = 16, 3
    for c_out in widths:  # 16x16, 8x8 and 4x4 through im2col, 2x2 through the dense GEMM
        x = rng.normal(size=(batch, side, side, c_in)).astype(dtype)
        w = rng.normal(0, 0.3, size=(c_out, c_in, 3, 3)).astype(dtype)
        b = rng.normal(size=c_out).astype(dtype)
        g = rng.normal(size=(batch, side // 2, side // 2, c_out)).astype(dtype)
        one, two = (_with_workers(monkeypatch, n, lambda: _stage(x, w, b, g))
                    for n in (1, 2))
        for name, a, c in zip(["conv", "pool", "conv grad", "x grad", "w grad", "b grad"],
                              one, two):
            assert a.dtype == dtype
            assert np.array_equal(a, c), f"{name} differs at {x.shape} -> {c_out}"
        side, c_in = side // 2, c_out


def _spy_on_run(monkeypatch):
    """Record ``(n, sorted share ranges)`` of every ``workers.run`` call.

    The ranges that a pool thread ran are recorded too, in a second list.
    """
    run, calls, handed_off, caller = workers.run, [], [], threading.get_ident()

    def spy(share, n, min_share=1, scratch=lambda: None):
        spans = []

        def recorded(lo, hi, buffers):
            spans.append((lo, hi))
            if threading.get_ident() != caller:
                handed_off.append((lo, hi))
            share(lo, hi, buffers)

        buffers = run(recorded, n, min_share, scratch)
        calls.append((n, sorted(spans)))
        return buffers

    monkeypatch.setattr(workers, "run", spy)
    return calls, handed_off


@pytest.mark.parametrize("batch,blocks", [(256, 2), (208, 2), (129, 2), (128, 1), (50, 1)])
def test_the_2x2_forward_is_dealt_out_in_blocks_of_128_samples(batch, blocks, n_workers,
                                                                monkeypatch):
    # With two workers each of two blocks is one worker's, so the bit test
    # above covers a real split of the dense GEMM at 256 and 208 samples.
    calls, _ = _spy_on_run(monkeypatch)
    x = np.ones((batch, 2, 2, 128), np.float32)
    w, b = np.ones((256, 128, 3, 3), np.float32), np.zeros(256, np.float32)
    ad.conv2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b))
    shares = [(k, k + 1) for k in range(blocks)] if n_workers == 2 else [(0, blocks)]
    assert calls == [(blocks, shares)]


def _label_case(rows, n_labels, seed=0):
    """Scores on a grid of 0.1, so scores and positives tie, and 0/1 targets.

    Class 3 has no positive.  A few scores of each column sit inside the
    logit band of the sigmoid rule at t = 0.3, where ``decide`` evaluates
    the sigmoid.
    """
    rng = np.random.default_rng(seed)
    scores = np.round(rng.normal(size=(rows, n_labels)), 1)
    z = math.log(0.3) - math.log1p(-0.3)
    band = [z, np.nextafter(z, -np.inf), np.nextafter(z, np.inf), z - 5e-7, z + 5e-7]
    scores[rng.integers(0, rows, 5 * n_labels), np.repeat(np.arange(n_labels), 5)] = \
        np.tile(band, n_labels)
    targets = (rng.random((rows, n_labels)) < 0.3).astype(np.int8)
    targets[:, 3] = 0
    return scores, targets


DECISIONS = [("sigmoid", 0.5), ("sigmoid", 0.3), ("score", 0.1), ("top_k", 3), ("top_k", 7)]


def test_label_metrics_give_the_same_bits_with_one_or_two_workers(monkeypatch):
    # 37 classes are 5 blocks of 8 and 301 rows 19 blocks of 16: two
    # workers take 2 and 3, and 9 and 10
    monkeypatch.setattr(metrics, "_DECIDE_BLOCK_ROWS", 16)
    scores, targets = _label_case(301, 37)
    kth = np.sort(scores, axis=1)[:, -3, None]
    assert np.any(np.count_nonzero(scores >= kth, axis=1) > 3)  # top_k rows tied at the k-th
    z = math.log(0.3) - math.log1p(-0.3)
    assert np.count_nonzero(abs(scores - z) <= 1e-6) >= 37  # scores inside the sigmoid band

    def label_pass():
        out = [metrics.per_class_ap(scores, targets), metrics.map_score(scores, targets)]
        for rule in DECISIONS:
            out += [metrics.decide(scores, rule), metrics.prf_suite(scores, targets, rule)]
        return out

    one, two = (_with_workers(monkeypatch, n, label_pass) for n in (1, 2))
    assert np.isnan(one[0][3]) and np.isnan(two[0][3])
    assert np.array_equal(one[0], two[0], equal_nan=True)
    for a, c in zip(one[1:], two[1:]):
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, c)
        else:
            assert repr(a) == repr(c)  # floats and PrfResults, bit for bit


def test_cooccurrence_counts_give_the_same_bits_with_one_or_two_workers(monkeypatch):
    # 53 samples are 11 blocks of 5, which two workers take as 5 and 6
    monkeypatch.setattr(graph, "_COOC_BLOCK_ROWS", 5)
    samples = oracles.random_annotation_samples(np.random.default_rng(2), 7, 53)
    ann = annotation_set(7, samples)
    one, two = (_with_workers(monkeypatch, n, lambda: graph.cooccurrence_counts(ann))
                for n in (1, 2))
    m_ref, counts_ref = oracles.cooccurrence_oracle(samples, 7)
    for m, counts in (one, two):
        assert m.dtype == counts.dtype == np.int64
        assert np.array_equal(m, m_ref) and np.array_equal(counts, counts_ref)


def _label_kernel(kernel, size):
    if kernel == "map_score":  # size classes of 20 samples
        scores, targets = _label_case(20, size)
        targets[0] = 1
        return lambda: metrics.map_score(scores, targets)
    if kernel == "decide":  # size rows of 4 classes
        scores = np.random.default_rng(1).normal(size=(size, 4))
        return lambda: metrics.decide(scores, ("top_k", 2))
    ann = annotation_set(3, [(f"s{i}", frozenset({i % 3})) for i in range(size)])
    return lambda: graph.cooccurrence_counts(ann)


@pytest.mark.parametrize("kernel,size,blocks", [
    ("map_score", 80, 10), ("map_score", 9, 2), ("map_score", 8, 1),
    ("decide", 2 * 4096 + 1, 3), ("decide", 4096, 1),
    ("cooccurrence_counts", 2 * 8192 + 1, 3), ("cooccurrence_counts", 8192, 1),
])
def test_label_kernels_deal_out_whole_blocks_and_keep_one_on_the_caller(
        kernel, size, blocks, n_workers, monkeypatch):
    # Blocks of 8 classes, 4096 score rows and 8192 samples.  One block, such
    # as the toy model's 8 labels in its per-epoch mAP, is no handoff at all.
    calls, handed_off = _spy_on_run(monkeypatch)
    _label_kernel(kernel, size)()
    if blocks == 1:
        assert calls == [(1, [(0, 1)])] and handed_off == []
    else:
        half = blocks // 2
        shares = [(0, half), (half, blocks)] if n_workers == 2 else [(0, blocks)]
        assert calls == [(blocks, shares)]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_adam_step_gives_the_same_bits_with_one_or_two_workers(dtype, monkeypatch):
    def step():
        net = model.KssModel(np.eye(8), 8, 16, seed=3, dtype=dtype)
        opt = model.Adam(net.named_parameters(), model.TrainConfig(gcn_lr=0.003))
        rng = np.random.default_rng(4)
        for _ in range(2):
            for _, p in net.named_parameters():
                p.grad = rng.normal(size=p.data.shape).astype(p.data.dtype)
            opt.step()
        assert opt._data.size >= 2 * model._ADAM_SHARE  # two shares
        return [opt._data, opt._m, opt._v]

    one, two = (_with_workers(monkeypatch, n, step) for n in (1, 2))
    for a, c in zip(one, two):
        assert np.array_equal(a, c)


@pytest.mark.parametrize("raising", [0, 1], ids=["caller", "pool_thread"])
def test_a_share_that_raises_reaches_the_caller_after_every_share(raising, monkeypatch):
    _with_workers(monkeypatch, 2)
    finished = []

    def share(lo, hi, _):
        if lo == raising:
            raise KeyError(lo)
        time.sleep(0.05)
        finished.append(lo)

    with pytest.raises(KeyError):
        workers.run(share, 2)
    assert finished == [1 - raising]


class _Interrupt(Exception):
    pass


def test_an_interrupted_wait_lets_the_share_finish_before_the_next_run(monkeypatch):
    # The pool thread's share sends SIGINT to the caller while the caller
    # waits for it; the caller stops waiting, the share runs on.
    _with_workers(monkeypatch, 2)
    finished = threading.Event()

    def share(lo, hi, _):
        if lo:
            time.sleep(0.05)  # the caller is waiting by now
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            time.sleep(0.2)
            finished.set()

    def interrupt(signum, frame):
        raise _Interrupt

    previous = signal.signal(signal.SIGINT, interrupt)
    try:
        with pytest.raises(_Interrupt):
            workers.run(share, 2)
    finally:
        signal.signal(signal.SIGINT, previous)
    assert not finished.is_set()
    spans = []
    workers.run(lambda lo, hi, _: (time.sleep(0.05 * lo), spans.append((lo, hi))), 2)
    assert finished.is_set()  # the next run's share queued behind the stale one
    assert sorted(spans) == [(0, 1), (1, 2)]  # and was waited for


def test_an_interrupted_queueing_leaves_the_pool_serving(monkeypatch):
    # The second put raises: the first pool share is queued and waited for,
    # the caller's share never runs, and the thread serves the next run.
    def put(job):
        puts.append(job)
        if len(puts) == 2:
            raise _Interrupt
        HELPER.put(job)

    puts, done, spans = [], [], []
    _with_workers(monkeypatch, 3)
    monkeypatch.setattr(workers, "_jobs", types.SimpleNamespace(put=put))
    with pytest.raises(_Interrupt):
        workers.run(lambda lo, hi, _: (time.sleep(0.05), done.append(lo)), 3)
    assert done == [1]
    workers.run(lambda lo, hi, _: spans.append((lo, hi)), 3)
    assert sorted(spans) == [(0, 1), (1, 2), (2, 3)]


def test_shares_cover_the_range_at_most_one_apart(n_workers):
    for n, min_share in [(0, 1), (1, 1), (7, 1), (50, 16), (50, 32), (5, 2)]:
        ranges = []
        workers.run(lambda lo, hi, _: ranges.append((lo, hi)), n, min_share)
        ranges.sort()
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert len(ranges) == max(1, min(n_workers, n // min_share))
        assert max(hi - lo for lo, hi in ranges) - min(hi - lo for lo, hi in ranges) <= 1


@pytest.mark.parametrize("n,min_share", [(7, 1), (7, 4), (1, 1)])
def test_scratch_runs_on_the_caller_once_per_range_before_any_share(n, min_share, n_workers):
    # Each buffer is a list that records the ranges it was given; 7 items in
    # shares of at least 4, or 1 item, make one range even with two workers.
    events, caller = [], threading.get_ident()

    def scratch():
        events.append(("scratch", threading.get_ident() == caller))
        return []

    def share(lo, hi, own):
        events.append(("share", lo))
        own.append((lo, hi))

    buffers = workers.run(share, n, min_share, scratch)
    count = max(1, min(n_workers, n // min_share))
    cuts = [n * k // count for k in range(count + 1)]
    assert buffers == [[(lo, hi)] for lo, hi in zip(cuts, cuts[1:])]
    assert events[:count] == [("scratch", True)] * count
    assert sorted(events[count:]) == [("share", lo) for lo in cuts[:-1]]


def test_the_pool_thread_lets_go_of_its_share_before_the_run_returns(monkeypatch):
    # The share's array and its buffers die where the caller drops them, not
    # when the pool thread takes its next job, at a moment that thread timing sets.
    _with_workers(monkeypatch, 2)
    block = np.zeros(8)
    gone = weakref.ref(block)
    sizes = []
    buffers = workers.run(lambda lo, hi, own, block=block: sizes.append(block[lo:hi].size), 2,
                          scratch=lambda: np.zeros(1))
    buffers_gone = [weakref.ref(own) for own in buffers]
    del block, buffers
    assert sizes == [1, 1] and gone() is None
    assert [ref() for ref in buffers_gone] == [None, None]


def test_callers_in_several_threads_take_turns(monkeypatch):
    # Each call records its shares under its own key; a share run twice, lost
    # or run for another call breaks the cover of its range.
    _with_workers(monkeypatch, 2)
    covered = {}

    def caller(key):
        for n in range(1, 40):
            spans = covered.setdefault((key, n), [])
            workers.run(lambda lo, hi, _: spans.extend(range(lo, hi)), n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(key,), daemon=True)
                   for key in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(sorted(spans) == list(range(n)) for (_, n), spans in covered.items())
    assert len(covered) == 4 * 39


def test_a_pool_share_runs_in_the_callers_error_state(n_workers):
    # A window of +inf and -inf sums to NaN; it lies in the last sample, which
    # the pool thread pools when there are two workers.
    x = np.ones((8, 16, 16, 64))
    x[-1, 0, 0, 0], x[-1, 0, 1, 0] = np.inf, -np.inf
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        ad.avg_pool2d(ad.Tensor(x))
    with np.errstate(invalid="ignore"):
        assert np.isnan(ad.avg_pool2d(ad.Tensor(x)).data[-1, 0, 0, 0])


def test_a_conv_share_runs_in_the_callers_error_state(n_workers):
    # An infinite output plus a bias of -inf is NaN, in the last sample only;
    # its block of 16 samples is the pool thread's when there are two workers.
    x = np.ones((40, 8, 8, 2))
    x[-1] = np.inf
    w, b = np.ones((3, 2, 3, 3)), np.full(3, -np.inf)
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        ad.conv2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b))


_BUDGET_SCRIPT = """
import hashlib, json, threading
import numpy as np
import kssnet.autodiff as ad
from kssnet import model, workers

before = threading.active_count()
rng = np.random.default_rng(0)
x = ad.Tensor(rng.normal(size=(6, 8, 8, 3)).astype(np.float32), requires_grad=True)
w = ad.Tensor(rng.normal(size=(16, 3, 3, 3)).astype(np.float32), requires_grad=True)
b = ad.Tensor(np.zeros(16, np.float32), requires_grad=True)
out = ad.conv2d(x, w, b)
ad.tsum(out).backward()
net = model.KssModel(np.eye(8), 8, 16, dtype="float32")
for _, p in net.named_parameters():
    p.grad = np.ones_like(p.data)
opt = model.Adam(net.named_parameters(), model.TrainConfig())
opt.step()
digest = hashlib.sha256()
for a in (out.data, x.grad, w.grad, b.grad, opt._data, opt._m, opt._v):
    digest.update(a.tobytes())
print(json.dumps({"threads": threading.active_count() - before, "workers": workers._size,
                  "blas": workers._openblas()[0](), "sha": digest.hexdigest()}))
"""

_LABEL_SCRIPT = """
import json
import numpy as np
from kssnet import graph, metrics, synthetic, workers

data = synthetic.make_dataset(n_train=200, n_val=0, seed=1)
graph.build_ks_graph(data.annotations, data.knowledge_edges)
rng = np.random.default_rng(0)
targets = (rng.random((300, 8)) < 0.3).astype(float)
metrics.prf_suite(rng.normal(size=(300, 8)), targets, ("top_k", 3))
print(json.dumps({"blas": workers._openblas()[0](), "pool": workers._size == 0}))
"""


def _in_subprocess(script: str, blas_threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_budget_is_the_blas_thread_count_and_spends_no_more():
    one, two = _in_subprocess(_BUDGET_SCRIPT, 1), _in_subprocess(_BUDGET_SCRIPT, 2)
    assert (one["threads"], one["workers"], one["blas"]) == (0, 1, 1)
    assert (two["threads"], two["workers"], two["blas"]) == (1, 2, 1)
    assert one["sha"] == two["sha"]


def test_a_label_only_pass_leaves_blas_its_threads():
    assert _in_subprocess(_LABEL_SCRIPT, 2) == {"blas": 2, "pool": True}


_GRADCHECK_SCRIPT = """
import json
from kssnet import checks, workers

errors = checks.run_standard_checks(0)
print(json.dumps({"errors": [f"{err:.3e}" for err in errors.values()],
                  "blas": workers._openblas()[0](), "pool": workers._size == 0}))
"""


def test_a_model_too_small_to_split_leaves_blas_its_threads():
    # gradcheck's model: two 8x8 images, so no kernel makes two ranges
    assert _in_subprocess(_GRADCHECK_SCRIPT, 2) == {
        "errors": ["1.647e-10", "4.108e-08", "9.050e-11"], "blas": 2, "pool": True}


_SPLIT_LABEL_SCRIPT = """
import json, threading
import numpy as np
from kssnet import metrics, workers

before = threading.active_count()
rng = np.random.default_rng(0)
metrics.per_class_ap(rng.normal(size=(50, 9)), rng.random((50, 9)) < 0.5)
print(json.dumps({"blas": workers._openblas()[0](), "workers": workers._size,
                  "threads": threading.active_count() - before}))
"""


def test_a_label_pass_of_two_blocks_builds_the_pool():
    assert _in_subprocess(_SPLIT_LABEL_SCRIPT, 2) == {"blas": 1, "workers": 2, "threads": 1}
