"""The code names that ``tools/bench_pairs.py`` writes into a BENCH file, and its benchmark check."""

import hashlib
import json
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _checkout(root: Path, files: dict[str, bytes]) -> Path:
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def test_source_digest_hashes_sorted_paths_sizes_and_bytes(tmp_path):
    checkout = _checkout(tmp_path, {"src/pkg/b.py": b"two", "src/a.py": b"one",
                                    "src/pkg/__pycache__/b.pyc": b"cache", "README": b"x"})
    want = hashlib.sha256(b"src/a.py\0" b"3\0" b"one" b"src/pkg/b.py\0" b"3\0" b"two")
    assert bench_pairs.source_digest(checkout) == want.hexdigest()


def test_source_digest_changes_with_bytes_or_names(tmp_path):
    digests = {bench_pairs.source_digest(_checkout(tmp_path / name, files))
               for name, files in {"base": {"src/a.py": b"ab", "src/b.py": b""},
                                   "edited": {"src/a.py": b"ac", "src/b.py": b""},
                                   "moved": {"src/a.py": b"a", "src/b.py": b"b"},
                                   "renamed": {"src/c.py": b"ab", "src/b.py": b""}}.items()}
    assert len(digests) == 4


def test_git_head_is_none_outside_a_work_tree(tmp_path):
    assert bench_pairs.git_head(_checkout(tmp_path, {"src/a.py": b""})) is None


def test_source_digest_takes_files_and_directories_as_roots(tmp_path):
    checkout = _checkout(tmp_path, {"bench/run.py": b"r", "BENCHMARK.json": b"{}",
                                    "src/a.py": b"a"})
    want = hashlib.sha256(b"BENCHMARK.json\0" b"2\0" b"{}" b"bench/run.py\0" b"1\0" b"r")
    assert bench_pairs.source_digest(checkout, bench_pairs.BENCH_FILES) == want.hexdigest()


def test_different_benchmarks_exit_2_before_any_run(tmp_path, monkeypatch, capsys):
    files = {"bench/run.py": b"r", "BENCHMARK.json": b"{}", "src/a.py": b"a"}
    parent = _checkout(tmp_path / "parent", files)
    change = _checkout(tmp_path / "change", {**files, "bench/run.py": b"edited"})

    def no_run(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs, "run", no_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--workload", "toy-train", "--seeds", "1", "--out", str(out)]) == 2
    assert "different bench or BENCHMARK.json" in capsys.readouterr().err
    assert not out.exists()


def test_host_records_the_thread_limit_set_before_the_run(tmp_path, monkeypatch):
    # bench/run.py reads blas_threads after the run, when the worker pool has
    # set OpenBLAS to one thread; thread_limit is the budget the run started with.
    spec = b'{"end_to_end": [{"name": "fastest_step_s", "better": "lower"}]}'
    files = {"bench/run.py": b"r", "BENCHMARK.json": spec, "src/a.py": b"a"}
    parent = _checkout(tmp_path / "parent", files)
    change = _checkout(tmp_path / "change", files)
    env = {"nproc": 2, "python": "3.11", "numpy": "2.4", "blas": "scipy-openblas 0.3",
           "blas_threads": 1, "thread_limit": 2}

    def stub(checkout, workload, seed, seconds, trace):
        return {"env": env, "correct": True, "metrics": {"fastest_step_s": seed / 100}}

    monkeypatch.setattr(bench_pairs, "run", stub)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--workload", "toy-train", "--seeds", "1-2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["host"] == {"nproc": 2, "python": "3.11", "numpy": "2.4",
                              "blas": "scipy-openblas 0.3", "thread_limit": 2}


def test_traced_pairs_pass_the_flag_and_summarise_the_per_layer_metrics(tmp_path, monkeypatch):
    spec = json.dumps({
        "end_to_end": [{"name": "fastest_step_s", "better": "lower"}],
        "per_layer": [{"name": "ingest.load_annotations_s", "better": "lower"},
                      {"name": "trace.steps", "better": "higher"}]}).encode()
    files = {"bench/run.py": b"r", "BENCHMARK.json": spec, "src/a.py": b"a"}
    parent = _checkout(tmp_path / "parent", files)
    change = _checkout(tmp_path / "change", files)
    env = {"nproc": 2, "python": "3.11", "numpy": "2.4", "blas": "b", "thread_limit": 2}
    traces = []

    def stub(checkout, workload, seed, seconds, trace):
        traces.append(trace)
        faster = 0.5 if checkout == change else 1.0
        return {"env": env, "correct": True,
                "metrics": {"ingest.load_annotations_s": faster * (10 + seed), "trace.steps": 8}}

    monkeypatch.setattr(bench_pairs, "run", stub)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workload",
                             "coco-labels", "--seeds", "1-4", "--seconds", "20", "--trace", "1",
                             "--out", str(out)]) == 0
    assert traces == [1] * 8
    report = json.loads(out.read_text())
    assert report["command"].endswith("--seconds 20 --trace 1")
    assert sorted(report["summary"]) == ["ingest.load_annotations_s", "trace.steps"]
    layer = report["summary"]["ingest.load_annotations_s"]
    assert (layer["better"], layer["pairs_won"], layer["pairs_lost"]) == ("lower", 4, 0)
    assert layer["gap_exceeds_parent_iqr"]
    steps = report["summary"]["trace.steps"]
    assert (steps["better"], steps["pairs_won"], steps["pairs_lost"]) == ("higher", 0, 0)
