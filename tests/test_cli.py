import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import kssnet
import kssnet.autodiff as ad
from kssnet import checks, cli, storage

from test_model import v2_checkpoint


@pytest.fixture
def toy_files(tmp_path):
    """Vocabulary, annotations, and knowledge edges for a 4-label toy corpus."""
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("dog\ncat\nball\ntennis racket\n")
    ann = tmp_path / "ann.txt"
    ann.write_text(
        "img0 dog cat\nimg1 dog\nimg2 ball tennis_racket\nimg3 ball\n"
        "img4 dog cat ball\nimg5 tennis_racket ball\n"
    )
    edges = tmp_path / "edges.tsv"
    edges.write_text(
        "ball\tused for\ttennis racket\t0.8\ndog\trelated to\tcat\t0.6\n"
        "dog\tis a\tunicorn\t1.0\n"
    )
    return {"vocab": vocab, "annotations": ann, "knowledge": edges}


def run(argv):
    return cli.main(argv)


def train(tmp_path, text, name="m"):
    """Run ``train-toy`` on a config holding ``text``; returns the config and checkpoint paths."""
    cfg, ckpt = tmp_path / f"{name}.cfg", tmp_path / f"{name}.ckpt"
    cfg.write_text(text)
    assert run(["train-toy", "--config", str(cfg), "--checkpoint", str(ckpt),
                "--history", str(tmp_path / f"{name}.csv")]) == 0
    return cfg, ckpt


class TestBuildGraph:
    def base_args(self, toy_files, tmp_path, **extra):
        args = [
            "build-graph",
            "--vocab", str(toy_files["vocab"]),
            "--annotations", str(toy_files["annotations"]),
            "--knowledge", str(toy_files["knowledge"]),
            "--out", str(tmp_path / "a.txt"),
        ]
        for key, value in extra.items():
            args += [key, value]
        return args

    def test_success_with_image_dataset_settings(self, toy_files, tmp_path, capsys):
        code = run(self.base_args(toy_files, tmp_path,
                                  **{"--lambda": "0.4", "--tau": "0.02", "--eta": "0.4"}))
        assert code == 0
        out = capsys.readouterr().out
        assert "lambda=0.4" in out and "tau=0.02" in out and "eta=0.4" in out
        assert "nnz=" in out and "dropped_knowledge_records=1" in out
        assert (tmp_path / "a.txt").exists() and (tmp_path / "a.txt.norm").exists()

    def test_success_with_video_dataset_settings(self, toy_files, tmp_path):
        code = run(self.base_args(toy_files, tmp_path,
                                  **{"--lambda": "0.6", "--tau": "0.03", "--eta": "0.4"}))
        assert code == 0

    def test_flag_range_violation_names_flag(self, toy_files, tmp_path, capsys):
        code = run(self.base_args(toy_files, tmp_path, **{"--lambda": "1.5"}))
        assert code == 1
        assert "--lambda" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, toy_files, tmp_path, capsys):
        code = run(self.base_args(toy_files, tmp_path) + ["--bogus", "1"])
        assert code == 1

    def test_missing_file_is_validation_error(self, toy_files, tmp_path, capsys):
        args = self.base_args(toy_files, tmp_path)
        args[args.index("--vocab") + 1] = str(tmp_path / "nope.txt")
        assert run(args) == 1
        assert "--vocab" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--annotations", "--vocab", "--knowledge"])
    def test_invalid_utf8_names_file(self, toy_files, tmp_path, capsys, flag):
        path = toy_files[flag[2:]]
        data = path.read_bytes()
        path.write_bytes(data[:14] + b"\xff" + data[14:])
        assert run(self.base_args(toy_files, tmp_path)) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: not UTF-8 text" in err and "byte 14" in err

    def test_duplicate_vocabulary_label_names_file(self, toy_files, tmp_path, capsys):
        toy_files["vocab"].write_text("dog\ncat\nball\ncat\n")
        assert run(self.base_args(toy_files, tmp_path)) == 1
        assert f"error: {toy_files['vocab']}: duplicate label 'cat'" in capsys.readouterr().err

    def test_outputs_bit_identical_across_runs(self, toy_files, tmp_path):
        args = self.base_args(toy_files, tmp_path)
        assert run(args) == 0
        first = (tmp_path / "a.txt").read_bytes()
        first_norm = (tmp_path / "a.txt.norm").read_bytes()
        assert run(args) == 0
        assert (tmp_path / "a.txt").read_bytes() == first
        assert (tmp_path / "a.txt.norm").read_bytes() == first_norm

    def test_summary_json_round_trips_settings(self, toy_files, tmp_path):
        import json

        summary_path = tmp_path / "summary.json"
        args = self.base_args(toy_files, tmp_path,
                              **{"--lambda": "0.4", "--tau": "0.02", "--eta": "0.4",
                                 "--summary-json": str(summary_path)})
        assert run(args) == 0
        summary = json.loads(summary_path.read_text())
        assert (summary["lambda"], summary["tau"], summary["eta"]) == (0.4, 0.02, 0.4)

    def test_edge_count_matches_edge_set(self, toy_files, tmp_path, capsys):
        assert run(self.base_args(toy_files, tmp_path)) == 0
        out = capsys.readouterr().out
        reported = int([l for l in out.splitlines() if l.startswith("nnz=")][0].split("=")[1])
        a = storage.load_matrix_text(tmp_path / "a.txt")
        assert reported == np.count_nonzero(a)


class TestInspect:
    def test_inspect_text(self, toy_files, tmp_path, capsys):
        out_path = tmp_path / "a.txt"
        run(["build-graph", "--vocab", str(toy_files["vocab"]),
             "--annotations", str(toy_files["annotations"]),
             "--knowledge", str(toy_files["knowledge"]), "--out", str(out_path)])
        capsys.readouterr()
        assert run(["inspect", "--graph", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "n=4" in out and "symmetric=" in out

    @pytest.mark.parametrize("text", [
        "2\n1 0\n0 1\n",  # the retired single-N header
        "2 3\n1 0 0\n0 1 0\n",  # not square
        "2 2\n1 -1\n0 1\n",  # negative weight
        "2 2\n1 nan\n0 1\n",  # not finite
        "2 2\n1 x\n0 1\n",  # not a number
        "0 0\n",  # empty
    ])
    def test_invalid_text_adjacency_names_file(self, tmp_path, capsys, text):
        path = tmp_path / "a.txt"
        path.write_text(text)
        assert run(["inspect", "--graph", str(path)]) == 1
        assert str(path) in capsys.readouterr().err

    def test_invalid_utf8_names_file(self, tmp_path, capsys):
        path = tmp_path / "a.txt"
        path.write_bytes(b"2 2\n1\xff0\n0 1\n")
        assert run(["inspect", "--graph", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: not UTF-8 text" in err and "byte 5" in err

    def test_module_entry_point_runs_the_cli(self, tmp_path):
        src = str(Path(kssnet.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-m", "kssnet.cli", "inspect", "--graph", str(tmp_path / "nope")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert "--graph" in proc.stderr


class TestGradcheck:
    def test_default_seed_passes(self, capsys):
        assert run(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == ["gcn_layer", "lc", "full_model"]
        assert out.count("ok") == 3

    def test_corrupted_backward_fails(self, capsys, monkeypatch):
        # a negative control: a perturbed reverse-mode gradient must fail the check
        build = checks.gcn_layer_check

        def corrupted(seed):
            tensors, loss = build(seed)

            def perturbed():  # the loss itself, with every gradient scaled by 1.01
                out = loss()
                return ad._node(out.data, (out,), lambda g: (g * 1.01,))

            return tensors, perturbed

        monkeypatch.setattr(checks, "gcn_layer_check", corrupted)
        assert run(["gradcheck", "--seed", "0"]) == 1
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("gcn_layer max_rel_err=") and first.endswith(" FAIL")

    def test_output_deterministic_per_seed(self, capsys):
        run(["gradcheck", "--seed", "7"])
        first = capsys.readouterr().out
        run(["gradcheck", "--seed", "7"])
        assert capsys.readouterr().out == first


class TestEvaluate:
    def test_perfect_scores_print_100(self, tmp_path, capsys):
        targets = np.array([[1, 0], [0, 1], [1, 1]], dtype=float)
        scores = np.where(targets == 1, 9.0, -9.0)
        storage.save_matrix_text(scores, tmp_path / "s.txt")
        storage.save_matrix_text(targets, tmp_path / "t.txt")
        assert run(["evaluate", "--scores", str(tmp_path / "s.txt"),
                    "--targets", str(tmp_path / "t.txt")]) == 0
        row = capsys.readouterr().out.splitlines()[1].split()
        assert row == ["100.0"] * 7

    def test_labels_without_positives_are_noted_naming_the_targets_file(self, tmp_path,
                                                                         capsys):
        # map_score leaves them out; the note goes to stderr, the table to stdout
        targets = np.array([[1, 0, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        storage.save_matrix_text(np.where(targets == 1, 9.0, -9.0), tmp_path / "s.txt")
        storage.save_matrix_text(targets, tmp_path / "t.txt")
        assert run(["evaluate", "--scores", str(tmp_path / "s.txt"),
                    "--targets", str(tmp_path / "t.txt")]) == 0
        out, err = capsys.readouterr()
        assert err == (f"{tmp_path / 't.txt'}: the target matrix has no positive for 1 of 3 "
                       "labels; its mAP leaves them out\n")
        assert out.splitlines()[1].split()[0] == "100.0"

    def _matrix_error(self, tmp_path, capsys, scores, targets) -> str:
        storage.save_matrix_text(np.array(scores), tmp_path / "s.txt")
        storage.save_matrix_text(np.array(targets), tmp_path / "t.txt")
        assert run(["evaluate", "--scores", str(tmp_path / "s.txt"),
                    "--targets", str(tmp_path / "t.txt")]) == 1
        return capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_name_the_scores_file(self, tmp_path, capsys, bad):
        err = self._matrix_error(tmp_path, capsys, [[bad, 0.0], [1.0, 0.0]], [[1, 0], [0, 1]])
        assert f"{tmp_path / 's.txt'}: scores must be finite" in err

    def test_shape_mismatch_rejected(self, tmp_path, capsys):
        err = self._matrix_error(tmp_path, capsys, np.zeros((3, 2)), np.zeros((2, 2)))
        assert f"scores (3, 2) in {tmp_path / 's.txt'} vs targets (2, 2) in " \
               f"{tmp_path / 't.txt'}" in err

    def test_non_binary_targets_name_the_targets_file(self, tmp_path, capsys):
        err = self._matrix_error(tmp_path, capsys, [[0.0, 1.0]], [[0.3, 1.0]])
        assert f"{tmp_path / 't.txt'}: entries must be 0 or 1" in err

    def test_targets_without_any_positive_name_the_targets_file(self, tmp_path, capsys):
        err = self._matrix_error(tmp_path, capsys, [[0.0, 1.0], [2.0, 3.0]], np.zeros((2, 2)))
        assert err == (f"error: {tmp_path / 't.txt'}: the target matrix has no positive label, "
                       "so its mAP is undefined\n")

    def test_missing_checkpoint_rejected(self, tmp_path, capsys):
        assert run(["evaluate", "--checkpoint", str(tmp_path / "none.ckpt")]) == 1
        assert f"--checkpoint: no such file: {tmp_path / 'none.ckpt'}" in capsys.readouterr().err

    def test_truncated_checkpoint_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "m.ckpt"
        storage.save_checkpoint(path, {"epochs": "0"}, {"adjacency": np.eye(3)})
        path.write_bytes(path.read_bytes()[:-30])
        assert run(["evaluate", "--checkpoint", str(path)]) == 1
        assert (f"error: {path}: CRC mismatch: the file is damaged or truncated"
                in capsys.readouterr().err)

    def test_unrepresentable_checkpoint_shape_is_validation_error(self, tmp_path, capsys):
        # an empty tensor whose other two dimensions overflow numpy's size
        path = tmp_path / "m.ckpt"
        path.write_bytes(v2_checkpoint(b"", struct.pack("<IH", 1, 1) + b"a"
                                       + struct.pack("<B3I", 3, 0, 2 ** 32 - 1, 2 ** 32 - 1)))
        assert run(["evaluate", "--checkpoint", str(path)]) == 1
        assert f"error: {path}: tensor 'a'" in capsys.readouterr().err

    def test_version_1_checkpoint_rejected(self, tmp_path, capsys):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"KSNTCKPT" + struct.pack("<IIH", 1, 1, 1) + b"a"
                         + struct.pack("<Bd", 0, 1.0))
        assert run(["evaluate", "--checkpoint", str(path)]) == 1
        assert f"error: {path}: unsupported checkpoint version 1\n" in capsys.readouterr().err

    def test_invalid_utf8_config_names_file(self, tmp_path, capsys):
        # the checkpoint's config section
        path = tmp_path / "m.ckpt"
        path.write_bytes(v2_checkpoint(b"epochs = 1\nn_train = 4\xff0\n", struct.pack("<I", 0)))
        assert run(["evaluate", "--checkpoint", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: config: 'utf-8' codec can't decode byte 0xff in position 22" \
            in err

    def test_config_parse_error_names_file(self, tmp_path, capsys):
        # the checkpoint's config section
        path = tmp_path / "m.ckpt"
        path.write_bytes(v2_checkpoint(b"epochs = 1\nnonsense\n", struct.pack("<I", 0)))
        assert run(["evaluate", "--checkpoint", str(path)]) == 1
        assert (f"error: {path}: config: line 2: expected 'key = value'"
                in capsys.readouterr().err)

    def test_top_k_decision_flag(self, tmp_path, capsys):
        targets = np.array([[1, 0], [0, 1]], dtype=float)
        scores = np.where(targets == 1, 9.0, -9.0)
        storage.save_matrix_text(scores, tmp_path / "s.txt")
        storage.save_matrix_text(targets, tmp_path / "t.txt")
        assert run(["evaluate", "--scores", str(tmp_path / "s.txt"),
                    "--targets", str(tmp_path / "t.txt"), "--decision", "top_k:1"]) == 0

    def test_flags_of_both_modes_rejected(self, tmp_path, capsys):
        targets = np.array([[1, 0], [0, 1]], dtype=float)
        storage.save_matrix_text(targets, tmp_path / "s.txt")
        storage.save_matrix_text(targets, tmp_path / "t.txt")
        for matrices in [
            ["--scores", str(tmp_path / "s.txt"), "--targets", str(tmp_path / "t.txt")],
            ["--targets", str(tmp_path / "t.txt")],
        ]:
            assert run(["evaluate", *matrices, "--checkpoint", str(tmp_path / "m.ckpt")]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert ("error: evaluate: --scores/--targets cannot be combined with --checkpoint"
                    in captured.err)

    def test_bad_decision_flag(self, tmp_path, capsys):
        targets = np.array([[1, 0], [0, 1]], dtype=float)
        storage.save_matrix_text(targets, tmp_path / "s.txt")
        storage.save_matrix_text(targets, tmp_path / "t.txt")
        for spec, message in [
            ("argmax", "--decision must be sigmoid:T, score:T, or top_k:K, got 'argmax'"),
            ("sigmoid:1.5", "--decision sigmoid:T must lie in [0, 1], got 1.5"),
            ("sigmoid:-0.2", "--decision sigmoid:T must lie in [0, 1], got -0.2"),
            ("sigmoid:nan", "--decision sigmoid:T must lie in [0, 1], got nan"),
            ("score:nan", "--decision score:T must be finite, got nan"),
            ("score:-inf", "--decision score:T must be finite, got -inf"),
            ("top_k:-1", "--decision top_k:K must be >= 0, got -1"),
        ]:
            assert run(["evaluate", "--scores", str(tmp_path / "s.txt"),
                        "--targets", str(tmp_path / "t.txt"), "--decision", spec]) == 1, spec
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"error: {message}\n" in captured.err


class TestTrainAndEvaluate:
    def test_train_writes_history_and_checkpoint(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "epochs = 2\nbatch_size = 32\nn_train = 96\nn_val = 32\n"
            "stage_channels = 8,16\ngcn_depth = 2\nembed_dim = 8\nseed = 1\n"
        )
        ckpt = tmp_path / "toy.ckpt"
        hist = tmp_path / "hist.csv"
        assert run(["train-toy", "--config", str(cfg), "--checkpoint", str(ckpt),
                    "--history", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "final_train_map=" in out and "final_val_map=" in out
        lines = hist.read_text().splitlines()
        assert lines[0] == "epoch,loss,map"
        assert len(lines) == 3
        assert ckpt.exists()

        # history is append-only: rerunning adds rows instead of truncating
        assert run(["train-toy", "--config", str(cfg), "--checkpoint", str(ckpt),
                    "--history", str(hist)]) == 0
        assert len(hist.read_text().splitlines()) == 5

        capsys.readouterr()
        assert run(["evaluate", "--checkpoint", str(ckpt)]) == 0
        header = capsys.readouterr().out.splitlines()[0].split()
        assert header == ["mAP", "CP", "CR", "CF1", "OP", "OR", "OF1"]

    def test_checkpoint_stores_the_run(self, tmp_path, capsys):
        text = "epochs = 1\nn_train = 16\nn_val = 8\nembed_dim = 4\nstage_channels = 2,2,4,4\n"
        _, ckpt = train(tmp_path, "# a comment\n" + text + "lc = no # no lateral connections\n")
        config, tensors = storage.load_checkpoint(ckpt)
        assert config == {"dtype": "float32", **storage.parse_config_text(text), "lc": "no"}
        _, model, _ = cli._toy_setup(config, ckpt)
        assert set(tensors) == set(model.state_dict()) | {"adjacency"}
        npt.assert_array_equal(tensors["adjacency"], model.adjacency.data)

    def test_config_alone_sets_training_and_evaluation(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs = 0\nn_train = 16\nn_val = 8\nembed_dim = 8\n"
                       "seed = 5\nstage_channels = 8,16,32,64\n")
        ckpt = tmp_path / "m.ckpt"
        assert run(["train-toy", "--config", str(cfg), "--checkpoint", str(ckpt),
                    "--history", str(tmp_path / "h.csv")]) == 0
        out = capsys.readouterr().out
        assert "stage_channels=8,16,32,64" in out and "seed=5" in out
        assert run(["evaluate", "--checkpoint", str(ckpt)]) == 0

    def test_config_flag_of_evaluate_rejected(self, tmp_path, capsys):
        # the weights of a KS-graph run cannot be scored on the identity graph
        cfg, ckpt = train(tmp_path, "epochs = 1\nn_train = 16\nn_val = 8\nembed_dim = 4\n"
                                    "stage_channels = 2,2,4,4\n")
        identity = tmp_path / "identity.cfg"
        identity.write_text(cfg.read_text() + "eta = 0\n")
        capsys.readouterr()
        assert run(["evaluate", "--checkpoint", str(ckpt), "--config", str(identity)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --config {identity}" in captured.err

    @pytest.mark.parametrize("extra, message", [
        ({"dtype": "float16"}, "dtype"),
        ({"lc": "ture"}, "lc"),
        ({"n_train": "abc"}, "n_train"),
        ({"stage_channels": "16,x"}, "stage_channels"),
        ({"dropout": "1.5"}, "dropout"),
        ({"lr": "nan"}, "lr must be positive and finite, got nan"),
        ({"gcn_lr": "inf"}, "gcn_lr must be positive and finite, got inf"),
        ({"weight_decay": "nan"}, "weight_decay must be >= 0 and finite, got nan"),
        ({"weight_decay": "-5"}, "weight_decay must be >= 0 and finite, got -5.0"),
        ({"noise": "nan"}, "noise must be finite, got nan"),
        ({"noise": "1e300"}, "noise and weak_amp make images of magnitude 4.02e+300, "
                             "which overflow float32"),
        ({"weak_amp": "1e300"}, "noise and weak_amp make images of magnitude 1e+300, "
                                "which overflow float32"),
        ({"image_size": "24"}, "image_size = 24 is not divisible by 2 ** 4"),
        ({"stage_channels": "0,0,0,0"}, "stage_channels must all be >= 1, got (0, 0, 0, 0)"),
        ({"n_train": "0"}, "n_train = '0': expected an integer >= 1"),
        ({"n_val": "0"}, "n_val = '0': expected an integer >= 1"),
        ({"stop_at_train_map": "nan"}, "stop_at_train_map must lie in [0, 1], got nan"),
        ({"seed": "-1"}, "seed = '-1': expected an integer >= 0"),
        ({"data_seed": "-1"}, "data_seed = '-1': expected an integer >= 0"),
        ({"image_size": "-16"}, "image_size = '-16': expected an integer >= 1"),
        ({"embed_dim": "-1"}, "embed_dim = '-1': expected an integer >= 1"),
    ], ids=["dtype", "lc", "n_train", "stage_channels", "dropout", "lr-nan", "gcn_lr-inf",
            "weight_decay-nan", "weight_decay-negative", "noise-nan", "noise-overflow",
            "weak_amp-overflow", "image_size-24",
            "stage_channels-zero", "n_train-zero", "n_val-zero", "stop_at_train_map-nan",
            "seed-negative", "data_seed-negative", "image_size-negative", "embed_dim-negative"])
    def test_unknown_dtype_is_validation_error(self, tmp_path, capsys, extra, message):
        cfg = tmp_path / "c.cfg"
        settings = {"epochs": "0", "n_train": "16", "n_val": "8", **extra}
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        assert run(["train-toy", "--config", str(cfg), "--checkpoint",
                    str(tmp_path / "m.ckpt"), "--history", str(tmp_path / "h.csv")]) == 1
        assert f"error: {cfg}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_unwritable_checkpoint_path_fails_before_training(self, tmp_path, capsys):
        cfg, hist = tmp_path / "c.cfg", tmp_path / "h.csv"
        cfg.write_text("epochs = 1\nn_train = 16\nn_val = 8\nstage_channels = 2,2,4,4\n")
        missing = tmp_path / "missing"
        for checkpoint, message in [(missing / "m.ckpt", f"no such directory: {missing}"),
                                    (tmp_path, f"is a directory: {tmp_path}")]:
            assert run(["train-toy", "--config", str(cfg), "--checkpoint", str(checkpoint),
                        "--history", str(hist)]) == 1
            captured = capsys.readouterr()
            assert f"error: --checkpoint: {message}\n" in captured.err
            assert captured.out == "" and not hist.exists()

    def test_invalid_utf8_config_names_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"epochs = 1\nn_train = 4\xff0\n")
        assert run(["train-toy", "--config", str(cfg), "--checkpoint", str(tmp_path / "m.ckpt"),
                    "--history", str(tmp_path / "h.csv")]) == 1
        err = capsys.readouterr().err
        assert f"error: {cfg}: not UTF-8 text" in err and "byte 22" in err

    def test_config_parse_error_names_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs = 1\nnonsense\n")
        assert run(["train-toy", "--config", str(cfg), "--checkpoint", str(tmp_path / "m.ckpt"),
                    "--history", str(tmp_path / "h.csv")]) == 1
        assert f"error: {cfg}: line 2: expected 'key = value'" in capsys.readouterr().err

    def test_checkpoint_state_error_names_checkpoint(self, tmp_path, capsys):
        # checkpoints rewritten with a config key that changes the model, not the graph
        _, ckpt = train(tmp_path, "epochs = 0\nn_train = 16\nn_val = 8\n")
        config, tensors = storage.load_checkpoint(ckpt)
        capsys.readouterr()
        for key, value, message in [
            ("stage_channels", "8,16,32,64", "backbone.stage0.conv.weight: shape"),
            ("lc", "false", "state mismatch: missing [], unexpected ['lc."),
        ]:
            storage.save_checkpoint(ckpt, {**config, key: value}, tensors)
            assert run(["evaluate", "--checkpoint", str(ckpt)]) == 1
            assert f"error: {ckpt}: {message}" in capsys.readouterr().err

    def test_graph_drift_is_validation_error(self, tmp_path, capsys):
        _, ckpt = train(tmp_path, "epochs = 0\nn_train = 16\nn_val = 8\nembed_dim = 4\n"
                                  "stage_channels = 2,2,4,4\n")
        config, tensors = storage.load_checkpoint(ckpt)
        assert run(["evaluate", "--checkpoint", str(ckpt)]) == 0
        doctored = tensors["adjacency"].copy()
        doctored[0, 1] += 2.0 ** -20
        capsys.readouterr()
        for stored_config, stored in [
            (config, {**tensors, "adjacency": doctored}),  # a doctored adjacency
            ({**config, "eta": "0"}, tensors),  # a config that builds another graph
            (config, {name: t for name, t in tensors.items() if name != "adjacency"}),
        ]:
            storage.save_checkpoint(ckpt, stored_config, stored)
            assert run(["evaluate", "--checkpoint", str(ckpt)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert (f"error: {ckpt}: its config no longer builds the adjacency it trained with"
                    in captured.err)

    def test_every_byte_change_is_validation_error(self, tmp_path, capsys):
        # the first 140 bytes (header, config, first tensor name), then every 61st
        _, ckpt = train(tmp_path, "epochs = 0\nn_train = 16\nn_val = 8\nembed_dim = 4\n"
                                  "stage_channels = 2,2,4,4\n")
        blob = ckpt.read_bytes()
        capsys.readouterr()
        for pos in sorted({*range(140), *range(140, len(blob), 61), len(blob) - 1}):
            ckpt.write_bytes(blob[:pos] + bytes([blob[pos] ^ 0x5A]) + blob[pos + 1:])
            assert run(["evaluate", "--checkpoint", str(ckpt)]) == 1, pos
            assert capsys.readouterr().err.startswith(f"error: {ckpt}: "), pos

    @pytest.mark.parametrize("command", ["train-toy", "evaluate"])
    def test_unknown_config_key_names_file_and_key(self, tmp_path, capsys, command):
        # evaluate reads the config a checkpoint stores
        cfg, ckpt = tmp_path / "c.cfg", tmp_path / "m.ckpt"
        cfg.write_text("epochs = 1\nepoch = 1\nn_train = 16\nn_val = 8\nlamda = 0.5\n")
        if command == "train-toy":
            argv, path = ["--config", str(cfg), "--history", str(tmp_path / "h.csv")], cfg
        else:
            storage.save_checkpoint(ckpt, storage.load_config(cfg), {})
            argv, path = [], ckpt
        assert run([command, "--checkpoint", str(ckpt), *argv]) == 1
        assert f"error: {path}: unknown config key(s): epoch, lamda" in capsys.readouterr().err
        assert not (tmp_path / "h.csv").exists()

    @pytest.mark.parametrize("extra_key, flags, message", [
        ("", ["--seed", "5"], "unrecognized arguments: --seed 5"),
        ("", ["--channel-divisor", "32"], "unrecognized arguments: --channel-divisor 32"),
        ("graph = identity\n", [], "unknown config key(s): graph"),
    ], ids=["seed-flag", "channel-divisor-flag", "graph-key"])
    def test_removed_spellings_rejected(self, tmp_path, capsys, extra_key, flags, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs = 0\nn_train = 16\nn_val = 8\n" + extra_key)
        assert run(["train-toy", "--config", str(cfg), "--checkpoint",
                    str(tmp_path / "m.ckpt"), "--history", str(tmp_path / "h.csv"),
                    *flags]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_splits_with_labels_without_positives_are_noted_once(self, tmp_path, capsys):
        # data_seed 0 leaves one label out of the 4 training samples and four
        # out of the validation sample; two epochs still note each split once
        text = ("n_train = 4\nn_val = 1\ndata_seed = 0\nepochs = 2\nembed_dim = 4\n"
                "stage_channels = 2,2,4,4\n")
        cfg, ckpt = train(tmp_path, text)
        assert len((tmp_path / "m.csv").read_text().splitlines()) == 3  # header, two epochs
        notes = ["the training split (n_train = 4) has no positive for 1 of 8 labels; "
                 "its mAP leaves them out",
                 "the validation split (n_val = 1) has no positive for 4 of 8 labels; "
                 "its mAP leaves them out"]
        assert capsys.readouterr().err.splitlines() == [f"{cfg}: {note}" for note in notes]
        assert run(["evaluate", "--checkpoint", str(ckpt)]) == 0
        assert capsys.readouterr().err.splitlines() == [f"{ckpt}: {note}" for note in notes]

    @pytest.mark.parametrize("sizes, split", [
        ("n_train = 1\nn_val = 4\ndata_seed = 42\n", "training split (n_train = 1)"),
        ("n_train = 4\nn_val = 1\ndata_seed = 2\n", "validation split (n_val = 1)"),
    ], ids=["train", "val"])
    def test_split_without_positive_label_fails_at_set_up(self, tmp_path, capsys, sizes,
                                                          split):
        text = sizes + "epochs = 1\nembed_dim = 4\nstage_channels = 2,2,4,4\n"
        cfg, ckpt, hist = tmp_path / "c.cfg", tmp_path / "m.ckpt", tmp_path / "h.csv"
        cfg.write_text(text)
        assert run(["train-toy", "--config", str(cfg), "--checkpoint", str(ckpt),
                    "--history", str(hist)]) == 1
        message = f"the {split} has no positive label, so its mAP is undefined\n"
        assert f"error: {cfg}: {message}" in capsys.readouterr().err
        assert not hist.exists() and not ckpt.exists()
        # evaluate rebuilds the same splits from the config a checkpoint stores
        ckpt.write_bytes(v2_checkpoint(text.encode(), struct.pack("<I", 0)))
        assert run(["evaluate", "--checkpoint", str(ckpt)]) == 1
        assert f"error: {ckpt}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        ("lr = 1e30", "non-finite scores after epoch 1"),
    ], ids=["lr"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_validation_error(self, tmp_path, capsys, extra, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"n_train = 20\nepochs = 1\nstage_channels = 4,4,4,4\n{extra}\n")
        assert run(["train-toy", "--config", str(cfg), "--checkpoint",
                    str(tmp_path / "m.ckpt"), "--history", str(tmp_path / "h.csv")]) == 1
        assert f"error: {cfg}: training diverged: {message}" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()


class TestEmbed:
    def test_embed_writes_matrix(self, tmp_path, capsys):
        vocab = tmp_path / "v.txt"
        vocab.write_text("sports ball\ndog\n")
        table = tmp_path / "emb.txt"
        table.write_text("sports 2.0 0.0\nball 0.0 2.0\ndog 1.0 1.0\n")
        out = tmp_path / "e0.txt"
        assert run(["embed", "--table", str(table), "--vocab", str(vocab),
                    "--out", str(out)]) == 0
        e0 = storage.load_matrix_text(out)
        npt.assert_array_equal(e0, [[1.0, 1.0], [1.0, 1.0]])
        assert "labels=2" in capsys.readouterr().out

    def test_unresolved_label_is_validation_error(self, tmp_path, capsys):
        vocab = tmp_path / "v.txt"
        vocab.write_text("dog\nunicorn\n")
        table = tmp_path / "emb.txt"
        table.write_text("dog 1.0\n")
        assert run(["embed", "--table", str(table), "--vocab", str(vocab),
                    "--out", str(tmp_path / "e.txt")]) == 1
        err = capsys.readouterr().err
        assert f"error: {table}: label 'unicorn': no word found" in err
        assert not (tmp_path / "e.txt").exists()


class TestHelp:
    @pytest.mark.parametrize("command", [
        "build-graph", "inspect", "gradcheck", "train-toy", "evaluate", "embed",
    ])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run([command, "--help"])
        assert excinfo.value.code == 0
        assert "--" in capsys.readouterr().out
