import json
from dataclasses import fields

import numpy as np
import pytest
import yaml

from pan4d import cli
from pan4d.cli import main
from pan4d.clustering import ClusterParams
from pan4d.config import RunConfig
from pan4d.volume import VolumeConfig

from conftest import CAR, PERSON


SCENE = {
    "name": "00",
    "n_scans": 12,
    "seed": 21,
    "objects": [
        {"class": CAR, "points": 60, "sigma": 0.3, "start": [12, 0, 6],
         "velocity": [0.4, 0, 0]},
        {"class": PERSON, "points": 40, "sigma": 0.2, "start": [-12, 8, 6],
         "velocity": [0, -0.3, 0]},
    ],
    "background": {"class": 40, "points": 300, "extent": 40.0},
    "noise_sigma": 0.01,
    "ego": {"velocity": [0.2, 0, 0]},
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "scene.yaml"
    spec_path.write_text(yaml.safe_dump(SCENE))
    data_dir = root / "data"
    assert main(["synth", "--spec", str(spec_path), "--out", str(data_dir)]) == 0
    return root, data_dir


def run_pipeline(data_dir, out_dir, seed="0"):
    return main([
        "run",
        "--data", str(data_dir),
        "--sequences", "00",
        "--out", str(out_dir),
        "--config", str(data_dir / "classes.yaml"),
        "--strategy", "importance",
        "--tau", "4",
        "--feature-mode", "emb",
        "--seed", seed,
    ])


class TestEndToEnd:
    def test_synth_layout(self, dataset):
        root, data_dir = dataset
        assert (data_dir / "00" / "velodyne" / "000000.bin").exists()
        assert (data_dir / "00" / "labels" / "000011.label").exists()
        assert (data_dir / "00" / "fields" / "000005.p4de").exists()
        assert (data_dir / "00" / "poses.txt").exists()
        assert (data_dir / "classes.yaml").exists()

    def test_run_then_evaluate(self, dataset, capsys, tmp_path):
        root, data_dir = dataset
        out_dir = tmp_path / "pred"
        assert run_pipeline(data_dir, out_dir) == 0
        printed = capsys.readouterr().out
        assert "sequence 00" in printed
        assert (out_dir / "00" / "predictions" / "000011.label").exists()

        report_path = tmp_path / "report.txt"
        code = main([
            "evaluate",
            "--gt", str(data_dir),
            "--pred", str(out_dir),
            "--sequences", "00",
            "--config", str(data_dir / "classes.yaml"),
            "--report", str(report_path),
        ])
        assert code == 0
        assert report_path.exists()
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["s_assoc"] >= 0.95
        assert data["s_cls"] >= 0.99

    def test_repeated_runs_byte_identical(self, dataset, tmp_path):
        root, data_dir = dataset
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_pipeline(data_dir, out_a, seed="5") == 0
        assert run_pipeline(data_dir, out_b, seed="5") == 0
        for i in range(SCENE["n_scans"]):
            fa = out_a / "00" / "predictions" / f"{i:06d}.label"
            fb = out_b / "00" / "predictions" / f"{i:06d}.label"
            assert fa.read_bytes() == fb.read_bytes()

    def test_results_independent_of_thread_count(self, tmp_path):
        data_dir = tmp_path / "data"
        for name in ("00", "01"):
            scene = dict(SCENE, name=name, n_scans=6, seed=30 + int(name))
            spec = tmp_path / f"scene{name}.yaml"
            spec.write_text(yaml.safe_dump(scene))
            assert main(["synth", "--spec", str(spec), "--out", str(data_dir)]) == 0

        outs = {}
        for threads, out in (("1", tmp_path / "t1"), ("2", tmp_path / "t2")):
            code = main([
                "run", "--data", str(data_dir), "--sequences", "00,01",
                "--out", str(out), "--config", str(data_dir / "classes.yaml"),
                "--strategy", "importance", "--tau", "3",
                "--feature-mode", "emb", "--seed", "4", "--threads", threads,
            ])
            assert code == 0
            outs[threads] = out
        for seq in ("00", "01"):
            for i in range(6):
                fa = outs["1"] / seq / "predictions" / f"{i:06d}.label"
                fb = outs["2"] / seq / "predictions" / f"{i:06d}.label"
                assert fa.read_bytes() == fb.read_bytes()


class TestCombine:
    def test_reported_pair(self, capsys):
        assert main(["evaluate", "--combine", "0.6511", "0.6046"]) == 0
        assert capsys.readouterr().out.strip() == "0.6274"

    def test_second_reported_pair(self, capsys):
        assert main(["evaluate", "--combine", "0.5879", "0.6095"]) == 0
        assert capsys.readouterr().out.strip() == "0.5986"

    @pytest.mark.parametrize("a, b, shown", [
        ("2", "0.5", "2.0"),
        ("nan", "0.5", "nan"),
        ("-1", "0.5", "-1.0"),
    ])
    def test_score_outside_unit_interval_exits_one(self, a, b, shown, capsys):
        assert main(["evaluate", "--combine", a, b]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert shown in captured.err


class TestCheckGradients:
    def test_all_losses_pass(self, capsys):
        assert main(["check-gradients", "--seed", "3", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out


class TestInspect:
    def test_inspect_label_file(self, dataset, capsys):
        root, data_dir = dataset
        path = data_dir / "00" / "labels" / "000000.label"
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "400 points" in out
        assert f"{CAR}:60" in out

    def test_inspect_scan(self, dataset, capsys):
        root, data_dir = dataset
        assert main(["inspect", str(data_dir / "00" / "velodyne" / "000000.bin")]) == 0
        assert "400 points" in capsys.readouterr().out

    def test_inspect_sidecar(self, dataset, capsys):
        root, data_dir = dataset
        assert main(["inspect", str(data_dir / "00" / "fields" / "000000.p4de")]) == 0
        assert "embedding dim 3" in capsys.readouterr().out

    def test_inspect_sequence_dir(self, dataset, capsys):
        root, data_dir = dataset
        assert main(["inspect", str(data_dir / "00")]) == 0
        assert "12 scans" in capsys.readouterr().out


class TestExitCodes:
    def test_validation_failure_is_one(self, dataset, tmp_path):
        root, data_dir = dataset
        code = main([
            "run",
            "--data", str(data_dir),
            "--sequences", "00",
            "--out", str(tmp_path / "x"),
            "--config", str(data_dir / "classes.yaml"),
            "--strategy", "base",
            "--tau", "4",  # base requires tau = 1
        ])
        assert code == 1

    def test_io_failure_is_two(self, tmp_path):
        code = main([
            "evaluate",
            "--gt", str(tmp_path / "nowhere"),
            "--pred", str(tmp_path / "nowhere"),
            "--sequences", "00",
            "--config", str(tmp_path / "missing.yaml"),
            "--report", str(tmp_path / "r.txt"),
        ])
        assert code == 2

    def test_unknown_inspect_target_is_one(self, tmp_path):
        target = tmp_path / "file.xyz"
        target.write_text("")
        assert main(["inspect", str(target)]) == 1

    def test_non_finite_sidecar_is_two(self, tmp_path, capsys):
        from pan4d.clustering import write_cluster_fields

        path = tmp_path / "x.p4de"
        write_cluster_fields(path, np.ones((3, 2)), np.array([0.5, np.nan, 0.2]),
                             np.ones((3, 2)))
        assert main(["inspect", str(path)]) == 2
        assert "objectness" in capsys.readouterr().err

    def test_missing_required_evaluate_args(self):
        assert main(["evaluate"]) == 1

    @pytest.mark.parametrize("argv", [
        ["run", "--bogus"],
        ["run", "--tau"],
        ["evaluate", "--combine", "1"],
        [],
    ])
    def test_usage_error_exits_one(self, argv, capsys):
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "--window-stride" in capsys.readouterr().out


CLASS_MAP = {"classes": [CAR, PERSON, 40], "things": [CAR, PERSON], "ignore": [0]}

# (key, flag value, parsed value): one non-default setting per run parameter;
# a flag value of None marks a store_true flag
PARAM_CASES = [
    ("strategy", "decay", "decay"),
    ("tau", "3", 3),
    ("fraction", "0.25", 0.25),
    ("stride", "3", 3),
    ("time_scale", "0.5", 0.5),
    ("max_points", "700", 700),
    ("assign_prob", "0.3", 0.3),
    ("seed_stop", "0.2", 0.2),
    ("min_points", "5", 5),
    ("normalized_pdf", None, True),
    ("feature_mode", "xyz", "xyz"),
    ("coord_variance", "2.0", 2.0),
    ("time_variance", "3.0", 3.0),
    ("assoc_iou", "0.4", 0.4),
    ("window_stride", "2", 2),
    ("seed", "7", 7),
    ("threads", "2", 2),
]
RUN_SCALARS = ("assoc_iou", "window_stride", "seed", "threads")


def _defaults():
    return {
        f.name: f.default
        for cls in (VolumeConfig, ClusterParams, RunConfig)
        for f in fields(cls)
        if cls is not RunConfig or f.name in RUN_SCALARS
    }


def _setting(cfg, key):
    for part in (cfg.volume, cfg.cluster, cfg):
        if hasattr(part, key):
            return getattr(part, key)
    raise AssertionError(f"no run parameter {key}")


def _flags(key, flag_value):
    flag = "--" + key.replace("_", "-")
    return [flag] if flag_value is None else [flag, flag_value]


@pytest.fixture
def run_config(monkeypatch, tmp_path):
    """Run `pan4d run` up to the per-sequence work: (exit code, RunConfig or None)."""
    seen = []

    def fake_sequence(name, seq_dir, out_root, cfg, seq_seed):
        seen.append(cfg)
        return name, {"scans": 0, "peak_volume_points": 0, "seconds": 0.0}, out_root

    monkeypatch.setattr(cli, "_run_one_sequence", fake_sequence)

    def run(file_data, *flags):
        seen.clear()
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({**CLASS_MAP, **file_data}))
        code = main(["run", "--data", str(tmp_path), "--out", str(tmp_path / "out"),
                     "--config", str(path), *flags])
        return code, (seen[0] if seen else None)

    return run


class TestRunParameters:
    def test_table_covers_every_parameter(self):
        assert {key for key, _, _ in PARAM_CASES} == set(_defaults())

    @pytest.mark.parametrize("key, flag_value, value", PARAM_CASES)
    def test_flag_sets_parameter(self, run_config, key, flag_value, value):
        code, cfg = run_config({}, *_flags(key, flag_value))
        assert code == 0
        assert _setting(cfg, key) == value

    @pytest.mark.parametrize("key, flag_value, value", PARAM_CASES)
    def test_file_key_sets_parameter(self, run_config, key, flag_value, value):
        code, cfg = run_config({key: value})
        assert code == 0
        assert _setting(cfg, key) == value

    @pytest.mark.parametrize("key, flag_value, value", PARAM_CASES)
    def test_flag_overrides_file(self, run_config, key, flag_value, value):
        code, cfg = run_config({key: _defaults()[key]}, *_flags(key, flag_value))
        assert code == 0
        assert _setting(cfg, key) == value

    def test_absent_parameters_keep_defaults(self, run_config):
        code, cfg = run_config({})
        assert code == 0
        assert {key: _setting(cfg, key) for key in _defaults()} == _defaults()

    @pytest.mark.parametrize("file_data, flags, key", [
        ({}, ["--strategy", "bogus"], "strategy"),
        ({}, ["--feature-mode", "nope"], "feature_mode"),
        ({}, ["--tau", "abc"], "tau"),
        ({}, ["--coord-variance", "inf"], "coord_variance"),
        ({}, ["--seed", "-1"], "seed"),
        ({"tau": "x"}, [], "tau"),
        ({"tau": 2.5}, [], "tau"),
        ({"seed_stop": "x"}, [], "seed_stop"),
        ({"normalized_pdf": "no"}, [], "normalized_pdf"),
        ({"fracton": 0.2}, [], "fracton"),
    ])
    def test_bad_value_or_key_exits_one(self, run_config, capsys, file_data, flags, key):
        code, cfg = run_config(file_data, *flags)
        assert code == 1
        assert cfg is None
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("class_map, key", [
        ({"classes": ["car"]}, "classes"),
        ({"classes": 10}, "classes"),
        ({"things": [CAR, "person"]}, "things"),
        ({"ignore": [0.5]}, "ignore"),
        ({"names": {"car": "car"}}, "names"),
        ({"names": ["car"]}, "names"),
    ])
    def test_bad_class_map_exits_one(self, run_config, tmp_path, capsys, class_map, key):
        code, cfg = run_config(class_map)
        assert (code, cfg) == (1, None)
        assert key in capsys.readouterr().err
        path = tmp_path / "classes.yaml"
        path.write_text(yaml.safe_dump({**CLASS_MAP, **class_map}))
        code = main(["evaluate", "--gt", str(tmp_path), "--pred", str(tmp_path),
                     "--config", str(path), "--report", str(tmp_path / "r.txt")])
        assert code == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("file_data, flags", [
        ({}, ["--strategy", "thing", "--max-points", "-5"]),
        ({"strategy": "thing", "max_points": -1}, []),
    ])
    def test_negative_max_points_exits_one(self, run_config, capsys, file_data, flags):
        code, cfg = run_config(file_data, *flags)
        assert (code, cfg) == (1, None)
        assert "max_points" in capsys.readouterr().err

    def test_window_stride_beyond_tau_exits_one(self, dataset, tmp_path, capsys):
        root, data_dir = dataset
        code = main([
            "run", "--data", str(data_dir), "--sequences", "00",
            "--out", str(tmp_path / "x"), "--config", str(data_dir / "classes.yaml"),
            "--tau", "2", "--window-stride", "3",
        ])
        assert code == 1
        assert "window_stride" in capsys.readouterr().err
        assert not (tmp_path / "x" / "00" / "predictions").exists()
