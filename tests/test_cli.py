import json
import shlex
import shutil
import struct
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from pan4d import cli, kitti_io
from pan4d.cli import main
from pan4d.clustering import ClusterParams, read_cluster_fields, write_cluster_fields
from pan4d.config import RunConfig
from pan4d.errors import InvariantError
from pan4d.kitti_io import PanopticLabels
from pan4d.metrics import EvalConfig, evaluate
from pan4d.volume import VolumeConfig

from conftest import CAR, PERSON, count_field_checks


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


def _readme_block(readme, heading, lang):
    """The first ```lang block after the heading line of README.md."""
    rest = readme.split(f"\n{heading}\n", 1)[1]
    return rest.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


class TestReadmeCommands:
    def test_command_block_runs(self, tmp_path, monkeypatch, capsys):
        # every pan4d line of the README's command block, on its scene spec
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        (tmp_path / "scene.yaml").write_text(_readme_block(readme, "### Scene spec (synth)",
                                                           "yaml"))
        monkeypatch.chdir(tmp_path)
        lines = _readme_block(readme, "## Command line", "bash").replace("\\\n", " ")
        commands = [line for line in lines.splitlines() if line.startswith("pan4d ")]
        assert len(commands) == 6
        printed = {}
        for line in commands:
            argv = shlex.split(line, comments=True)
            assert main(argv[1:]) == 0, line
            out = capsys.readouterr().out
            if "# prints " in line:
                printed[line.split("# prints ")[1].strip()] = out.strip()
        assert printed == {"0.6274": "0.6274"}


def spoil_last_sidecar(seq_dir, how):
    """Break the last scan's sidecar so the run fails only at that scan:
    a NaN embedding (an io error, exit 2) or one point too few (exit 1)."""
    path = sorted((seq_dir / "fields").iterdir())[-1]
    cf = read_cluster_fields(path)
    emb, obj, var = cf.embeddings.copy(), cf.objectness, cf.variances
    if how == "nan":
        emb[-1, 0] = np.nan
    else:
        emb, obj, var = emb[:-1], obj[:-1], var[:-1]
    write_cluster_fields(path, emb, obj, var)


class TestFailedRunLeavesNoOutput:
    """Label files are written as scans become final, and a run that fails
    removes every label file and predictions/ directory it made."""

    @pytest.fixture
    def spoiled(self, dataset, tmp_path):
        _, data_dir = dataset
        copy = tmp_path / "data"
        shutil.copytree(data_dir, copy)
        return copy

    def run(self, data_dir, out, sequences="00", threads="1"):
        return main([
            "run", "--data", str(data_dir), "--sequences", sequences, "--out", str(out),
            "--config", str(data_dir / "classes.yaml"), "--strategy", "importance",
            "--tau", "4", "--feature-mode", "emb", "--threads", threads,
        ])

    @pytest.mark.parametrize("how, code", [("nan", 2), ("short", 1)])
    def test_failure_at_last_scan_removes_written_scans(self, spoiled, tmp_path, how, code,
                                                        monkeypatch):
        written = []
        write = cli.kitti_io.write_labels
        monkeypatch.setattr(cli.kitti_io, "write_labels",
                            lambda labels, path: (written.append(path), write(labels, path)))
        spoil_last_sidecar(spoiled / "00", how)
        out = tmp_path / "out"
        assert self.run(spoiled, out) == code
        # the scans before the bad one were written while the run went on
        assert len(written) == SCENE["n_scans"] - 1
        assert not (out / "00" / "predictions").exists()

    def test_earlier_output_directory_is_kept(self, spoiled, tmp_path):
        pred_dir = tmp_path / "out" / "00" / "predictions"
        pred_dir.mkdir(parents=True)
        (pred_dir / "notes.txt").write_text("kept")
        spoil_last_sidecar(spoiled / "00", "short")
        assert self.run(spoiled, tmp_path / "out") == 1
        assert [p.name for p in pred_dir.iterdir()] == ["notes.txt"]

    def test_earlier_predictions_are_kept_whole(self, spoiled, tmp_path):
        out = tmp_path / "out"
        assert self.run(spoiled, out) == 0
        pred_dir = out / "00" / "predictions"
        before = {p.name: p.read_bytes() for p in pred_dir.iterdir()}
        assert len(before) == SCENE["n_scans"]
        spoil_last_sidecar(spoiled / "00", "short")
        assert self.run(spoiled, out) == 1
        assert {p.name: p.read_bytes() for p in pred_dir.iterdir()} == before

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_sequence_removes_the_others_output(self, tmp_path, threads):
        data_dir = tmp_path / "data"
        for name in ("00", "01"):
            spec = tmp_path / f"scene{name}.yaml"
            spec.write_text(yaml.safe_dump(dict(SCENE, name=name, n_scans=5)))
            assert main(["synth", "--spec", str(spec), "--out", str(data_dir)]) == 0
        spoil_last_sidecar(data_dir / "01", "short")
        out = tmp_path / "out"
        assert self.run(data_dir, out, "00,01", threads) == 1
        assert not list(out.rglob("predictions"))


def _edit_poses(seq, edit):
    path = seq / "poses.txt"
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))


def _last(directory):
    return sorted(directory.iterdir())[-1]


def _write_then_break_invariant(monkeypatch):
    write = kitti_io.write_labels

    def write_then_fail(labels, path):
        write(labels, path)
        raise InvariantError("a label write broke an invariant")

    monkeypatch.setattr(kitti_io, "write_labels", write_then_fail)


def _double_embeddings(path):
    """Rewrite a sidecar with its embeddings and variances repeated side by side."""
    cf = read_cluster_fields(path)
    write_cluster_fields(path, np.hstack([cf.embeddings] * 2), cf.objectness,
                         np.hstack([cf.variances] * 2))


def _set_sidecar_version(path, version):
    body = path.read_bytes()
    path.write_bytes(body[:4] + struct.pack("<I", version) + body[8:])


def _drop_config_key(path, key):
    config = yaml.safe_load(path.read_text())
    del config[key]
    path.write_text(yaml.safe_dump(config))


# case -> (command, fault, exit code, message): fault(seq, pred, monkeypatch)
# spoils the copy of sequence 00 at seq, or its predictions at pred
FILE_FAULTS = {
    "run-no-fields-dir": (
        "run", lambda seq, pred, mp: shutil.rmtree(seq / "fields"), 2, "no fields/"),
    "run-no-labels-dir": (
        "run", lambda seq, pred, mp: shutil.rmtree(seq / "labels"), 2, "no labels/"),
    "run-label-size-not-multiple-of-4": (
        "run", lambda seq, pred, mp: _last(seq / "labels").write_bytes(b"\0" * 7), 2,
        "not a multiple of 4"),
    "run-non-numeric-pose": (
        "run", lambda seq, pred, mp: _edit_poses(seq, lambda ls: ["x" + ls[0][1:], *ls[1:]]),
        2, "could not convert"),
    "run-fewer-label-files-than-scans": (
        "run", lambda seq, pred, mp: _last(seq / "labels").unlink(), 2, "11 label files"),
    "run-fewer-sidecars-than-scans": (
        "run", lambda seq, pred, mp: _last(seq / "fields").unlink(), 2, "11 fields files"),
    "run-fewer-poses-than-scans": (
        "run", lambda seq, pred, mp: _edit_poses(seq, lambda ls: ls[:-1]), 2, "only 11 poses"),
    "run-no-poses": (
        "run", lambda seq, pred, mp: (seq / "poses.txt").unlink(), 2, "no poses.txt"),
    "run-no-calib": (
        "run", lambda seq, pred, mp: (seq / "calib.txt").unlink(), 2, "no calib.txt"),
    "run-mixed-embedding-dims": (
        "run", lambda seq, pred, mp: _double_embeddings(seq / "fields" / "000001.p4de"), 1,
        "scan 0 has 3-d embeddings and scan 1 6-d"),
    "run-invariant-broken": (
        "run", lambda seq, pred, mp: _write_then_break_invariant(mp), 3, "internal error"),
    "run-sidecar-truncated-header": (
        "run", lambda seq, pred, mp: (seq / "fields" / "000000.p4de").write_bytes(b"P4DE\1\0"),
        2, "truncated header"),
    "run-sidecar-version-2": (
        "run", lambda seq, pred, mp: _set_sidecar_version(seq / "fields" / "000000.p4de", 2),
        2, "unsupported version 2"),
    "evaluate-config-top-level-list": (
        "evaluate", lambda seq, pred, mp: (seq.parent / "classes.yaml").write_text("- 10\n"),
        1, "top level must be a mapping"),
    "evaluate-config-no-things": (
        "evaluate", lambda seq, pred, mp: _drop_config_key(seq.parent / "classes.yaml", "things"),
        1, "missing required key 'things'"),
    "evaluate-no-prediction-dir": (
        "evaluate", lambda seq, pred, mp: shutil.rmtree(pred), 2, "no predictions/"),
    "evaluate-no-gt-labels": (
        "evaluate", lambda seq, pred, mp: shutil.rmtree(seq / "labels"), 2,
        "missing ground-truth"),
    "evaluate-file-sets-differ": (
        "evaluate", lambda seq, pred, mp: _last(pred).unlink(), 2, "file sets differ"),
}


class TestFileFaults:
    """Each fault at the file boundary exits with its documented code, and
    the command leaves no file in its output directory."""

    @pytest.mark.parametrize("case", FILE_FAULTS)
    def test_exit_code_and_nothing_written(self, case, dataset, tmp_path, monkeypatch, capsys):
        command, fault, code, message = FILE_FAULTS[case]
        _, data_dir = dataset
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        pred = tmp_path / "pred" / "00" / "predictions"
        shutil.copytree(data / "00" / "labels", pred)
        fault(data / "00", pred, monkeypatch)
        out = tmp_path / "out"
        out.mkdir()
        argv = {
            "run": ["run", "--data", str(data), "--out", str(out), "--strategy", "importance",
                    "--tau", "4", "--feature-mode", "emb"],
            "evaluate": ["evaluate", "--gt", str(data), "--pred", str(tmp_path / "pred"),
                         "--report", str(out / "report.txt")],
        }[command]
        assert main([*argv, "--sequences", "00", "--config", str(data / "classes.yaml")]) == code
        assert message in capsys.readouterr().err
        assert [p for p in out.rglob("*") if p.is_file()] == []


class TestSequenceNames:
    """A sequence name is one plain path component, named once; any other
    exits 1 before a file is written."""

    def files(self, root):
        return sorted(p for p in root.rglob("*") if p.is_file())

    def main(self, command, root, names):
        if command == "run":
            argv = ["run", "--data", str(root / "data"), "--out", str(root / "out"),
                    "--feature-mode", "emb"]
        else:
            argv = ["evaluate", "--gt", str(root / "data"), "--pred", str(root / "data"),
                    "--report", str(root / "out" / "report.txt")]
        return main([*argv, "--config", str(root / "data" / "classes.yaml"), *names])

    @pytest.mark.parametrize("command", ["run", "evaluate"])
    @pytest.mark.parametrize("names", ["00,00", "../data/00", "..", "00/"])
    def test_flag_exits_one_and_writes_nothing(self, command, names, dataset, tmp_path,
                                               capsys):
        _, data_dir = dataset
        shutil.copytree(data_dir, tmp_path / "data")
        (tmp_path / "out").mkdir()
        before = self.files(tmp_path)
        assert self.main(command, tmp_path, ["--sequences", names]) == 1
        assert capsys.readouterr().err.startswith("error: sequences")
        assert self.files(tmp_path) == before

    @pytest.mark.parametrize("names", [["00", "00"], ["../data/00"], [0], "00,00"])
    def test_config_file_exits_one_and_writes_nothing(self, names, dataset, tmp_path, capsys):
        _, data_dir = dataset
        shutil.copytree(data_dir, tmp_path / "data")
        config = tmp_path / "data" / "classes.yaml"
        config.write_text(yaml.safe_dump({**yaml.safe_load(config.read_text()),
                                          "sequences": names}))
        before = self.files(tmp_path)
        assert self.main("run", tmp_path, []) == 1
        assert capsys.readouterr().err.startswith("error: sequences")
        assert self.files(tmp_path) == before


class TestFieldChecks:
    def test_four_scan_run_checks_fields_eight_times(self, tmp_path, monkeypatch):
        spec = tmp_path / "scene.yaml"
        spec.write_text(yaml.safe_dump(dict(SCENE, n_scans=4)))
        data = tmp_path / "data"
        assert main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
        calls = count_field_checks(monkeypatch)
        assert run_pipeline(data, tmp_path / "out") == 0
        # one per sidecar read, then one cluster_volume check per window
        assert len(calls) == 8

    def test_twelve_scan_run_checks_each_run_config_once(self, dataset, tmp_path, monkeypatch):
        _, data_dir = dataset
        calls = []
        for cls in (VolumeConfig, ClusterParams):
            check = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, check=check: (calls.append(type(self)), check(self)))
        assert run_pipeline(data_dir, tmp_path / "out") == 0
        assert len(list((tmp_path / "out" / "00" / "predictions").iterdir())) == 12
        assert calls == [VolumeConfig, ClusterParams]


class TestEvaluateConfigKeys:
    """`pan4d evaluate --config` takes the keys `pan4d run` takes, and no other."""

    def evaluate(self, data_dir, tmp_path, extra):
        class_map = yaml.safe_load((data_dir / "classes.yaml").read_text())
        path = tmp_path / "eval.yaml"
        path.write_text(yaml.safe_dump({**class_map, **extra}))
        return main(["evaluate", "--gt", str(data_dir), "--pred", str(data_dir),
                     "--sequences", "00", "--config", str(path),
                     "--report", str(tmp_path / "report.txt")])

    def test_misspelled_key_exits_one(self, dataset, tmp_path, capsys):
        _, data_dir = dataset
        assert self.evaluate(data_dir, tmp_path, {"pq_match_treshold": 0.7}) == 1
        assert "pq_match_treshold" in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()

    def test_run_keys_are_accepted(self, dataset, tmp_path):
        _, data_dir = dataset
        assert self.evaluate(data_dir, tmp_path, {"tau": 3, "strategy": "decay"}) == 0
        assert json.loads((tmp_path / "report.json").read_text())["lstq"] == 1.0

    def test_empty_class_set_exits_one(self, dataset, tmp_path, capsys):
        _, data_dir = dataset
        assert self.evaluate(data_dir, tmp_path, {"classes": [], "things": []}) == 1
        assert "classes" in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()

    def test_no_gt_tubes_warns_on_stderr(self, dataset, tmp_path, capsys):
        _, data_dir = dataset
        assert self.evaluate(data_dir, tmp_path, {"things": []}) == 0
        assert "warning: no ground-truth tubes" in capsys.readouterr().err


def write_two_sequences(root):
    """gt and pred label streams of sequences "a" (2 scans, pred exact) and
    "b" (3 scans, pred noisy), laid out as `pan4d evaluate` reads them."""
    rng = np.random.default_rng(4)
    streams = {"gt": {}, "pred": {}}
    for seq, n_scans, noise in (("a", 2, 0.0), ("b", 3, 0.4)):
        for side in streams:
            streams[side][seq] = []
        for i in range(n_scans):
            sem = rng.choice([CAR, PERSON, 40], size=60)
            inst = np.where(sem == 40, 0, 1 + (np.arange(60) >= 30))
            gt = PanopticLabels(semantic=sem, instance=inst)
            flip = rng.random(60) < noise
            pred = PanopticLabels(semantic=np.where(flip, 40, sem),
                                  instance=np.where(flip, 0, inst + 6))
            for side, labels, sub in (("gt", gt, "labels"), ("pred", pred, "predictions")):
                (root / side / seq / sub).mkdir(parents=True, exist_ok=True)
                kitti_io.write_labels(labels, root / side / seq / sub / f"{i:06d}.label")
                streams[side][seq].append(labels)
    return streams


class TestEvaluateConfigEvalKeys:
    """`pq_match_threshold` and `per_sequence` in a class map reach the report."""

    CLASS_MAP = {"classes": [CAR, PERSON, 40], "things": [CAR, PERSON]}

    def evaluate(self, tmp_path, extra):
        path = tmp_path / "eval.yaml"
        path.write_text(yaml.safe_dump({**self.CLASS_MAP, **extra}))
        return main(["evaluate", "--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                     "--sequences", "a,b", "--config", str(path),
                     "--report", str(tmp_path / "report.txt")])

    def test_per_sequence_report_is_evaluates(self, tmp_path):
        streams = write_two_sequences(tmp_path)
        assert self.evaluate(tmp_path, {"per_sequence": True, "pq_match_threshold": 0.6}) == 0
        got = (tmp_path / "report.txt").read_text()
        config = EvalConfig(classes=(CAR, PERSON, 40), things=frozenset({CAR, PERSON}),
                            pq_match_threshold=0.6, per_sequence=True)
        want = tmp_path / "want.txt"
        evaluate(streams["gt"], streams["pred"], config).write_text(want)
        assert got == want.read_text()
        for key, default in (("per_sequence", False), ("pq_match_threshold", 0.5)):
            other = tmp_path / f"{key}.txt"  # each key changes the scores
            evaluate(streams["gt"], streams["pred"],
                     replace(config, **{key: default})).write_text(other)
            assert got != other.read_text()

    def test_bad_pq_match_threshold_exits_one(self, tmp_path, capsys):
        write_two_sequences(tmp_path)
        assert self.evaluate(tmp_path, {"pq_match_threshold": "abc"}) == 1
        assert "pq_match_threshold" in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()


class TestSceneSpec:
    @pytest.mark.parametrize("change, named", [
        ({"n_scans": "abc"}, "n_scans"),
        ({"n_scans": 2.7}, "n_scans"),
        ({"objects": [{"class": CAR, "points": 60, "sigma": 0.3, "start": [0, 5]}]},
         "objects[0].start"),
        ({"objects": [{"class": CAR, "points": 60, "start": [12, 0, 6]}]}, "'sigma'"),
        ({"objects": [{**SCENE["objects"][0], "cluster_sigma": 0}]}, "sigma"),
        ({"objects": 3}, "objects"),
        ({"noise_sigm": 0.01}, "noise_sigm"),
        ({"background": 5}, "background"),
        ({"background": {"points": -5}}, "background points"),
        ({"ego": {"yaw": 0.1}}, "ego.yaw"),
        ({"ego": {"velocity": [1, 2, "x"]}}, "ego.velocity"),
        ({"seed": -1}, "seed"),
    ])
    def test_bad_spec_exits_one_and_writes_nothing(self, change, named, tmp_path, capsys):
        spec_path = tmp_path / "scene.yaml"
        spec_path.write_text(yaml.safe_dump({**SCENE, **change}))
        out = tmp_path / "data"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name", [None, "../escaped", "a/b", "", ".."])
    def test_name_not_one_path_component_exits_one(self, name, tmp_path, capsys):
        spec_path = tmp_path / "spec" / "scene.yaml"
        spec_path.parent.mkdir()
        spec_path.write_text(yaml.safe_dump({**SCENE, "n_scans": 2, "name": name}))
        out = tmp_path / "out" / "data"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: name") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec"]

    def test_quoted_numeric_name_is_the_directory(self, tmp_path):
        spec_path = tmp_path / "scene.yaml"
        spec_path.write_text(yaml.safe_dump({**SCENE, "n_scans": 2}).replace(
            "name: '00'", "name: \"07\""))
        out = tmp_path / "data"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["07", "classes.yaml"]


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

    def fake_sequence(name, seq_dir, out_root, cfg, seq_seed, created):
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
        ({}, ["--tau", "0"], "tau"),
        ({}, ["--stride", "1"], "stride"),
        ({}, ["--tau", "1"], "tau"),  # importance samples past scans: tau >= 2
        ({}, ["--coord-variance", "0"], "coord_variance"),
        ({}, ["--time-variance", "0"], "time_variance"),
        ({}, ["--assoc-iou", "1"], "assoc_iou"),
        ({}, ["--threads", "0"], "threads"),
        ({}, ["--seed-stop", "1.5"], "seed_stop"),
        ({}, ["--window-stride", "5"], "window_stride"),  # beyond the default tau 4
    ])
    def test_bad_value_or_key_exits_one(self, run_config, capsys, file_data, flags, key):
        code, cfg = run_config(file_data, *flags)
        assert code == 1
        assert cfg is None
        assert key in capsys.readouterr().err

    def test_no_class_map_exits_one(self, tmp_path, capsys):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"tau": 4}))
        code = main(["run", "--data", str(tmp_path), "--out", str(tmp_path / "out"),
                     "--config", str(path)])
        assert code == 1
        assert "class map" in capsys.readouterr().err

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
