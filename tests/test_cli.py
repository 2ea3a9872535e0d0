"""CLI surface: exit codes, artifacts, determinism."""

import hashlib
import json
import os
import re
import shlex

import pytest

from capsrel import cli, synth
from capsrel.cli import main
from capsrel.config import RunConfig, TrainConfig, require_path
from capsrel.data import load_corpus, load_embeddings
from capsrel.model import Model
from capsrel.training import train
from helpers import write_json_checkpoint


def sha256(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic corpus plus a small run config shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    assert main(["synth", "--out-dir", str(data_dir), "--relations", "3",
                 "--bags", "8", "--seed", "5"]) == 0
    cfg = {
        "corpus": str(data_dir / "corpus.jsonl"),
        "word_embeddings": str(data_dir / "words.txt"),
        "entity_embeddings": str(data_dir / "entities.txt"),
        "relation_embeddings": str(data_dir / "relations.txt"),
        "checkpoint": str(root / "model.ckpt"),
        "output_dir": str(root / "out"),
        "B": 4, "C": 2, "d": 2, "epochs": 1, "seed": 1, "dropout": 0.5,
    }
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    return root, cfg, cfg_path


class TestSynth:
    def test_generated_files_and_relation_count(self, tmp_path, capsys):
        assert main(["synth", "--out-dir", str(tmp_path / "s"),
                     "--relations", "4", "--bags", "50"]) == 0
        paths = json.loads(capsys.readouterr().out)
        lines = open(paths["corpus"]).read().splitlines()
        assert len(lines) >= 50
        rels = {r for ln in lines for r in json.loads(ln)["relations"]}
        assert rels == {"NA", "R1", "R2", "R3"}

    def test_same_seed_identical_files(self, tmp_path):
        for d in ("a", "b"):
            assert main(["synth", "--out-dir", str(tmp_path / d),
                         "--bags", "10", "--seed", "3"]) == 0
        for name in ("corpus.jsonl", "words.txt", "entities.txt",
                     "relations.txt"):
            assert sha256(tmp_path / "a" / name) == sha256(tmp_path / "b" / name)


    @pytest.mark.parametrize("flag,value", [
        ("--bags", "0"), ("--bags", "-3"), ("--dw", "0"), ("--k", "0"),
        ("--noise", "-1"), ("--noise", "nan"), ("--noise", "inf"),
        ("--relations", "1"), ("--vocab", "0"), ("--seed", "-1"),
        ("--bags", "x")])
    def test_bad_flag_exits_2_naming_it_before_writing(self, tmp_path, capsys,
                                                       flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out-dir", str(tmp_path / "s"), flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_two_pairs_with_one_non_na_relation_exits_2_before_writing(
            self, tmp_path, capsys):
        assert main(["synth", "--out-dir", str(tmp_path / "s"), "--pairs", "2",
                     "--relations", "2"]) == 2
        err = capsys.readouterr().err
        assert "--pairs" in err and "--relations" in err
        assert not (tmp_path / "s").exists()
        with pytest.raises(ValueError, match="E >= 3"):
            synth.generate(synth.SynthSpec(E=2, pairs_per_sentence=2),
                           str(tmp_path / "g"))
        assert not (tmp_path / "g").exists()

    def test_parser_holds_no_default_of_its_own(self):
        args = cli.build_parser().parse_args(["synth", "--out-dir", "x"])
        assert set(vars(args)) == {"command", "out_dir", "func"}

    def test_flags_left_out_take_the_spec_defaults(self, tmp_path):
        assert main(["synth", "--out-dir", str(tmp_path / "cli")]) == 0
        synth.generate(synth.SynthSpec(), str(tmp_path / "spec"))
        for name in ("corpus.jsonl", "words.txt", "entities.txt",
                     "relations.txt"):
            assert ((tmp_path / "cli" / name).read_bytes()
                    == (tmp_path / "spec" / name).read_bytes())


class TestLogLevel:
    def test_unknown_capsrel_log_exits_2_before_any_work(self, tmp_path,
                                                         capsys, monkeypatch):
        monkeypatch.setenv("CAPSREL_LOG", "verbose")
        assert main(["synth", "--out-dir", str(tmp_path / "s")]) == 2
        assert "config error: CAPSREL_LOG" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_level_name_is_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CAPSREL_LOG", "WARNING")
        assert main(["synth", "--out-dir", str(tmp_path / "s")]) == 0


class TestMissingEntityFile:
    """A configured entity file that does not exist is a config error for
    every command that reads the inputs, as a missing corpus is."""

    @pytest.mark.parametrize("command", ["train", "eval", "predict"])
    def test_exits_2_naming_entity_embeddings(self, workspace, tmp_path,
                                              capsys, command):
        _, cfg, cfg_path = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        p = tmp_path / "run.json"
        p.write_text(json.dumps(dict(
            cfg, entity_embeddings=str(tmp_path / "missing.txt"),
            output_dir=str(tmp_path / "out"),
            checkpoint=(str(tmp_path / "m.ckpt") if command == "train"
                        else cfg["checkpoint"]))))
        assert main([command, "--config", str(p)]) == 2
        assert "'entity_embeddings'" in capsys.readouterr().err


class TestTrain:
    def test_missing_corpus_path_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"checkpoint": "x"}))
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert "corpus" in capsys.readouterr().err

    def test_unknown_config_field_exits_2(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"corpsu": "x"}))
        assert main(["train", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("field,value", [
        ("B", "4"), ("B", True), ("word_att", 1), ("lr", "0.1"),
        ("routing_iters", "3")])
    def test_mistyped_config_field_exits_2_naming_it(self, workspace, tmp_path,
                                                      capsys, field, value):
        _, cfg, _ = workspace
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({**cfg, field: value,
                                        "output_dir": str(tmp_path / "out")}))
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert field in err and type(value).__name__ in err

    @pytest.mark.parametrize("text,named", [
        ('"abc"', "run config"), ("5", "run config"), ("[]", "run config"),
        ('{"train": [], "B": 4}', "train")])
    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys,
                                                  text, named):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(text)
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert f"{named} must be an object" in capsys.readouterr().err

    def test_field_given_twice_exits_2_naming_it(self, workspace, tmp_path,
                                                capsys):
        # B and seed inside "train" and at the top level: neither may win
        _, cfg, _ = workspace
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({**cfg, "train": {"B": 10, "seed": 1},
                                        "output_dir": str(tmp_path / "out")}))
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert ("given both in train and at the top level: ['B', 'seed']"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field,value", [
        ("checkpoint", ["m.ckpt"]), ("output_dir", 5), ("corpus", None)])
    def test_mistyped_path_field_exits_2_before_training(
            self, workspace, tmp_path, capsys, field, value):
        _, cfg, _ = workspace
        run_cfg = dict(cfg, checkpoint=str(tmp_path / "m.ckpt"),
                       output_dir=str(tmp_path / "out"))
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({**run_cfg, field: value}))
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert f"{field} must be str" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "predict", "sweep"])
    def test_empty_output_dir_exits_2_before_reading_data(
            self, workspace, tmp_path, capsys, monkeypatch, command):
        _, cfg, _ = workspace

        def no_read(*args, **kwargs):
            raise AssertionError("data read before the config was checked")
        monkeypatch.setattr("capsrel.cli.load_embeddings", no_read)
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(dict(cfg, output_dir="")))
        assert main([command, "--config", str(cfg_path)]) == 2
        assert "output_dir must name a directory" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["bad.json"]

    @pytest.mark.parametrize("field,value", [
        ("B", 0), ("L", 0), ("C", 0), ("d", 0), ("d_p", -1), ("epochs", -1),
        ("seed", -1), ("lr", -0.001), ("lr", float("nan")),
        ("lr", float("inf"))])
    def test_out_of_range_config_field_exits_2_before_output_dir(
            self, workspace, tmp_path, capsys, field, value):
        _, cfg, _ = workspace
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({**cfg, field: value,
                                        "checkpoint": str(tmp_path / "m.ckpt"),
                                        "output_dir": str(tmp_path / "out")}))
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert f"{field} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_runs_no_forward_after_the_last_epoch(self, workspace, tmp_path,
                                                   monkeypatch):
        _, cfg, _ = workspace
        run_cfg = RunConfig.from_dict(dict(
            cfg, checkpoint=str(tmp_path / "m.ckpt"),
            output_dir=str(tmp_path / "out"), epochs=2))
        calls = []
        activations = Model.activations

        def counting(self, *args, **kwargs):
            calls.append(1)
            return activations(self, *args, **kwargs)
        monkeypatch.setattr(Model, "activations", counting)
        store = load_embeddings(run_cfg.word_embeddings, None,
                                run_cfg.relation_embeddings)
        corpus = load_corpus(run_cfg.corpus, run_cfg.train.L, run_cfg.train.M,
                             {n: i for i, n in enumerate(store.relation_names)})
        train(Model(run_cfg.train, store), corpus.bags, run_cfg.train)
        in_train = len(calls)
        calls.clear()
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(run_cfg.to_dict()))
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert in_train > 0 and len(calls) == in_train

    def test_tiny_run_writes_checkpoint_and_log(self, workspace, tmp_path):
        root, cfg, cfg_path = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert os.path.exists(cfg["checkpoint"])
        log_lines = open(os.path.join(cfg["output_dir"],
                                      "train_log.jsonl")).read().splitlines()
        assert len(log_lines) == 2
        head, rec = map(json.loads, log_lines)
        assert set(head) == {"run_config"}
        assert set(rec) == {"epoch", "mean_loss", "selection_histogram"}
        assert rec["epoch"] == 0
        ckpt = open(cfg["checkpoint"], "rb").read()
        n = int.from_bytes(ckpt[8:16], "little")
        assert json.loads(ckpt[16:16 + n])["extra"] == {"epoch": 0}
        # the recorded run config alone reproduces the checkpoint and log
        rerun = tmp_path / "rerun.json"
        rerun.write_text(json.dumps(head["run_config"]))
        os.remove(cfg["checkpoint"])
        assert main(["train", "--config", str(rerun)]) == 0
        assert open(cfg["checkpoint"], "rb").read() == ckpt
        assert open(os.path.join(cfg["output_dir"], "train_log.jsonl")
                    ).read().splitlines() == log_lines

    def test_creates_the_checkpoint_directory_before_training(self, workspace,
                                                             tmp_path):
        _, cfg, _ = workspace
        ckpt = tmp_path / "nodir" / "m.ckpt"
        p = tmp_path / "run.json"
        p.write_text(json.dumps(dict(cfg, checkpoint=str(ckpt),
                                     output_dir=str(tmp_path / "out"))))
        assert main(["train", "--config", str(p)]) == 0
        assert ckpt.exists()

    def test_rerun_same_seed_byte_identical_checkpoint(self, workspace, tmp_path):
        root, cfg, _ = workspace
        run_cfg = dict(cfg, checkpoint=str(tmp_path / "m.ckpt"),
                       output_dir=str(tmp_path))
        p = tmp_path / "run.json"
        p.write_text(json.dumps(run_cfg))
        digests = []
        for _ in range(2):
            assert main(["train", "--config", str(p)]) == 0
            digests.append(sha256(run_cfg["checkpoint"]))
        assert digests[0] == digests[1]


class TestEval:
    def test_metrics_schema_and_idempotence(self, workspace):
        root, cfg, cfg_path = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["eval", "--config", str(cfg_path)]) == 0
        metrics_path = os.path.join(cfg["output_dir"], "metrics.json")
        first = open(metrics_path).read()
        curve_first = open(os.path.join(cfg["output_dir"], "pr_curve.csv")).read()
        assert set(json.loads(first)) == {"auc", "p@0.1", "p@0.2", "p@0.3",
                                          "p@0.4"}
        assert main(["eval", "--config", str(cfg_path)]) == 0
        assert open(metrics_path).read() == first
        assert open(os.path.join(cfg["output_dir"],
                                 "pr_curve.csv")).read() == curve_first

    def test_writes_both_files_through_the_atomic_writer(self, workspace,
                                                          tmp_path,
                                                          monkeypatch):
        _, cfg, cfg_path = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        p = tmp_path / "run.json"
        p.write_text(json.dumps(dict(cfg, output_dir=str(tmp_path / "out"))))
        written = []
        write = cli._write_output

        def recording(path, text):
            written.append(os.path.basename(path))
            write(path, text)
        monkeypatch.setattr(cli, "_write_output", recording)
        assert main(["eval", "--config", str(p)]) == 0
        assert sorted(written) == ["metrics.json", "pr_curve.csv"]
        assert sorted(os.listdir(tmp_path / "out")) == sorted(written)

    def test_corpus_without_positives_exits_1(self, workspace, tmp_path, capsys):
        root, cfg, cfg_path = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        na_corpus = tmp_path / "na.jsonl"
        na_corpus.write_text(json.dumps({
            "tokens": ["w0", "enta", "entb"],
            "entities": [{"id": "E00000", "span": [1, 2]},
                         {"id": "E00001", "span": [2, 3]}],
            "pairs": [["E00000", "E00001"]],
            "relations": ["NA"]}) + "\n")
        assert main(["eval", "--config", str(cfg_path),
                     "--corpus", str(na_corpus)]) == 1
        assert "zero gold positives" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, workspace, tmp_path):
        root, cfg, _ = workspace
        bad = dict(cfg, checkpoint=str(tmp_path / "missing.ckpt"))
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        assert main(["eval", "--config", str(p)]) == 2

    def test_json_checkpoint_exits_1_naming_the_format(self, workspace,
                                                        tmp_path, capsys):
        root, cfg, cfg_path = workspace
        store = load_embeddings(cfg["word_embeddings"],
                                cfg["entity_embeddings"],
                                cfg["relation_embeddings"])
        old = tmp_path / "old.ckpt"
        write_json_checkpoint(old, Model(TrainConfig(B=4, C=2, d=2), store))
        assert main(["eval", "--config", str(cfg_path),
                     "--checkpoint", str(old)]) == 1
        err = capsys.readouterr().err
        assert str(old) in err
        assert "JSON checkpoints are no longer read" in err


class TestAtomicWrites:
    """Each file a command writes is first written to a fresh file beside
    it: a `<target>.tmp` already there, file or directory, is left as it
    is, and the target gets the mode `open(path, "w")` gives."""

    @pytest.mark.parametrize("kind", ["directory", "file"])
    @pytest.mark.parametrize("command", ["train", "eval", "predict"])
    def test_a_tmp_beside_the_target_is_left_alone(self, workspace, tmp_path,
                                                   command, kind):
        _, cfg, cfg_path = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        p = tmp_path / "run.json"
        argv = [command, "--config", str(p)]
        checkpoint, out = cfg["checkpoint"], tmp_path / "out"
        if command == "train":
            checkpoint = target = tmp_path / "m.ckpt"
        elif command == "eval":
            target = out / "metrics.json"
        else:
            target = tmp_path / "p.jsonl"
            argv += ["--out", str(target)]
        p.write_text(json.dumps(dict(cfg, checkpoint=str(checkpoint),
                                     output_dir=str(out))))
        taken = target.parent / (target.name + ".tmp")
        target.parent.mkdir(exist_ok=True)
        if kind == "directory":
            taken.mkdir()
        else:
            taken.write_bytes(b"the user's own file\n")
        assert main(argv) == 0
        if kind == "directory":
            assert taken.is_dir() and os.listdir(taken) == []
        else:
            assert taken.read_bytes() == b"the user's own file\n"
        umask = os.umask(0)
        os.umask(umask)
        assert os.stat(target).st_mode & 0o777 == 0o666 & ~umask
        assert not [f for f in os.listdir(target.parent)
                    if f.endswith(".tmp") and f != taken.name]


class TestOutputPaths:
    """An output path of the wrong kind is a config error, named before any
    data is read, as a missing input path is."""

    @pytest.fixture()
    def no_read(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("data read before the output paths were "
                                 "checked")
        monkeypatch.setattr("capsrel.cli.load_embeddings", refuse)

    @pytest.mark.parametrize("command", ["train", "eval", "predict", "sweep"])
    def test_output_dir_that_is_a_file_exits_2_before_reading_data(
            self, workspace, tmp_path, capsys, no_read, command):
        _, cfg, _ = workspace
        taken = tmp_path / "taken"
        taken.write_text("")
        p = tmp_path / "run.json"
        p.write_text(json.dumps(dict(cfg, output_dir=str(taken),
                                     checkpoint=str(tmp_path / "m.ckpt"))))
        assert main([command, "--config", str(p)]) == 2
        assert (f"config error: config field 'output_dir': {taken} is not a "
                "directory") in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["run.json", "taken"]

    def test_output_dir_under_a_file_exits_2_before_reading_data(
            self, workspace, tmp_path, capsys, no_read):
        _, cfg, _ = workspace
        (tmp_path / "taken").write_text("")
        p = tmp_path / "run.json"
        p.write_text(json.dumps(dict(
            cfg, output_dir=str(tmp_path / "taken" / "out"),
            checkpoint=str(tmp_path / "m.ckpt"))))
        assert main(["train", "--config", str(p)]) == 2
        assert "config field 'output_dir'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "sweep"])
    @pytest.mark.parametrize("under", [False, True], ids=["is", "under"])
    def test_out_that_is_a_directory_exits_2_before_reading_data(
            self, workspace, tmp_path, capsys, no_read, command, under):
        # a directory as --out, or a directory's place taken by a file
        _, _, cfg_path = workspace
        taken = tmp_path / "taken"
        if under:
            taken.write_text("")
        else:
            taken.mkdir()
        out = taken / "out.txt" if under else taken
        assert main([command, "--config", str(cfg_path), "--out",
                     str(out)]) == 2
        assert (f"config error: --out: {taken} " + (
            f"in {out} is not a directory" if under else "is a directory")
        ) in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["taken"]

    def test_checkpoint_that_is_a_directory_exits_2_before_reading_data(
            self, workspace, tmp_path, capsys, no_read):
        _, cfg, _ = workspace
        ckdir = tmp_path / "ckdir"
        ckdir.mkdir()
        p = tmp_path / "run.json"
        p.write_text(json.dumps(dict(cfg, checkpoint=str(ckdir),
                                     output_dir=str(tmp_path / "out"))))
        assert main(["train", "--config", str(p)]) == 2
        assert (f"config error: config field 'checkpoint': {ckdir} is a "
                "directory") in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["ckdir", "run.json"]
        assert os.listdir(ckdir) == []


class TestInputPaths:
    """Every path a command reads, from a config field or a flag, must exist
    and not be a directory. Either fault exits 2 naming the field or the
    flag before any data is read; so does an `--out-dir` of `synth` that is
    a file or lies under one."""

    @pytest.fixture()
    def no_read(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("data read before the input paths were "
                                 "checked")
        monkeypatch.setattr("capsrel.cli.load_embeddings", refuse)

    READS = {
        "train": ["corpus", "word_embeddings", "relation_embeddings",
                  "entity_embeddings", "--config"],
        "sweep": ["corpus", "word_embeddings", "relation_embeddings",
                  "entity_embeddings", "--config"],
        "eval": ["corpus", "word_embeddings", "relation_embeddings",
                 "entity_embeddings", "checkpoint", "--config", "--corpus",
                 "--checkpoint"],
    }
    READS["predict"] = READS["eval"]

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("command,source", [
        (command, source) for command, sources in READS.items()
        for source in sources])
    def test_exits_2_naming_the_field_or_flag_before_reading_data(
            self, workspace, tmp_path, capsys, no_read, command, source,
            kind):
        _, cfg, _ = workspace
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        ckpt = tmp_path / "m.ckpt"
        ckpt.write_text("")     # never read: every case stops before
        run_cfg = dict(cfg, checkpoint=str(ckpt),
                       output_dir=str(tmp_path / "out"))
        if not source.startswith("--"):
            run_cfg[source] = str(bad)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(run_cfg))
        argv = [command, "--config", str(cfg_path)]
        if source == "--config":
            argv[2] = str(bad)
        elif source.startswith("--"):
            argv += [source, str(bad)]
        assert main(argv) == 2
        what = source if source.startswith("--") else \
            f"config field {source!r}"
        assert (f"config error: {what}: " + (
            f"no such file: {bad}" if kind == "missing"
            else f"{bad} is a directory")) in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["m.ckpt", "run.json"] + (["bad"] if kind == "directory" else []))

    @pytest.mark.parametrize("under", [False, True], ids=["is", "under"])
    def test_synth_out_dir_of_a_file_exits_2_naming_it(self, tmp_path, capsys,
                                                       under):
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "s" if under else taken
        assert main(["synth", "--out-dir", str(out)]) == 2
        assert (f"config error: --out-dir: {taken} " + (
            f"in {out} is not a directory" if under else "is not a directory")
        ) in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["taken"]

    def test_pipes_and_devices_are_inputs(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        for path in (fifo, os.devnull):
            require_path(str(path), "--corpus", "read")

    def test_config_that_is_not_utf8_exits_2_naming_it(self, tmp_path,
                                                      capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_bytes(b"\xff\xfe{}")
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: --config: {cfg_path} is not UTF-8 JSON" in err

    def test_config_that_is_not_json_exits_2_naming_it(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text("{")
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: --config: {cfg_path} is not UTF-8 JSON" in err


class TestNoGoldPositive:
    """A corpus that `eval` or `sweep` would score needs a bag with a gold
    label other than NA; one without exits 1 naming it before any scoring
    or training. `predict` reads no gold label and scores such a corpus."""

    @pytest.fixture()
    def na_corpus(self, workspace, tmp_path):
        _, cfg, _ = workspace
        corpus = tmp_path / "na.jsonl"
        records = [json.loads(line) for line in open(cfg["corpus"])]
        corpus.write_text("".join(
            json.dumps(dict(r, relations=["NA"] * len(r["relations"]))) + "\n"
            for r in records))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(dict(
            cfg, checkpoint=str(tmp_path / "m.ckpt"),
            output_dir=str(tmp_path / "out"))))
        assert main(["train", "--config", str(cfg_path)]) == 0
        return corpus, cfg_path

    def test_eval_exits_1_naming_the_corpus_before_scoring(
            self, na_corpus, tmp_path, capsys, monkeypatch):
        corpus, cfg_path = na_corpus

        def no_scoring(*args, **kwargs):
            raise AssertionError("a bag was scored")
        monkeypatch.setattr(Model, "bag_scores", no_scoring)
        assert main(["eval", "--config", str(cfg_path),
                     "--corpus", str(corpus)]) == 1
        assert f"zero gold positives in {corpus}" in capsys.readouterr().err
        assert os.listdir(tmp_path / "out") == ["train_log.jsonl"]

    def test_sweep_exits_1_naming_the_corpus_before_training(
            self, na_corpus, tmp_path, capsys, monkeypatch):
        corpus, cfg_path = na_corpus
        cfg = json.loads(cfg_path.read_text())
        cfg_path.write_text(json.dumps(dict(cfg, corpus=str(corpus))))

        def no_training(*args, **kwargs):
            raise AssertionError("a grid point was trained")
        monkeypatch.setattr(cli, "train", no_training)
        out = tmp_path / "report.md"
        assert main(["sweep", "--config", str(cfg_path), "--iters", "1",
                     "--dims", "2", "--out", str(out)]) == 1
        assert f"zero gold positives in {corpus}" in capsys.readouterr().err
        assert not out.exists()

    def test_predict_scores_it(self, na_corpus, tmp_path):
        corpus, cfg_path = na_corpus
        out = tmp_path / "preds.jsonl"
        assert main(["predict", "--config", str(cfg_path),
                     "--corpus", str(corpus), "--out", str(out)]) == 0
        bags = {json.dumps(json.loads(line)["pairs"])
                for line in corpus.read_text().splitlines()}
        assert len(out.read_text().splitlines()) == len(bags)


class TestReadme:
    def test_every_cli_example_parses(self):
        readme = open(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "README.md"), encoding="utf-8").read()
        blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.S | re.M)
        lines = [line for block in blocks for line in block.splitlines()
                 if line.startswith("capsrel ")]
        parser = cli.build_parser()
        commands = {parser.parse_args(shlex.split(line, comments=True)[1:]
                                      ).command for line in lines}
        assert commands == {"synth", "train", "eval", "predict", "sweep"}

    def test_training_defaults_sentence_matches_train_config(self):
        readme = open(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "README.md"), encoding="utf-8").read()
        sentence = re.search(r"Training fields default to the published "
                             r"configuration:(.*?)\.\s", readme, re.S).group(1)
        stated = {name: float(value) for name, value
                  in re.findall(r"`(\w+)` (\d+(?:\.\d+)?)", sentence)}
        assert set(stated) == {"lr", "batch_size", "B", "L", "d_p", "d", "C",
                               "dropout", "routing_iters"}
        assert stated == {name: getattr(TrainConfig(), name) for name in stated}


class TestModelFieldsFromCheckpoint:
    """`eval` and `predict` parse the corpus with the checkpoint's L and M,
    whatever the run config says."""

    @pytest.mark.parametrize("trained,stated", [
        ({"L": 60}, {"L": 120}),     # run config beyond the position table
        ({"L": 60}, {"L": 10}),      # run config that shifts the buckets
        ({"M": 4}, {"M": 2}),        # run config with one pair too few
    ], ids=["L-larger", "L-smaller", "M-smaller"])
    def test_run_config_model_fields_change_no_output(self, tmp_path, trained,
                                                      stated):
        data = tmp_path / "data"
        assert main(["synth", "--out-dir", str(data), "--relations", "3",
                     "--bags", "8", "--seed", "5", "--vocab", "6",
                     "--pairs", str(trained.get("M", 2) // 2)]) == 0
        cfg = {"corpus": str(data / "corpus.jsonl"),
               "word_embeddings": str(data / "words.txt"),
               "entity_embeddings": str(data / "entities.txt"),
               "relation_embeddings": str(data / "relations.txt"),
               "checkpoint": str(tmp_path / "model.ckpt"),
               "B": 3, "C": 2, "d": 2, "epochs": 1, "seed": 1}
        outputs = []
        for name, fields in (("trained", trained), ("stated", stated)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**cfg, **fields,
                                        "output_dir": str(tmp_path / name)}))
            if name == "trained":
                assert main(["train", "--config", str(path)]) == 0
            assert main(["eval", "--config", str(path)]) == 0
            assert main(["predict", "--config", str(path), "--multi",
                         "--threshold", "0.01"]) == 0
            outputs.append([(tmp_path / name / f).read_bytes() for f in
                            ("metrics.json", "pr_curve.csv", "predictions.jsonl")])
        assert outputs[0] == outputs[1]


class TestPredict:
    def test_single_mode_ranks_all_relations(self, workspace, tmp_path):
        root, cfg, cfg_path = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        out = tmp_path / "preds.jsonl"
        assert main(["predict", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines
        for rec in lines:
            assert {"key", "relations"} <= set(rec)
            assert len(rec["relations"]) == 3  # full ranking, E relations
            scores = [r["score"] for r in rec["relations"]]
            assert scores == sorted(scores, reverse=True)
            assert all(r["pair"] is None for r in rec["relations"])

    def test_high_threshold_permits_empty_lists(self, workspace, tmp_path):
        root, cfg, cfg_path = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        out = tmp_path / "preds_multi.jsonl"
        assert main(["predict", "--config", str(cfg_path), "--multi",
                     "--threshold", "0.99", "--out", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert all(len(rec["relations"]) <= 2 for rec in lines)

    @pytest.mark.parametrize("threshold", ["1.5", "0", "-0.2", "nan"])
    def test_threshold_outside_unit_interval_exits_2(self, workspace, capsys,
                                                     threshold):
        root, cfg, cfg_path = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["predict", "--config", str(cfg_path), "--multi",
                     "--threshold", threshold]) == 2
        assert "threshold must be in (0, 1)" in capsys.readouterr().err

    def test_threshold_without_multi_exits_2_before_reading_data(
            self, workspace, tmp_path, capsys, monkeypatch):
        _, _, cfg_path = workspace

        def no_read(*args, **kwargs):
            raise AssertionError("data read before the flags were checked")
        monkeypatch.setattr("capsrel.cli.load_embeddings", no_read)
        out = tmp_path / "preds.jsonl"
        assert main(["predict", "--config", str(cfg_path), "--threshold",
                     "0.99", "--out", str(out)]) == 2
        assert "config error: --threshold applies only with --multi" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_multi_without_entity_embeddings_exits_2(self, workspace, tmp_path):
        root, cfg, _ = workspace
        no_ent = dict(cfg, entity_embeddings="")
        p = tmp_path / "noent.json"
        p.write_text(json.dumps(no_ent))
        assert main(["train", "--config", str(p)]) == 0
        assert main(["predict", "--config", str(p), "--multi"]) == 2


class TestSweep:
    def test_small_grid_completes_with_report(self, workspace, tmp_path):
        root, cfg, cfg_path = workspace
        out = tmp_path / "report.md"
        assert main(["sweep", "--config", str(cfg_path), "--iters", "1,3",
                     "--dims", "2", "--out", str(out)]) == 0
        text = out.read_text()
        assert "routing_iters=1" in text and "routing_iters=3" in text
        assert "AUC" in text
        assert text.startswith(f"Scored on the training corpus {cfg['corpus']}.")

    @pytest.mark.parametrize("flag,value", [
        ("--iters", "1,,3"), ("--iters", "x"), ("--dims", "0")])
    def test_bad_grid_flag_exits_2_naming_it_before_reading_data(
            self, workspace, tmp_path, capsys, monkeypatch, flag, value):
        root, cfg, cfg_path = workspace

        def no_read(*args, **kwargs):
            raise AssertionError("data read before the flags were checked")
        monkeypatch.setattr("capsrel.cli.load_embeddings", no_read)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg_path), flag, value,
                  "--out", str(tmp_path / "report.md")])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not (tmp_path / "report.md").exists()


class TestNothingToTrainOn:
    @pytest.mark.parametrize("case", ["empty-file", "all-longer-than-L"])
    def test_train_and_sweep_exit_1_naming_corpus_and_L(
            self, workspace, tmp_path, capsys, monkeypatch, case):
        _, cfg, _ = workspace
        if case == "empty-file":
            corpus, L = tmp_path / "empty.jsonl", 120
            corpus.write_text("")
        else:
            corpus, L = cfg["corpus"], 2

        def no_model(*args, **kwargs):
            raise AssertionError("a model was built with nothing to train on")
        monkeypatch.setattr(cli, "Model", no_model)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(dict(
            cfg, corpus=str(corpus), L=L, checkpoint=str(tmp_path / "m.ckpt"),
            output_dir=str(tmp_path / "out"))))
        for command in ("train", "sweep"):
            assert main([command, "--config", str(cfg_path)]) == 1
            err = capsys.readouterr().err
            assert f"no sentence to train on in {corpus}" in err
            assert f"L={L}" in err
        assert not (tmp_path / "m.ckpt").exists()
        assert not (tmp_path / "out").exists()


class TestNothingToScore:
    @pytest.mark.parametrize("command", [["eval"], ["predict"],
                                         ["predict", "--multi"]],
                             ids=["eval", "predict", "predict-multi"])
    @pytest.mark.parametrize("case", ["empty-file", "all-longer-than-L"])
    def test_exits_1_naming_corpus_and_L(self, workspace, tmp_path, capsys,
                                         case, command):
        _, cfg, _ = workspace
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(dict(
            cfg, checkpoint=str(tmp_path / "m.ckpt"),
            output_dir=str(tmp_path / "out"))))
        assert main(["train", "--config", str(cfg_path)]) == 0
        corpus = tmp_path / "unscorable.jsonl"
        records = []
        if case == "all-longer-than-L":     # the checkpoint's L is 120
            for line in open(cfg["corpus"]).read().splitlines():
                record = json.loads(line)
                record["tokens"] += ["w0"] * 120
                records.append(json.dumps(record) + "\n")
        corpus.write_text("".join(records))
        assert main([*command, "--config", str(cfg_path),
                     "--corpus", str(corpus)]) == 1
        err = capsys.readouterr().err
        assert f"in {corpus}: it is empty or every sentence" in err
        assert "L=120" in err
        assert sorted(os.listdir(tmp_path / "out")) == ["train_log.jsonl"]


class TestEntityFile:
    def test_parsed_only_by_predict_multi(self, workspace, tmp_path, capsys):
        _, cfg, _ = workspace
        entities = tmp_path / "entities.txt"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(dict(
            cfg, entity_embeddings=str(entities),
            checkpoint=str(tmp_path / "m.ckpt"),
            output_dir=str(tmp_path / "out"))))
        outputs = ["m.ckpt", "out/train_log.jsonl", "out/metrics.json",
                   "out/pr_curve.csv", "out/predictions.jsonl"]
        digests = []
        for text in (open(cfg["entity_embeddings"]).read(), "E00000 0.5 x\n"):
            entities.write_text(text)
            for command in ("train", "eval", "predict"):
                assert main([command, "--config", str(cfg_path)]) == 0
            digests.append({name: sha256(tmp_path / name) for name in outputs})
        assert digests[0] == digests[1]
        assert main(["predict", "--config", str(cfg_path), "--multi",
                     "--out", str(tmp_path / "multi.jsonl")]) == 1
        assert f"{entities}:1:" in capsys.readouterr().err
        assert not (tmp_path / "multi.jsonl").exists()
