"""CLI surface: exit codes, artifacts, determinism."""

import hashlib
import json
import os

import pytest

from capsrel import cli, synth
from capsrel.cli import main
from capsrel.config import RunConfig, TrainConfig
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

    def test_tiny_run_writes_checkpoint_and_log(self, workspace):
        root, cfg, cfg_path = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert os.path.exists(cfg["checkpoint"])
        log_lines = open(os.path.join(cfg["output_dir"],
                                      "train_log.jsonl")).read().splitlines()
        assert len(log_lines) == 1
        rec = json.loads(log_lines[0])
        assert {"epoch", "mean_loss", "selection_histogram", "config"} \
            <= set(rec)

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

    def test_output_dir_that_is_a_file_exits_1_before_scoring(
            self, workspace, tmp_path, monkeypatch, capsys):
        _, cfg, cfg_path = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        taken = tmp_path / "taken"
        taken.write_text("")
        p = tmp_path / "run.json"
        p.write_text(json.dumps(dict(cfg, output_dir=str(taken))))

        def no_scoring(*args, **kwargs):
            raise AssertionError("bags scored before output_dir was made")
        monkeypatch.setattr(Model, "bag_scores", no_scoring)
        assert main(["eval", "--config", str(p)]) == 1
        assert "FileExistsError" in capsys.readouterr().err

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
