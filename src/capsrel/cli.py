"""Command-line interface: train, eval, predict, synth, sweep.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.

Before it reads any data, each command passes every path it reads or
writes through `config.require_path`, named by the config field or the
flag that gave it, so a missing input, a directory given as a file or a
file given as a directory exits 2 naming its source; so does a file it
writes that is a file it reads or another it writes, naming both.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys

from . import evaluation, prediction, synth
from .config import (ConfigError, RunConfig, TrainConfig, atomic_write,
                     require_path)
from .data import Corpus, EmbeddingStore, load_corpus, load_embeddings
from .model import Model, load_checkpoint, save_checkpoint
from .training import train


def _load_run_config(path: str) -> RunConfig:
    """The run config `--config` names: a UTF-8 JSON object."""
    require_path(path, "--config", "read")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise ConfigError(f"--config: {path} is not UTF-8 JSON: {exc}") from exc
    return RunConfig.from_dict(obj)


def _require_paths(cfg: RunConfig, args, outputs: tuple[str, ...],
                   **uses: str) -> list[str]:
    """Check every path the command reads or writes before any data is
    read: `--out` or else `output_dir`, each field in `uses` for its use,
    then the data inputs, the entity file only when it is set. A `--corpus`
    or `--checkpoint` that is given replaces its field and is named in its
    place. No file written may be one read, `--config` too, or another one
    written. Return `--out`, or else the paths of `outputs` in `output_dir`."""
    if getattr(args, "out", None) is not None:
        require_path(args.out, "--out", "write")
        files = [("--out", args.out, "write")]
    else:
        require_path(cfg.output_dir, "config field 'output_dir'", "make")
        files = [(f"{name} in config field 'output_dir'",
                  os.path.join(cfg.output_dir, name), "write")
                 for name in outputs]
    reads = ["corpus", "word_embeddings", "relation_embeddings"]
    if cfg.entity_embeddings:
        reads.append("entity_embeddings")
    for name, use in {**uses, **dict.fromkeys(reads, "read")}.items():
        flag = getattr(args, name, None)
        if flag is not None:
            setattr(cfg, name, flag)
        what = f"--{name}" if flag is not None else f"config field {name!r}"
        require_path(getattr(cfg, name), what, use)
        files.append((what, getattr(cfg, name), use))
    files.append(("--config", args.config, "read"))
    for i, (what, path, use) in enumerate(files):
        for other, other_path, other_use in files[:i]:
            if "write" in (use, other_use) and _same_file(path, other_path):
                raise ConfigError(f"{other}: {other_path} is the file of "
                                  f"{what}, {path}, which the command {use}s")
    return [path for _, path, _ in files[:len(outputs)]]


def _same_file(a: str, b: str) -> bool:
    """`os.path.samefile` where both paths exist, else equal real paths."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _load_store(cfg: RunConfig, entities: bool = False) -> EmbeddingStore:
    """The embeddings. The entity file is parsed only for `entities`:
    TransE pair assignment alone reads it."""
    return load_embeddings(cfg.word_embeddings,
                           cfg.entity_embeddings if entities else None,
                           cfg.relation_embeddings)


def _load_corpus(cfg: RunConfig, store: EmbeddingStore,
                 train_cfg: TrainConfig, use: str, scored: bool = False
                 ) -> Corpus:
    """The corpus, parsed at the sentence limit L and M of `train_cfg`, if
    a sentence is left to `use` it for and, when it will be `scored`, a
    bag has a gold label other than NA."""
    vocab = {n: i for i, n in enumerate(store.relation_names)}
    corpus = load_corpus(cfg.corpus, train_cfg.L, train_cfg.M, vocab)
    if not corpus.bags:
        raise ValueError(f"no sentence to {use} in {cfg.corpus}: it is empty "
                         f"or every sentence is longer than L={train_cfg.L}")
    if scored and all(bag.labels <= {evaluation.NA_RELATION}
                      for bag in corpus.bags):
        raise evaluation.EvaluationError(
            f"zero gold positives in {cfg.corpus}: every bag is labelled NA, "
            "so there is nothing to score")
    return corpus


def _write_output(path: str, text: str) -> None:
    """Write `text` to `path` through `atomic_write`."""
    with atomic_write(path) as fh:
        fh.write(text)


def _load_trained(cfg: RunConfig, use: str, entities: bool = False,
                  scored: bool = False
                  ) -> tuple[EmbeddingStore, Corpus, Model]:
    """Load the embeddings, the checkpoint, and the corpus parsed for the
    checkpoint's model."""
    store = _load_store(cfg, entities)
    model = load_checkpoint(cfg.checkpoint, store)
    return store, _load_corpus(cfg, store, model.config, use, scored), model


def _evaluate(model: Model, corpus: Corpus):
    """Score every bag; return the PR curve, its AUC and precision@recall."""
    curve = evaluation.pr_curve(evaluation.decisions_from_scores(
        zip(corpus.bags, model.scores(corpus.bags))))
    return curve, evaluation.auc(curve), evaluation.precision_at(curve)


def cmd_train(args) -> int:
    cfg = _load_run_config(args.config)
    log_path, = _require_paths(cfg, args, ("train_log.jsonl",),
                               checkpoint="write")
    store = _load_store(cfg)
    corpus = _load_corpus(cfg, store, cfg.train, "train on")
    model = Model(cfg.train, store)
    records = [json.dumps({"run_config": cfg.to_dict()}, sort_keys=True)]
    _write_output(log_path, records[0] + "\n")

    def on_epoch(stats):
        save_checkpoint(cfg.checkpoint, model, extra={"epoch": stats.epoch})
        records.append(json.dumps({
            "epoch": stats.epoch,
            "mean_loss": stats.mean_loss,
            "selection_histogram": {str(k): v for k, v in
                                    sorted(stats.selection_histogram.items())},
        }, sort_keys=True))
        _write_output(log_path, "\n".join(records) + "\n")
        return False

    train(model, corpus.bags, cfg.train, callback=on_epoch)
    if cfg.train.epochs == 0:
        save_checkpoint(cfg.checkpoint, model, extra={"epoch": -1})
    return 0


def cmd_eval(args) -> int:
    cfg = _load_run_config(args.config)
    metrics_path, curve_path = _require_paths(
        cfg, args, ("metrics.json", "pr_curve.csv"), checkpoint="read")
    _, corpus, model = _load_trained(cfg, "evaluate", scored=True)
    curve, auc, precisions = _evaluate(model, corpus)
    metrics = json.dumps({"auc": auc, **{f"p@{r}": p for r, p in
                                         precisions.items()}}, sort_keys=True)
    _write_output(metrics_path, metrics + "\n")
    _write_output(curve_path, evaluation.curve_csv(curve))
    print(metrics)
    return 0


def cmd_predict(args) -> int:
    cfg = _load_run_config(args.config)
    if args.multi and not cfg.entity_embeddings:
        raise ConfigError("--multi requires the 'entity_embeddings' config field")
    if args.threshold is not None:
        if not args.multi:
            raise ConfigError("--threshold applies only with --multi: plain "
                              "predict ranks every relation")
        TrainConfig(threshold=args.threshold)   # its range, before any read
    out, = _require_paths(cfg, args, ("predictions.jsonl",), checkpoint="read")
    store, corpus, model = _load_trained(cfg, "predict on", args.multi)
    # decode with the checkpoint's fields; --threshold replaces its threshold
    threshold = (model.config.threshold if args.threshold is None
                 else args.threshold)
    lines = []
    for bag, scores in zip(corpus.bags, model.scores(corpus.bags)):
        # single mode ranks every relation and assigns no pair
        if args.multi:
            picked = prediction.predict_multi(scores, threshold)
            pairs = list(bag.key)
        else:
            picked, pairs = prediction.predict_single(scores), []
        rels = prediction.assign_all(picked, pairs, store,
                                     model.config.pair_diff)
        for entry in rels:
            entry["name"] = store.relation_names[entry["id"]]
        lines.append(json.dumps(
            {"key": [list(p) for p in bag.key], "relations": rels}))
    _write_output(out, "\n".join(lines) + "\n")
    return 0


def cmd_synth(args) -> int:
    # the SynthSpec field of each flag; a flag not given keeps its default
    fields = {"relations": "E", "vocab": "vocab_size", "bags": "bags",
              "pairs": "pairs_per_sentence", "seed": "seed",
              "noise": "transe_noise", "dw": "d_w", "k": "k"}
    spec = synth.SynthSpec(**{field: getattr(args, flag) for flag, field
                              in fields.items() if hasattr(args, flag)})
    if spec.pairs_per_sentence == 2 and spec.E < 3:
        raise ConfigError("--pairs 2 needs --relations >= 3 (two distinct "
                          f"non-NA relations per bag), got --relations {spec.E}")
    require_path(args.out_dir, "--out-dir", "make")
    paths = synth.generate(spec, args.out_dir)
    print(json.dumps(dataclasses.asdict(paths)))
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_run_config(args.config)
    out, = _require_paths(cfg, args, ("sweep.md",))
    store = _load_store(cfg)
    corpus = _load_corpus(cfg, store, cfg.train, "train on", scored=True)
    grid = [{"routing_iters": it, "d": d} for it in args.iters for d in args.dims]

    def run_point(train_cfg):
        model = Model(train_cfg, store)
        train(model, corpus.bags, train_cfg)
        return _evaluate(model, corpus)[1:]

    # each point is scored on the corpus it trained on: the AUC measures fit
    report = (f"Scored on the training corpus {cfg.corpus}.\n\n"
              + evaluation.sweep_markdown(
                  evaluation.experiment_sweep(cfg.train, grid, run_point)))
    _write_output(out, report)
    print(report)
    return 0


def _positive_ints(text: str) -> list[int]:
    """A comma-separated list of integers >= 1, such as 1,3,5."""
    try:
        values = [int(x) for x in text.split(",")]
        if min(values) >= 1:
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected comma-separated integers >= 1, got {text!r}")


def _at_least(low: int, cast=int):
    """An argparse type: a finite `cast` value of at least `low`."""
    def parse(text: str):
        try:
            value = cast(text)
            if low <= value < math.inf:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected a finite {cast.__name__} >= {low}, got {text!r}")
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capsrel",
        description="Capsule-network relation extraction over bag corpora")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a run config")
    p_train.add_argument("--config", required=True)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="held-out PR curve and metrics")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--checkpoint")
    p_eval.add_argument("--corpus")
    p_eval.set_defaults(func=cmd_eval)

    p_pred = sub.add_parser("predict", help="emit per-bag predictions")
    p_pred.add_argument("--config", required=True)
    p_pred.add_argument("--checkpoint")
    p_pred.add_argument("--corpus")
    p_pred.add_argument("--out")
    p_pred.add_argument("--multi", action="store_true",
                        help="top-2-over-threshold with TransE pair assignment")
    p_pred.add_argument("--threshold", type=float, default=None)
    p_pred.set_defaults(func=cmd_predict)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus",
                             argument_default=argparse.SUPPRESS)
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--relations", type=_at_least(2),
                         help="number of relations including NA")
    p_synth.add_argument("--vocab", type=_at_least(1))
    p_synth.add_argument("--bags", type=_at_least(1))
    p_synth.add_argument("--pairs", type=int, choices=(1, 2))
    p_synth.add_argument("--seed", type=_at_least(0))
    p_synth.add_argument("--noise", type=_at_least(0, float))
    p_synth.add_argument("--dw", type=_at_least(1))
    p_synth.add_argument("--k", type=_at_least(1))
    p_synth.set_defaults(func=cmd_synth)

    p_sweep = sub.add_parser("sweep", help="capsule-dim / routing-iteration grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--iters", type=_positive_ints, default="1,3,5")
    p_sweep.add_argument("--dims", type=_positive_ints, default="4,8")
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        level = os.environ.get("CAPSREL_LOG", "INFO")
        if not isinstance(logging.getLevelName(level), int):
            raise ConfigError("CAPSREL_LOG must be a logging level name such "
                              f"as DEBUG, INFO or WARNING, got {level!r}")
        logging.basicConfig(level=level,
                            format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
