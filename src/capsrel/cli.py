"""Command-line interface: train, eval, predict, synth, sweep.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import evaluation, prediction, synth
from .config import ConfigError, RunConfig
from .data import Corpus, EmbeddingStore, load_corpus, load_embeddings
from .model import Model, load_checkpoint, save_checkpoint
from .training import bag_top1_accuracy, train

log = logging.getLogger("capsrel")


def _load_run_config(path: str) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(obj)


def _load_inputs(cfg: RunConfig, need_entities: bool = False
                 ) -> tuple[EmbeddingStore, Corpus]:
    cfg.require_paths("corpus", "word_embeddings", "relation_embeddings")
    if need_entities:
        cfg.require_paths("entity_embeddings")
    store = load_embeddings(cfg.word_embeddings,
                            cfg.entity_embeddings or None,
                            cfg.relation_embeddings)
    relation_vocab = {n: i for i, n in enumerate(store.relation_names)}
    corpus = load_corpus(cfg.corpus, cfg.train.L, cfg.train.M, relation_vocab)
    return store, corpus


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def cmd_train(args) -> int:
    cfg = _load_run_config(args.config)
    if not cfg.checkpoint:
        raise ConfigError("config field 'checkpoint' is required")
    store, corpus = _load_inputs(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    model = Model(cfg.train, store)
    log_path = os.path.join(cfg.output_dir, "train_log.jsonl")
    records = []

    def on_epoch(stats):
        save_checkpoint(cfg.checkpoint, model,
                        extra={"epoch": stats.epoch, "run_config": cfg.to_dict()})
        records.append(json.dumps({
            "epoch": stats.epoch,
            "mean_loss": stats.mean_loss,
            "selection_histogram": {str(k): v for k, v in
                                    sorted(stats.selection_histogram.items())},
            "config": cfg.to_dict(),
        }, sort_keys=True))
        _atomic_write(log_path, "\n".join(records) + "\n")
        return False

    train(model, corpus.bags, cfg.train, callback=on_epoch)
    if cfg.train.epochs == 0:
        save_checkpoint(cfg.checkpoint, model,
                        extra={"epoch": -1, "run_config": cfg.to_dict()})
    acc = bag_top1_accuracy(model, corpus.bags)
    log.info("final bag-level top-1 accuracy on training corpus: %.3f", acc)
    return 0


def _bag_score_pairs(model: Model, corpus: Corpus):
    return [(bag, model.bag_scores(bag)) for bag in corpus.bags]


def cmd_eval(args) -> int:
    cfg = _load_run_config(args.config)
    ckpt = args.checkpoint or cfg.checkpoint
    if not ckpt or not os.path.exists(ckpt):
        raise ConfigError(f"checkpoint not found: {ckpt!r}")
    if args.corpus:
        cfg.corpus = args.corpus
    store, corpus = _load_inputs(cfg)
    model = load_checkpoint(ckpt, store)
    decisions = evaluation.decisions_from_scores(_bag_score_pairs(model, corpus))
    curve = evaluation.pr_curve(decisions)
    os.makedirs(cfg.output_dir, exist_ok=True)
    evaluation.write_curve_csv(curve, os.path.join(cfg.output_dir, "pr_curve.csv"))
    precisions = evaluation.precision_at(curve)
    metrics = {
        "auc": evaluation.auc(curve),
        "p@0.1": precisions[0.1],
        "p@0.2": precisions[0.2],
        "p@0.3": precisions[0.3],
        "p@0.4": precisions[0.4],
    }
    _atomic_write(os.path.join(cfg.output_dir, "metrics.json"),
                  json.dumps(metrics, sort_keys=True) + "\n")
    print(json.dumps(metrics, sort_keys=True))
    return 0


def cmd_predict(args) -> int:
    cfg = _load_run_config(args.config)
    ckpt = args.checkpoint or cfg.checkpoint
    if not ckpt or not os.path.exists(ckpt):
        raise ConfigError(f"checkpoint not found: {ckpt!r}")
    if args.corpus:
        cfg.corpus = args.corpus
    if args.multi and not cfg.entity_embeddings:
        raise ConfigError("--multi requires the 'entity_embeddings' config field")
    store, corpus = _load_inputs(cfg, need_entities=args.multi)
    model = load_checkpoint(ckpt, store)
    threshold = args.threshold if args.threshold is not None else cfg.train.threshold
    lines = []
    for bag in corpus.bags:
        scores = model.bag_scores(bag)
        pairs = list(bag.key)
        if args.multi:
            picked = prediction.predict_multi(scores, threshold=threshold)
            rels = prediction.assign_all(picked, pairs, store,
                                         direction=cfg.train.pair_diff)
        else:
            rels = [{"id": j, "score": s, "pair": None}
                    for j, s in prediction.predict_single(scores)]
        for entry in rels:
            entry["name"] = store.relation_names[entry["id"]]
        lines.append(json.dumps(
            {"key": [list(p) for p in bag.key], "relations": rels}))
    out_path = args.out or os.path.join(cfg.output_dir, "predictions.jsonl")
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    _atomic_write(out_path, "\n".join(lines) + ("\n" if lines else ""))
    return 0


def cmd_synth(args) -> int:
    spec = synth.SynthSpec(
        E=args.relations, vocab_size=args.vocab, bags=args.bags,
        pairs_per_sentence=args.pairs, seed=args.seed,
        d_w=args.dw, k=args.k, transe_noise=args.noise)
    paths = synth.generate(spec, args.out_dir)
    print(json.dumps({"corpus": paths.corpus, "words": paths.words,
                      "entities": paths.entities, "relations": paths.relations}))
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_run_config(args.config)
    store, corpus = _load_inputs(cfg)
    iters = [int(x) for x in args.iters.split(",")]
    dims = [int(x) for x in args.dims.split(",")]
    grid = [{"routing_iters": it, "d": d} for it in iters for d in dims]

    def run_point(train_cfg):
        model = Model(train_cfg, store)
        train(model, corpus.bags, train_cfg)
        decisions = evaluation.decisions_from_scores(
            _bag_score_pairs(model, corpus))
        curve = evaluation.pr_curve(decisions)
        return evaluation.auc(curve), evaluation.precision_at(curve)

    rows = evaluation.experiment_sweep(cfg.train, grid, run_point)
    report = evaluation.sweep_markdown(rows)
    out_path = args.out or os.path.join(cfg.output_dir, "sweep.md")
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    _atomic_write(out_path, report)
    print(report)
    return 0


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

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--relations", type=int, default=4,
                         help="number of relations including NA")
    p_synth.add_argument("--vocab", type=int, default=30)
    p_synth.add_argument("--bags", type=int, default=50)
    p_synth.add_argument("--pairs", type=int, default=1, choices=(1, 2))
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--noise", type=float, default=0.0)
    p_synth.add_argument("--dw", type=int, default=16)
    p_synth.add_argument("--k", type=int, default=8)
    p_synth.set_defaults(func=cmd_synth)

    p_sweep = sub.add_parser("sweep", help="capsule-dim / routing-iteration grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--iters", default="1,3,5")
    p_sweep.add_argument("--dims", default="4,8")
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("CAPSREL_LOG", "INFO"),
        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
