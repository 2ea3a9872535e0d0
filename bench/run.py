"""capsrel benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload tiny --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload tiny --seed 1 --seconds 20 --trace 1

Run it from the repository root. It imports `capsrel` from `src/` next to
this directory, generates the workload's input files from the seed under
`.bench_out/`, drives the public API the way `capsrel train` / `eval` /
`predict --multi` do, checks the outputs, and prints a detail line and
then, as the last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`. See bench/README.md for the metrics.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads so the library reads it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from inputs import MAKERS, plant_heldout_model  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("tiny", "paper", "heldout")
# setup_s is the median of two rounds of set-ups, one before and one after
# the timed phase; each round sets up at least 3 times and for at least 1 s.
SETUP_MIN_REPEATS = 3
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 200
MIN_EPOCHS = 2          # `final_loss < first epoch loss` needs two epochs
MAX_EPOCHS = 100_000
TAIL_BEYOND = 10        # tail = highest percentile with >= 10 samples beyond


def import_capsrel():
    """Import capsrel from this checkout's `src/`, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "capsrel" / "__init__.py").is_file():
        print(f"bench: no capsrel package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import capsrel
    if Path(capsrel.__file__).resolve().parent != (src / "capsrel").resolve():
        print(f"bench: imported capsrel from {capsrel.__file__}, "
              f"not from {src}", file=sys.stderr)
        sys.exit(2)
    import capsrel.autodiff
    import capsrel.capsule
    import capsrel.config
    import capsrel.data
    import capsrel.encoder
    import capsrel.evaluation
    import capsrel.model
    import capsrel.optim
    import capsrel.prediction
    import capsrel.training
    return capsrel


# -- environment --------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def os_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = " ".join(str(deps["blas"].get(k, "")) for k in ("name", "version"))
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "os_threads": os_threads(),
        "git_commit": git_commit(),
        "seed": seed,
    }


# -- statistics ---------------------------------------------------------------


def latency_ms(samples_s: list[float]) -> dict:
    """Median and tail of a latency sample, in ms.

    The tail is the highest percentile that still has TAIL_BEYOND samples
    beyond it (rank n - 10 of n), but never below the median: with fewer
    than 20 samples it is the median.
    """
    ms = sorted(s * 1000.0 for s in samples_s)
    n = len(ms)
    rank = max(n - TAIL_BEYOND, (n + 1) // 2)
    return {"p50": statistics.median(ms), "tail": ms[rank - 1],
            "tail_percentile": 100.0 * rank / n, "samples": n}


def time_is_up(t0: float, marks: list[float], seconds: float) -> bool:
    """Stop at the unit boundary nearest to `seconds`.

    `marks` are the end times of the units so far. Stopping at the nearest
    boundary, rather than the first one past `seconds`, keeps the unit
    count, and with it the sample the tail rank lands on, steady while the
    unit time wanders a little from run to run.
    """
    last = marks[-1] - (marks[-2] if len(marks) > 1 else t0)
    return marks[-1] - t0 + last / 2 >= seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- workload phases ----------------------------------------------------------


@dataclass
class Loaded:
    config: object
    store: object
    corpus: object
    model: object


@dataclass
class Outcome:
    units: int = 0                  # epochs (train) or blocks (heldout eval)
    train_wall: float = 0.0
    train_sents: int = 0
    step_s: list = field(default_factory=list)
    epoch_losses: list = field(default_factory=list)
    eval_wall: float = 0.0
    eval_sents: int = 0
    eval_blocks: int = 0
    bag_s: list = field(default_factory=list)
    scored: list = field(default_factory=list)      # (bag, scores)
    decoded: list = field(default_factory=list)     # (bag, picked, assigned)
    curve: list = field(default_factory=list)
    auc: float | None = None
    decisions: int = 0
    eval_model: object = None
    eval_bags: list = field(default_factory=list)
    block: int = 0


class Bench:
    def __init__(self, cr, workload: str, seed: int):
        self.cr = cr
        self.workload = workload
        self.seed = seed
        self.work_dir = OUT_DIR / f"{workload}-{seed}"
        # Inputs and checkpoints (~50 MB at paper shape) are deleted when
        # the run ends; only the report and spans stay in work_dir.
        self.input_dir = self.work_dir / "inputs"
        self.input_dir.mkdir(parents=True, exist_ok=True)
        self.inputs = MAKERS[workload](seed, str(self.input_dir))
        self.planted = None
        self.ckpt_extra = None      # `extra` of the last checkpoint written
        if workload == "heldout":
            self._write_heldout_checkpoint()

    # The heldout checkpoint is an input: written once, outside any timing.
    def _write_heldout_checkpoint(self) -> None:
        cr, inp = self.cr, self.inputs
        cfg = cr.config.TrainConfig(**inp.train_config)
        store = cr.data.load_embeddings(inp.words, inp.entities, inp.relations)
        model = cr.model.Model(cfg, store)
        plant_heldout_model(model, self.seed)
        cr.model.save_checkpoint(inp.checkpoint, model)
        self.planted = model

    def setup(self) -> Loaded:
        """Input load through model construction: what `setup_s` times."""
        cr, inp = self.cr, self.inputs
        cfg = cr.config.TrainConfig(**inp.train_config)
        store = cr.data.load_embeddings(inp.words, inp.entities, inp.relations)
        vocab = {n: i for i, n in enumerate(store.relation_names)}
        if self.workload == "heldout":
            model = cr.model.load_checkpoint(inp.checkpoint, store)
            cfg = model.config
        else:
            model = cr.model.Model(cfg, store)
        corpus = cr.data.load_corpus(inp.corpus, cfg.L, cfg.M, vocab)
        return Loaded(cfg, store, corpus, model)

    def phase(self, ld: Loaded, seconds: float | None, units: int | None
              ) -> Outcome:
        """The timed work: bounded by `seconds`, or exactly `units`."""
        out = Outcome()
        if self.workload == "heldout":
            self.eval_bags(out, ld.model, ld.store, ld.corpus.bags, ld.config,
                           multi=True, block=self.inputs.block_size,
                           seconds=seconds, units=units)
            out.units = out.eval_blocks
        else:
            self.train(out, ld, seconds, units)
        if self.workload == "tiny":
            self.eval_tiny(out)
        return out

    def train(self, out: Outcome, ld: Loaded, seconds, units) -> None:
        """`capsrel train`: train with a checkpoint after every epoch.

        Step latency runs from the end of the previous step (or of the
        previous epoch's checkpoint) to the end of the optimizer step, so it
        covers selection, forward, backward and the update.
        """
        cr, inp = self.cr, self.inputs
        run_cfg = cr.config.RunConfig(
            train=ld.config, corpus=inp.corpus, word_embeddings=inp.words,
            relation_embeddings=inp.relations, checkpoint=inp.checkpoint,
            output_dir=str(self.input_dir)).to_dict()
        marks: list[float] = []
        stats = []
        t0 = time.perf_counter()

        def on_epoch(s):
            self.ckpt_extra = {"epoch": s.epoch, "run_config": run_cfg}
            cr.model.save_checkpoint(inp.checkpoint, ld.model,
                                     extra=self.ckpt_extra)
            stats.append(s)
            marks.append(time.perf_counter())
            if units is not None:
                return len(stats) >= units
            return len(stats) >= MIN_EPOCHS and time_is_up(t0, marks, seconds)

        with Tracer() as clock:
            clock.install([Target(cr.optim.Adam, "step", "step")])
            cr.training.train(ld.model, ld.corpus.bags, ld.config,
                              epochs=units or MAX_EPOCHS, callback=on_epoch)
        out.train_wall = time.perf_counter() - t0
        out.units = len(stats)
        out.epoch_losses = [s.mean_loss for s in stats]
        per_epoch = sum(len(b.instances) for b in ld.corpus.bags)
        out.train_sents = per_epoch * len(stats)
        last = t0
        for t, is_step in sorted([(t, False) for t in marks]
                                 + [(s.end, True) for s in clock.spans]):
            if is_step:
                out.step_s.append(t - last)
            last = t

    def eval_tiny(self, out: Outcome) -> None:
        """`capsrel eval` on tiny's held-out split: reload, score, PR."""
        cr, inp = self.cr, self.inputs
        store = cr.data.load_embeddings(inp.words, inp.entities, inp.relations)
        vocab = {n: i for i, n in enumerate(store.relation_names)}
        model = cr.model.load_checkpoint(inp.checkpoint, store)
        corpus = cr.data.load_corpus(inp.heldout_corpus, model.config.L,
                                     model.config.M, vocab)
        self.eval_bags(out, model, store, corpus.bags, model.config,
                       multi=False, block=len(corpus.bags), seconds=None,
                       units=None)

    def eval_bags(self, out: Outcome, model, store, bags, cfg, multi: bool,
                  block: int, seconds, units) -> None:
        """Score bags block by block with no gradient, decode, then build
        the PR curve, as `capsrel eval` and `predict --multi` do."""
        cr = self.cr
        out.eval_model = model
        out.eval_bags = bags
        out.block = block
        t0 = time.perf_counter()
        marks: list[float] = []
        for start in range(0, len(bags), block):
            for bag in bags[start:start + block]:
                t = time.perf_counter()
                scores = model.bag_scores(bag)
                if multi:
                    picked = cr.prediction.predict_multi(
                        scores, threshold=cfg.threshold)
                    assigned = cr.prediction.assign_all(
                        picked, list(bag.key), store, direction=cfg.pair_diff)
                    out.decoded.append((bag, picked, assigned))
                out.bag_s.append(time.perf_counter() - t)
                out.scored.append((bag, scores))
                out.eval_sents += len(bag.instances)
            out.eval_blocks += 1
            marks.append(time.perf_counter())
            if units is not None and out.eval_blocks >= units:
                break
            if seconds is not None and time_is_up(t0, marks, seconds):
                break
        decisions = cr.evaluation.decisions_from_scores(out.scored)
        out.decisions = len(decisions)
        out.curve = cr.evaluation.pr_curve(decisions)
        out.auc = cr.evaluation.auc(out.curve)
        cr.evaluation.precision_at(out.curve)
        out.eval_wall = time.perf_counter() - t0

    # -- checks ---------------------------------------------------------------

    def checks(self, ld: Loaded, out: Outcome) -> list[dict]:
        results = []

        def check(name, ok, detail=""):
            results.append({"check": name, "ok": bool(ok), "detail": detail})

        if self.workload != "heldout":
            losses = out.epoch_losses
            check("losses_finite", all(np.isfinite(losses)),
                  f"{len(losses)} epoch losses")
            check("final_loss_below_first",
                  len(losses) >= 2 and losses[-1] < losses[0],
                  f"first {losses[0]!r}, final {losses[-1]!r}")
            self.check_roundtrip(check, ld.model, out.eval_model, ld.store,
                                 ld.corpus.bags)
        else:
            self.check_roundtrip(check, self.planted, out.eval_model,
                                 ld.store, [b for b, _ in out.scored])
        if out.scored:
            self.check_eval(check, out)
        return results

    def check_roundtrip(self, check, model, loaded, store, bags) -> None:
        """c09 at this shape: save -> load gives bitwise-equal bag scores,
        and saving the loaded model again gives identical bytes.

        `loaded` is the model the workload itself read from the checkpoint;
        `paper` reads none, so it is loaded here.
        """
        cr, path = self.cr, self.inputs.checkpoint
        if loaded is None:
            loaded = cr.model.load_checkpoint(path, store)
        probes = sorted(bags, key=lambda b: sum(len(i.tokens)
                                                for i in b.instances))[:2]
        equal = all(np.array_equal(model.bag_scores(b), loaded.bag_scores(b))
                    for b in probes)
        check("ckpt_roundtrip_bag_scores_bitwise", equal,
              f"{len(probes)} bags")
        with open(path, "rb") as fh:
            saved = fh.read()
        resave = path + ".resave"
        cr.model.save_checkpoint(resave, loaded, extra=self.ckpt_extra)
        with open(resave, "rb") as fh:
            same = fh.read() == saved
        os.remove(resave)
        check("ckpt_resave_bytes_identical", same, f"{len(saved)} bytes")

    def check_eval(self, check, out: Outcome) -> None:
        keys = [bag.key for bag, _ in out.scored]
        expected = [bag.key
                    for bag in out.eval_bags[:out.eval_blocks * out.block]]
        check("every_bag_scored_once", keys == expected,
              f"{len(keys)} of {len(expected)} bags in {out.eval_blocks} "
              "blocks")
        scores = np.stack([s for _, s in out.scored])
        check("scores_finite_in_unit_interval",
              bool(np.all(np.isfinite(scores)) and np.all(scores >= 0.0)
                   and np.all(scores < 1.0)),
              f"min {float(scores.min())!r}, max {float(scores.max())!r}")
        recalls = [r for r, _ in out.curve]
        check("pr_recall_nondecreasing",
              all(b >= a for a, b in zip(recalls, recalls[1:])),
              f"{len(recalls)} curve points")
        check("auc_in_unit_interval", 0.0 <= out.auc <= 1.0, f"{out.auc!r}")
        if out.decoded:
            bad = [(bag.key, e["pair"]) for bag, _, assigned in out.decoded
                   for e in assigned
                   if e["pair"] is not None
                   and tuple(e["pair"]) not in bag.key]
            check("assigned_pairs_from_bag_key", not bad, f"{len(bad)} bad")


# -- tracing ------------------------------------------------------------------

# (layer, owner path, attribute, unit of the per-call time, inclusive)
LAYERS = (
    ("encoder.embed", "encoder", "embed", "ms", False),
    ("encoder.bilstm", "encoder", "bilstm", "ms", False),
    ("encoder.word_attention", "encoder", "word_attention", "ms", False),
    ("capsule.primary_capsules", "capsule", "primary_capsules", "ms", False),
    ("capsule.votes", "capsule", "votes", "ms", False),
    ("capsule.dynamic_routing", "capsule", "dynamic_routing", "ms", False),
    ("autodiff.backward", "autodiff.Tensor", "backward", "ms", False),
    ("training.select_instance", "training", "select_instance", "ms", True),
    ("training.margin_loss", "training", "margin_loss", "ms", False),
    ("model.activations.selection", "model.Model", "activations", "ms", False),
    ("model.activations.train", None, None, "ms", False),
    ("model.activations.eval", None, None, "ms", False),
    ("optim.adam_step", "optim.Adam", "step", "ms", False),
    ("model.save_checkpoint", "model", "save_checkpoint", "s", False),
    ("model.load_checkpoint", "model", "load_checkpoint", "s", False),
    ("data.load_embeddings", "data", "load_embeddings", "s", False),
    ("data.load_corpus", "data", "load_corpus", "s", False),
    ("evaluation.decisions_from_scores", "evaluation",
     "decisions_from_scores", "ms", False),
    ("evaluation.pr_curve", "evaluation", "pr_curve", "ms", False),
    ("prediction.predict_multi", "prediction", "predict_multi", "ms", False),
    ("prediction.assign_all", "prediction", "assign_all", "ms", False),
)
COUNTERS = ("capsule.children", "autodiff.tape_nodes",
            "training.selection_useful_ratio",
            "optim.word_emb_rows_touched_ratio", "model.ckpt_bytes",
            "evaluation.decisions", "prediction.pairs_assigned_ratio",
            "prediction.na_predicted", "trace.overhead_ratio")
COUNTER_UNITS = {"capsule.children": "count", "autodiff.tape_nodes": "count",
                 "model.ckpt_bytes": "bytes", "evaluation.decisions": "count",
                 "prediction.na_predicted": "count"}

NO_TRAIN = "heldout runs no gradient: no selection, loss, backward or step"
MISSING_REASONS = {
    "tiny": {
        "prediction.predict_multi": "tiny's held-out split is single-pair and "
                                    "scored as `capsrel eval` does, without "
                                    "decoding",
        "prediction.assign_all": "as prediction.predict_multi",
        "prediction.pairs_assigned_ratio": "as prediction.predict_multi",
        "prediction.na_predicted": "as prediction.predict_multi",
    },
    "paper": {
        "model.load_checkpoint": "paper only trains; its round-trip check "
                                 "loads the checkpoint after the trace",
        "model.activations.eval": "paper only trains",
        "evaluation.decisions_from_scores": "paper only trains",
        "evaluation.pr_curve": "paper only trains",
        "evaluation.decisions": "paper only trains",
        "prediction.predict_multi": "paper only trains",
        "prediction.assign_all": "paper only trains",
        "prediction.pairs_assigned_ratio": "paper only trains",
        "prediction.na_predicted": "paper only trains",
    },
    "heldout": {
        "autodiff.backward": NO_TRAIN,
        "autodiff.tape_nodes": NO_TRAIN,
        "training.select_instance": NO_TRAIN,
        "training.margin_loss": NO_TRAIN,
        "training.selection_useful_ratio": NO_TRAIN,
        "model.activations.selection": NO_TRAIN,
        "model.activations.train": NO_TRAIN,
        "optim.adam_step": NO_TRAIN,
        "optim.word_emb_rows_touched_ratio": NO_TRAIN,
        "model.save_checkpoint": "the checkpoint is written in untimed "
                                 "setup, outside the trace",
        "prediction.pairs_assigned_ratio": "no relation passed the decoding "
                                           "threshold",
    },
}
NOTES = ["autodiff.backward is one span per step: splitting backward time "
         "by layer needs spans inside capsrel.autodiff, which this "
         "outside-in tracer does not have; no split is estimated.",
         "Self time excludes child spans only; the before/after counters "
         "(tape walk, gradient row scan) run outside every span."]


def layer_keys(name: str, unit: str, inclusive: bool) -> tuple[str, str, str]:
    kind = "incl" if inclusive else "self"
    time_key = f"{name}.s" if unit == "s" else f"{name}.{kind}_ms_p50"
    return time_key, f"{name}.{kind}_share", f"{name}.calls"


class Counters:
    """Counts gathered at the traced boundaries."""

    def __init__(self):
        self.children: list[int] = []
        self.tape_nodes: list[int] = []
        self.rows_nonzero = 0
        self.rows_updated = 0
        self.ckpt_bytes = 0

    def on_capsules(self, result, args, kwargs):
        self.children.append(result[0].shape[0])

    def on_backward(self, args, kwargs):
        root = args[0]
        seen = {id(root)}
        stack = [root]
        while stack:
            for p in getattr(stack.pop(), "_parents", ()):
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        self.tape_nodes.append(len(seen))

    def on_adam_step(self, args, kwargs):
        param = args[0].params.get("word_emb")
        if param is not None and param.grad is not None:
            g = param.grad
            self.rows_nonzero += int((g != 0).any(axis=1).sum())
            self.rows_updated += g.shape[0]

    def on_ckpt(self, result, args, kwargs):
        self.ckpt_bytes = os.path.getsize(args[0])


def activations_span(args, kwargs, parent):
    if parent == "training.select_instance":
        return "model.activations.selection"
    train = kwargs.get("train", args[2] if len(args) > 2 else False)
    return "model.activations.train" if train else "model.activations.eval"


def trace_targets(cr, counters: Counters):
    hooks = {"capsule.primary_capsules": {"after": counters.on_capsules},
             "autodiff.backward": {"before": counters.on_backward},
             "optim.adam_step": {"before": counters.on_adam_step},
             "model.save_checkpoint": {"after": counters.on_ckpt},
             "model.load_checkpoint": {"after": counters.on_ckpt}}
    targets = []
    for name, owner_path, attr, _, _ in LAYERS:
        if owner_path is None:
            continue
        owner = cr
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        span = activations_span if attr == "activations" else name
        targets.append(Target(owner, attr, span, **hooks.get(name, {})))
    return targets


def per_layer(tracer, counters: Counters, out: Outcome, wall: float,
              overhead: float, workload: str) -> tuple[dict, dict]:
    summary = tracer.summary(wall, inclusive=frozenset(
        name for name, *_, incl in LAYERS if incl))
    metrics: dict = {}
    missing: dict = {}
    reasons = MISSING_REASONS[workload]

    def put(key, value, unit, layer):
        metrics[key] = {"value": value, "unit": unit}
        if value is None:
            metrics[key]["value"] = 0
            missing[layer] = reasons.get(layer, "no calls (unexpected)")

    for name, _, _, unit, inclusive in LAYERS:
        time_key, share_key, calls_key = layer_keys(name, unit, inclusive)
        s = summary.get(name)
        scale = 1.0 if unit == "s" else 1000.0
        put(time_key, s and s["p50_s"] * scale, unit, name)
        put(share_key, s and s["share"], "ratio", name)
        put(calls_key, s["calls"] if s else None, "count", name)

    def mean(xs):
        return sum(xs) / len(xs) if xs else None

    def ratio(a, b):
        return a / b if b else None

    calls = {name: s["calls"] for name, s in summary.items()}
    train_fw = calls.get("model.activations.train", 0)
    select_fw = calls.get("model.activations.selection", 0)
    picked = sum(len(p) for _, p, _ in out.decoded)
    assigned = sum(e["pair"] is not None for _, _, a in out.decoded for e in a)
    values = {
        "capsule.children": mean(counters.children),
        "autodiff.tape_nodes": mean(counters.tape_nodes),
        "training.selection_useful_ratio": ratio(train_fw, train_fw + select_fw),
        "optim.word_emb_rows_touched_ratio": ratio(counters.rows_nonzero,
                                                   counters.rows_updated),
        "model.ckpt_bytes": counters.ckpt_bytes or None,
        "evaluation.decisions": out.decisions or None,
        "prediction.pairs_assigned_ratio": ratio(assigned, picked),
        "prediction.na_predicted": (sum(j == 0 for _, p, _ in out.decoded
                                        for j, _ in p)
                                    if out.decoded else None),
        "trace.overhead_ratio": overhead,
    }
    for key in COUNTERS:
        put(key, values[key], COUNTER_UNITS.get(key, "ratio"), key)
    return metrics, missing


# -- reporting ----------------------------------------------------------------


def end_to_end(workload: str, setups: list[float], out: Outcome,
               rss: float) -> tuple[dict, dict]:
    """(gated metrics for the last line, every named metric for the report)."""
    named: dict = {"setup_s": {"value": statistics.median(setups), "unit": "s",
                               "samples": len(setups), "times_s": setups},
                   "peak_rss_mb": {"value": rss, "unit": "MB"}}
    if workload != "heldout":
        step = latency_ms(out.step_s)
        named["train_sents_per_s"] = {
            "value": out.train_sents / out.train_wall, "unit": "1/s"}
        named["train_step_ms.p50"] = {"value": step["p50"], "unit": "ms",
                                      "samples": step["samples"]}
        named["train_step_ms.tail"] = {
            "value": step["tail"], "unit": "ms",
            "percentile": step["tail_percentile"], "samples": step["samples"]}
        named["final_loss"] = {"value": out.epoch_losses[-1], "unit": "loss",
                               "epochs": out.units}
    if out.scored:
        bag = latency_ms(out.bag_s)
        named["eval_sents_per_s"] = {
            "value": out.eval_sents / out.eval_wall, "unit": "1/s"}
        named["eval_bag_ms.p50"] = {"value": bag["p50"], "unit": "ms",
                                    "samples": bag["samples"]}
        named["eval_bag_ms.tail"] = {
            "value": bag["tail"], "unit": "ms",
            "percentile": bag["tail_percentile"], "samples": bag["samples"]}
    if workload == "tiny":
        named["auc"] = {"value": out.auc, "unit": "area"}
    prefix = "eval" if workload == "heldout" else "train"
    op = "eval_bag_ms" if workload == "heldout" else "train_step_ms"
    gated = {
        "setup_s": named["setup_s"],
        "sents_per_s": named[f"{prefix}_sents_per_s"],
        "op_ms.p50": named[f"{op}.p50"],
        "op_ms.tail": named[f"{op}.tail"],
        "peak_rss_mb": named["peak_rss_mb"],
    }
    return ({k: {"value": v["value"], "unit": v["unit"]}
             for k, v in gated.items()}, named)


def time_setups(bench: Bench) -> tuple[list[float], Loaded]:
    """Set up SETUP_MIN_REPEATS times or for SETUP_SECONDS, whichever is
    longer. `main` calls this before and after the timed phase, so that
    the median samples the machine at two points of the run. Each set-up
    starts from a collected heap, so the collector's state left by the
    previous set-up or by the timed phase is not charged to it."""
    times: list[float] = []
    ld = None
    while (len(times) < SETUP_MIN_REPEATS
           or (sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX_REPEATS)):
        ld = None   # drop the previous set-up before timing the next
        gc.collect()
        t = time.perf_counter()
        ld = bench.setup()
        times.append(time.perf_counter() - t)
    return times, ld


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    cr = import_capsrel()

    bench = Bench(cr, args.workload, args.seed)
    try:
        return run_and_report(cr, bench, args)
    finally:
        shutil.rmtree(bench.input_dir, ignore_errors=True)


def run_and_report(cr, bench: Bench, args) -> int:
    report = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "env": environment(args.seed)}
    try:
        if args.trace:
            t = time.perf_counter()
            ld = bench.setup()
            out = bench.phase(ld, args.seconds / 2, None)
            untraced = time.perf_counter() - t
            counters = Counters()
            tracer = Tracer()
            with tracer:
                tracer.install(trace_targets(cr, counters))
                t = time.perf_counter()
                ld = bench.setup()
                out = bench.phase(ld, None, out.units)
                traced = time.perf_counter() - t
            metrics, missing = per_layer(tracer, counters, out, traced,
                                         traced / untraced, args.workload)
            spans_path = bench.work_dir / "spans.csv"
            tracer.write(str(spans_path))
            report.update(per_layer=metrics, missing_layers=missing,
                          notes=NOTES, spans=str(spans_path.relative_to(ROOT)),
                          wall_s={"untraced": untraced, "traced": traced})
        else:
            setups, ld = time_setups(bench)
            out = bench.phase(ld, args.seconds, None)
            rss = peak_rss_mb()
            setups += time_setups(bench)[0]
            metrics, named = end_to_end(args.workload, setups, out, rss)
            report["end_to_end"] = named
        checks = bench.checks(ld, out)
    except Exception:  # noqa: BLE001 - report the failed run, then exit 1
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    ops = len(out.step_s) + len(out.bag_s)
    failed = sum(not c["ok"] for c in checks)
    attempted = ops + len(checks)
    report["checks"] = checks
    report["error_rate"] = {"value": failed / attempted, "unit": "ratio",
                            "failed": failed, "attempted": attempted}
    (bench.work_dir / f"report-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
