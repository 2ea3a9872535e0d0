"""End-to-end acceptance checks, one verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v`. Each test prints a single
[PASS]/[FAIL] line on the terminal (capture is disabled for that line) and
then asserts, so the verdict is visible even under default capture.

The two training checks (criteria 5 and 6) each train a scaled-down model
to convergence and take a few minutes combined; everything else is fast.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from capsrel.autodiff import Tensor, grad_check, no_grad
from capsrel.capsule import dynamic_routing, primary_capsules, squash, votes
from capsrel.cli import main
from capsrel.config import TrainConfig
from capsrel.data import Bag, load_corpus, load_embeddings
from capsrel.evaluation import auc, pr_curve, precision_at
from capsrel.model import Model
from capsrel.prediction import assign_all, predict_multi
from capsrel.synth import SynthSpec, generate
from capsrel.training import (
    label_vector,
    margin_loss,
    select_instance,
    train,
)
from helpers import (bag_top1_accuracy, make_instance, routing_reference,
                     take_rows, tiny_model, vote_factors)

TRAIN_BUDGET_EPOCHS = 200
TRAIN_BUDGET_SECONDS = 600.0


def verdict(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        tag = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"[{tag}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name} {detail}"


def load_synth(paths, cfg):
    store = load_embeddings(paths.words, paths.entities, paths.relations)
    rel_vocab = {n: i for i, n in enumerate(store.relation_names)}
    corpus = load_corpus(paths.corpus, cfg.L, cfg.M, rel_vocab)
    return store, corpus


def train_until(model, bags, cfg, metric, target):
    """Train within the epoch budget, stopping early once metric >= target.

    Returns (best_metric, elapsed_seconds).
    """
    t0 = time.time()
    best = [metric()]

    def callback(stats):
        if stats.epoch % 10 == 9:
            value = metric()
            best[0] = max(best[0], value)
            return value >= target

    train(model, bags, cfg, epochs=TRAIN_BUDGET_EPOCHS, callback=callback)
    best[0] = max(best[0], metric())
    return best[0], time.time() - t0


class TestAcceptance:
    def test_c01_gradient_integrity(self, capsys):
        t0 = time.time()
        worst = 0.0

        for seed in range(10):
            # composite 1: embed -> bilstm -> attention
            model = tiny_model(seed=seed, B=4, L=6, d_p=2)
            inst = make_instance(["alpha", "E1", "beta", "E2"], L=6, M=2)
            weights = np.random.default_rng(300 + seed).normal(size=(4, 8))

            def encoder_objective(param_name):
                def f(t):
                    old = model.params[param_name]
                    model.params[param_name] = t
                    try:
                        x_tilde, _ = model.encode([inst], train=False)
                        return (x_tilde * Tensor(weights)).sum()
                    finally:
                        model.params[param_name] = old
                return f

            for name in ("att_A", "att_r", "lstm_fwd_Wx", "lstm_bwd_Wh",
                         "word_emb", "pos_emb_0"):
                err = grad_check(encoder_objective(name),
                                 Tensor(model.params[name].data.copy()),
                                 eps=1e-5)
                worst = max(worst, err)

            # composite 2: primary_capsules -> votes -> routing(3) -> loss
            rng = np.random.default_rng(400 + seed)
            L, width, C, d, E = 3, 3, 2, 3, 4
            x_tilde = rng.normal(0, 0.6, size=(L, width))
            Wb = rng.normal(0, 0.6, size=(C * d, 2 * width))
            b1 = rng.normal(0, 0.2, size=C * d)
            Wc = rng.normal(0, 0.6, size=(E, d, d))
            b_hat = rng.normal(0, 0.2, size=(E, d))
            y = np.zeros(E)
            y[seed % E] = 1.0

            def capsule_chain(x_t, Wb_t, Wc_t):
                u, a_hat = primary_capsules(x_t, Wb_t, Tensor(b1), C, d, [L])
                u_hat = votes(u, Wc_t, Tensor(b_hat))
                _, a = dynamic_routing(u_hat, a_hat, 3, [(L + 1) * C])
                total, _ = margin_loss(a, y[None])
                return total

            for probe, f in [
                (x_tilde, lambda t: capsule_chain(t, Tensor(Wb), Tensor(Wc))),
                (Wb, lambda t: capsule_chain(Tensor(x_tilde), t, Tensor(Wc))),
                (Wc, lambda t: capsule_chain(Tensor(x_tilde), Tensor(Wb), t)),
            ]:
                worst = max(worst, grad_check(f, Tensor(probe), eps=1e-5))

        elapsed = time.time() - t0
        ok = worst < 1e-4 and elapsed < 60.0
        verdict(capsys, 1, "gradient integrity",
                ok, f"max rel err {worst:.2e} < 1e-4, {elapsed:.1f}s < 60s")

    def test_c02_routing_oracle_equivalence(self, capsys):
        t0 = time.time()
        rng = np.random.default_rng(7)
        worst = 0.0
        for case in range(100):
            H = int(rng.integers(1, 13))
            E = int(rng.integers(1, 6))
            d = int(rng.integers(1, 5))
            iters = int(rng.choice([1, 2, 3, 5]))
            u_hat = rng.normal(0, 1.0, size=(H, E, d))
            a_hat = rng.uniform(0, 1, size=H)
            v_ref, a_ref = routing_reference(u_hat, a_hat, iters)
            with no_grad():
                v, a = dynamic_routing(
                    vote_factors(Tensor(u_hat.transpose(1, 2, 0))),
                    Tensor(a_hat), iters, [H])
            worst = max(worst,
                        float(np.abs(v.data[0] - v_ref).max()),
                        float(np.abs(a.data[0] - a_ref).max()))
        elapsed = time.time() - t0
        ok = worst < 1e-10 and elapsed < 10.0
        verdict(capsys, 2, "routing oracle equivalence",
                ok, f"max dev {worst:.2e} < 1e-10 over 100 cases, "
                    f"{elapsed:.1f}s < 10s")

    def test_c03_squash_law(self, capsys):
        rng = np.random.default_rng(11)
        worst = 0.0
        direction_ok = norm_ok = True
        with no_grad():
            for _ in range(1000):
                dim = int(rng.integers(1, 9))
                x = rng.normal(0, rng.uniform(0.01, 5.0), size=dim)
                s = squash(Tensor(x)).data
                n = np.linalg.norm(x)
                expected = n * n / (0.5 + n * n)
                worst = max(worst, abs(np.linalg.norm(s) - expected))
                norm_ok &= np.linalg.norm(s) < 1.0
                cos = float(s @ x) / (np.linalg.norm(s) * n)
                direction_ok &= abs(cos - 1.0) < 1e-12
            zero = squash(Tensor(np.zeros(4))).data
        ok = (worst < 1e-12 and norm_ok and direction_ok
              and np.all(zero == 0.0))
        verdict(capsys, 3, "squash law",
                ok, f"max norm-law dev {worst:.2e} < 1e-12, zero -> zero")

    def test_c04_margin_loss_zero_set(self, capsys):
        def total(a, y):
            t, _ = margin_loss(Tensor(np.asarray(a, dtype=float)),
                               np.asarray(y, dtype=float))
            return t.item()

        boundary_ok = (total([0.9], [1.0]) == 0.0
                       and total([0.1], [0.0]) == 0.0
                       and abs(total([0.0], [1.0]) - 0.81) < 1e-15
                       and abs(total([1.0], [0.0]) - 0.405) < 1e-15)
        rng = np.random.default_rng(13)
        zero_set_ok = True
        for _ in range(500):
            a = rng.uniform(0, 1, 4)
            y = (rng.uniform(size=4) < 0.5).astype(float)
            in_zero_set = (np.all(a[y == 1] >= 0.9)
                           and np.all(a[y == 0] <= 0.1))
            zero_set_ok &= (total(a, y) == 0.0) == in_zero_set
        ok = boundary_ok and zero_set_ok
        verdict(capsys, 4, "margin-loss zero set",
                ok, "boundaries exact, zero set characterized over 500 draws")

    @pytest.mark.slow
    def test_c05_overfit_sanity(self, capsys, tmp_path):
        paths = generate(SynthSpec(E=4, bags=50, pairs_per_sentence=1,
                                   seed=0), str(tmp_path / "synth"))
        cfg = TrainConfig(B=32, C=4, d=4, epochs=TRAIN_BUDGET_EPOCHS, seed=0)
        store, corpus = load_synth(paths, cfg)

        model = Model(cfg, store)
        acc, secs = train_until(model, corpus.bags, cfg,
                                lambda: bag_top1_accuracy(model, corpus.bags),
                                0.95)

        ablated_cfg = TrainConfig(B=32, C=4, d=4, capsule=False,
                                  epochs=TRAIN_BUDGET_EPOCHS, seed=0)
        ablated = Model(ablated_cfg, store)
        abl_acc, abl_secs = train_until(
            ablated, corpus.bags, ablated_cfg,
            lambda: bag_top1_accuracy(ablated, corpus.bags), 0.95)

        ok = (acc >= 0.95 and secs < TRAIN_BUDGET_SECONDS
              and abl_acc >= 0.95 and abl_secs < TRAIN_BUDGET_SECONDS)
        verdict(capsys, 5, "overfit sanity",
                ok, f"full acc {acc:.2f} in {secs:.0f}s; "
                    f"-Capsule acc {abl_acc:.2f} in {abl_secs:.0f}s")

    @pytest.mark.slow
    def test_c06_multi_pair_decoding(self, capsys, tmp_path):
        paths = generate(SynthSpec(E=4, bags=24, vocab_size=12,
                                   pairs_per_sentence=2,
                                   instances_per_bag=(1, 2),
                                   filler_run=(1, 2), transe_noise=0.0,
                                   seed=2), str(tmp_path / "synth_mp"))
        cfg = TrainConfig(B=32, C=4, d=4, M=4, lr=0.003,
                          epochs=TRAIN_BUDGET_EPOCHS, seed=0)
        store, corpus = load_synth(paths, cfg)
        model = Model(cfg, store)

        def assignment_accuracy():
            hits = 0
            for bag in corpus.bags:
                inst = bag.instances[0]
                gold = dict(zip(inst.relations, inst.pairs))
                picked = predict_multi(model.scores([bag])[0], threshold=0.7)
                got = {e["id"]: tuple(e["pair"]) if e["pair"] else None
                       for e in assign_all(picked, list(bag.key), store,
                                           cfg.pair_diff)}
                hits += (set(got) == set(gold)
                         and all(got[r] == gold[r] for r in gold))
            return hits / len(corpus.bags)

        acc, secs = train_until(model, corpus.bags, cfg,
                                assignment_accuracy, 0.9)
        ok = acc >= 0.9 and secs < TRAIN_BUDGET_SECONDS
        verdict(capsys, 6, "multi-pair decoding",
                ok, f"assignment acc {acc:.2f} >= 0.9 at tau=0.7, {secs:.0f}s")

    def test_c07_selection_gradient_isolation(self, capsys):
        model = tiny_model(seed=2)
        sentences = [["alpha", "E1", "E2"], ["beta", "E1", "E2"],
                     ["gamma", "E1", "E2"]]
        insts = [make_instance(s, L=10, M=2) for s in sentences]
        bag = Bag(key=insts[0].key, instances=insts, labels={1})
        selected = select_instance(model, bag)[0]

        def loss_and_grads():
            for p in model.params.values():
                p.grad = None
            a = take_rows(model.activations([bag.instances[selected]],
                                            train=True), 0)
            total, _ = margin_loss(a, label_vector(bag.labels, model.E))
            total.backward()
            return total.item(), {k: (None if p.grad is None
                                      else p.grad.copy())
                                  for k, p in model.params.items()}

        loss1, grads1 = loss_and_grads()
        other = (selected + 1) % len(insts)
        bag.instances[other].tokens[0] = "delta"
        same_choice = select_instance(model, bag)[0] == selected
        loss2, grads2 = loss_and_grads()

        grads_equal = all(
            (grads1[k] is None and grads2[k] is None)
            or (grads1[k] is not None and grads2[k] is not None
                and np.array_equal(grads1[k], grads2[k]))
            for k in grads1)
        ok = same_choice and loss1 == loss2 and grads_equal
        verdict(capsys, 7, "selection gradient isolation",
                ok, "perturbed non-selected instance: loss and grads "
                    "exactly unchanged")

    def test_c08_metrics_fixtures(self, capsys):
        from capsrel.evaluation import DECISION_DTYPE

        def ranked(pairs):
            return np.array(pairs, dtype=DECISION_DTYPE)

        perfect = pr_curve(ranked([(0.9, True), (0.8, True), (0.3, False)]))
        fixtures_ok = all(p == 1.0 for _, p in perfect[:2])

        n, g = 10, 3
        wrong = pr_curve(ranked([(1.0 - 0.01 * i, False)
                                 for i in range(n - g)]
                                + [(0.05 - 0.01 * i, True)
                                   for i in range(g)]))
        fixtures_ok &= wrong[-1].tolist() == [1.0, g / n]
        fixtures_ok &= pr_curve(ranked([(0.5, True)])).tolist() == [[1.0, 1.0]]

        fixtures_ok &= auc(pr_curve(ranked(
            [(0.9, True), (0.8, True), (0.7, True)]))) == 1.0
        rect = [(r, 0.5) for r in np.linspace(0.01, 1.0, 100)]
        fixtures_ok &= abs(auc(rect) - 0.5) < 1e-12

        const = [(0.1, 0.8), (0.2, 0.8), (0.4, 0.8)]
        fixtures_ok &= all(v == 0.8 for v in precision_at(const).values())
        short = precision_at([(0.1, 0.9), (0.25, 0.7)])
        fixtures_ok &= short[0.3] is None and short[0.4] is None

        rng = np.random.default_rng(42)
        prevalence = 0.3
        mc = auc(pr_curve(ranked([(rng.uniform(),
                                   rng.uniform() < prevalence)
                                  for _ in range(10000)])))
        mc_ok = abs(mc - prevalence) < 0.05
        ok = fixtures_ok and mc_ok
        verdict(capsys, 8, "metrics fixtures",
                ok, f"exact fixtures hold, Monte-Carlo AUC {mc:.3f} "
                    f"within 0.05 of prevalence {prevalence}")

    def test_c09_determinism(self, capsys, tmp_path):
        data_dir = tmp_path / "data"
        assert main(["synth", "--out-dir", str(data_dir), "--relations", "3",
                     "--bags", "8", "--seed", "5"]) == 0
        cfg = {
            "corpus": str(data_dir / "corpus.jsonl"),
            "word_embeddings": str(data_dir / "words.txt"),
            "entity_embeddings": str(data_dir / "entities.txt"),
            "relation_embeddings": str(data_dir / "relations.txt"),
            "checkpoint": str(tmp_path / "model.ckpt"),
            "output_dir": str(tmp_path / "out"),
            "B": 4, "C": 2, "d": 2, "epochs": 2, "seed": 1, "dropout": 0.5,
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        digests = []
        for _ in range(2):
            assert main(["train", "--config", str(cfg_path)]) == 0
            digests.append(hashlib.sha256(
                open(cfg["checkpoint"], "rb").read()).hexdigest())
        ok = digests[0] == digests[1]
        verdict(capsys, 9, "determinism",
                ok, f"checkpoint sha256 {digests[0][:12]} byte-identical "
                    "across reruns")

    def test_c10_sweep_harness(self, capsys, tmp_path):
        data_dir = tmp_path / "data"
        assert main(["synth", "--out-dir", str(data_dir), "--relations", "4",
                     "--bags", "8", "--seed", "5"]) == 0
        cfg = {
            "corpus": str(data_dir / "corpus.jsonl"),
            "word_embeddings": str(data_dir / "words.txt"),
            "entity_embeddings": str(data_dir / "entities.txt"),
            "relation_embeddings": str(data_dir / "relations.txt"),
            "checkpoint": str(tmp_path / "model.ckpt"),
            "output_dir": str(tmp_path / "out"),
            "B": 4, "C": 2, "epochs": 1, "seed": 1,
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        report_path = tmp_path / "report.md"
        code = main(["sweep", "--config", str(cfg_path),
                     "--iters", "1,3,5", "--dims", "4,8",
                     "--out", str(report_path)])
        text = report_path.read_text() if report_path.exists() else ""
        rows_ok = all(f"routing_iters={it}" in text for it in (1, 3, 5))
        dims_ok = all(f"d={d}" in text for d in (4, 8))
        ok = code == 0 and rows_ok and dims_ok and "AUC" in text
        verdict(capsys, 10, "sweep harness",
                ok, "6-point grid completed with AUC/precision report")
