"""Margin loss, instance selection, the training loop, ablations."""

import dataclasses
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsrel.autodiff import (ContractViolation, NonFiniteError, ShapeError,
                              Tensor, grad_check, no_grad)
from capsrel.config import RunConfig, TrainConfig
from capsrel.data import Bag
from capsrel.model import Model, _pooled_head, load_checkpoint, save_checkpoint
from capsrel.optim import Adam
from capsrel.training import (
    label_vector,
    margin_loss,
    select_instance,
    train,
    train_epoch,
)
from helpers import (bag_top1_accuracy, check_fused_node, make_instance,
                     mixed_bags, param_count, planted_trigger_bags,
                     planted_trigger_store, pooled_head_composed, reshape,
                     take_rows, tiny_model, tiny_store, train_epoch_reference)
from test_checkpoint import entries, join, join_entries, split


class TestMarginLoss:
    def loss(self, a, y):
        total, per = margin_loss(Tensor(np.asarray(a, dtype=float)),
                                 np.asarray(y, dtype=float))
        return total.item(), per.data

    def test_gold_at_upper_margin_is_zero(self):
        total, _ = self.loss([0.9], [1.0])
        assert total == 0.0

    def test_nongold_at_lower_margin_is_zero(self):
        total, _ = self.loss([0.1], [0.0])
        assert total == 0.0

    def test_hand_values(self):
        total, _ = self.loss([0.0], [1.0])
        assert abs(total - 0.81) < 1e-15
        total, _ = self.loss([1.0], [0.0])
        assert abs(total - 0.405) < 1e-15

    def test_total_is_sum_of_per_relation_terms(self):
        a = [0.2, 0.8, 0.5]
        y = [1.0, 0.0, 1.0]
        total, per = self.loss(a, y)
        assert abs(total - per.sum()) < 1e-15

    def test_zero_set_characterization(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.uniform(0, 1, 4)
            y = (rng.uniform(size=4) < 0.5).astype(float)
            total, _ = self.loss(a, y)
            in_zero_set = np.all(a[y == 1] >= 0.9) and np.all(a[y == 0] <= 0.1)
            assert (total == 0.0) == in_zero_set
            assert total >= 0.0

    def test_report_wrapper(self):
        # the inputs the deleted margin_loss_report wrapper took: raw
        # activations and a gold label set, fed through label_vector
        total, per = self.loss([0.0, 0.95, 0.05], label_vector({1}, 3))
        assert per.shape == (3,)
        assert abs(total - per.sum()) < 1e-15

    @given(st.lists(st.tuples(st.one_of(st.sampled_from([0.0, 0.1, 0.9, 1.0]),
                                        st.floats(0.0, 1.0)),
                              st.booleans()), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_formula(self, entries):
        a = np.array([act for act, _ in entries])
        y = np.array([float(gold) for _, gold in entries])
        expected = [gold * max(0.0, 0.9 - act) ** 2
                    + 0.5 * (1.0 - gold) * max(0.0, act - 0.1) ** 2
                    for act, gold in zip(a, y)]
        total, per = self.loss(a, y)
        np.testing.assert_allclose(per, expected, rtol=1e-14, atol=0.0)
        assert total == per.sum()

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_checks(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.0, 1.0, 6)
        a = a[(np.abs(a - 0.1) > 1e-3) & (np.abs(a - 0.9) > 1e-3)]
        y = (rng.uniform(size=a.size) < 0.5).astype(float)
        assert grad_check(lambda t: margin_loss(t, y)[0], Tensor(a)) < 1e-6

    def test_is_one_tape_node(self):
        a = Tensor([0.3, 0.95, 0.05], requires_grad=True)
        total, per = margin_loss(a, label_vector({1}, 3))
        assert total._parents == (a,)
        assert not per.requires_grad

    @pytest.mark.parametrize("y_shape", [(1,), (3, 1)],
                             ids=["y-of-one", "y-column"])
    def test_y_shaped_unlike_a_names_both_shapes(self, y_shape):
        with pytest.raises(ShapeError,
                           match=re.escape(f"a (3,), y {y_shape}")):
            margin_loss(Tensor([0.3, 0.95, 0.05]), np.ones(y_shape))

    def test_constant_activations_record_no_node(self):
        total, per = margin_loss(Tensor([0.3, 0.95]), np.array([1.0, 0.0]))
        assert not total.requires_grad and not per.requires_grad
        assert total._parents == () and total._backward is None


class TestLabelVector:
    def test_multi_hot(self):
        np.testing.assert_array_equal(label_vector({0, 2}, 4), [1, 0, 1, 0])


def single_instance_bag(model, tokens=("alpha", "E1", "E2"), labels=(1,)):
    inst = make_instance(list(tokens), L=model.config.L, M=model.config.M)
    return Bag(key=inst.key, instances=[inst], labels=set(labels))


class TestSelectInstance:
    def test_singleton_bag_returns_zero(self):
        model = tiny_model()
        bag = single_instance_bag(model)
        assert select_instance(model, bag) == 0

    def test_singleton_bag_runs_no_forward(self, monkeypatch):
        model = tiny_model()
        bag = single_instance_bag(model)
        monkeypatch.setattr(model, "activations",
                            lambda *a, **k: pytest.fail("forward pass ran"))
        assert select_instance(model, bag) == 0

    def test_tie_breaks_to_lowest_index(self):
        # identical sentences give identical activations: a three-way tie
        model = tiny_model()
        inst = make_instance(["alpha", "E1", "E2"], L=10, M=2)
        bag = Bag(key=inst.key, instances=[inst, inst, inst], labels={1})
        assert select_instance(model, bag) == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_exhaustive_enumeration(self, seed):
        model = tiny_model(seed=seed)
        sentences = [["alpha", "E1", "E2"], ["beta", "E1", "gamma", "E2"],
                     ["E1", "delta", "E2"]]
        insts = [make_instance(s, L=10, M=2) for s in sentences]
        bag = Bag(key=insts[0].key, instances=insts, labels={1, 2})
        with no_grad():
            scores = [max(model.activations([i]).data[0, k] for k in (1, 2))
                      for i in insts]
        expected = int(np.argmax(scores))
        assert select_instance(model, bag) == expected

    def test_scores_gold_relations_only_and_ties_go_low(self):
        class FixedScores:
            def instance_scores(self, bag):
                return np.array([[0.9, 0.1, 0.2],
                                 [0.1, 0.3, 0.2],
                                 [0.8, 0.1, 0.3]])
        bag = Bag(key=(), instances=[None] * 3, labels={1, 2})
        assert select_instance(FixedScores(), bag) == 1

    def test_empty_bag_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            select_instance(model, Bag(key=(), instances=[], labels={0}))


class TestInstanceScores:
    def test_rows_are_eval_activations_and_bag_score_is_their_max(self):
        model = tiny_model(dropout=0.5)
        insts = [make_instance(s, L=10, M=2)
                 for s in (["alpha", "E1", "E2"], ["E1", "beta", "E2"],
                           ["gamma", "E1", "delta", "E2"])]
        bag = Bag(key=insts[0].key, instances=insts, labels={1})
        scores = model.instance_scores(bag)
        with no_grad():
            expected = np.stack([model.activations([i]).data[0]
                                 for i in insts])
        assert scores.shape == (3, model.E)
        np.testing.assert_array_equal(scores, expected)
        np.testing.assert_array_equal(model.bag_scores(bag),
                                      expected.max(axis=0))


class TestTrainLoop:
    def small_setup(self, seed=0, **kw):
        model = tiny_model(seed=seed, **kw)
        bags = [single_instance_bag(model, ("alpha", "E1", "E2"), (1,)),
                single_instance_bag(model, ("beta", "E1", "E2"), (2,)),
                single_instance_bag(model, ("gamma", "E1", "E2"), (0,))]
        return model, bags

    def test_zero_epochs_leaves_parameters_unchanged(self):
        model, bags = self.small_setup()
        before = {k: p.data.copy() for k, p in model.params.items()}
        cfg = model.config
        train(model, bags, cfg, epochs=0)
        for k, p in model.params.items():
            np.testing.assert_array_equal(p.data, before[k])

    def test_same_seed_is_bit_identical(self):
        runs = []
        for _ in range(2):
            model, bags = self.small_setup(seed=3, dropout=0.5)
            train(model, bags, model.config, epochs=3)
            runs.append({k: p.data.copy() for k, p in model.params.items()})
        for k in runs[0]:
            np.testing.assert_array_equal(runs[0][k], runs[1][k])

    def test_lr_zero_step_changes_nothing(self):
        model, bags = self.small_setup()
        before = {k: p.data.copy() for k, p in model.params.items()}
        cfg = TrainConfig(**{**model.config.__dict__, "lr": 0.0})
        opt = Adam(model.params, lr=0.0)
        train_epoch(model, bags, opt, cfg, epoch=0)
        for k, p in model.params.items():
            np.testing.assert_array_equal(p.data, before[k])

    def test_loss_decreases_on_separable_data(self):
        model, bags = self.small_setup(seed=1)
        history = train(model, bags, model.config, epochs=5)
        losses = [h.mean_loss for h in history]
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    def test_non_finite_loss_aborts_with_bag_key(self):
        model, bags = self.small_setup()
        model.params["caps_Wb"].data[0, 0] = np.nan
        opt = Adam(model.params, lr=model.config.lr)
        with pytest.raises(NonFiniteError, match="bag"):
            train_epoch(model, bags, opt, model.config, epoch=0)

    def test_selection_histogram_recorded(self):
        model, bags = self.small_setup()
        opt = Adam(model.params, lr=model.config.lr)
        stats = train_epoch(model, bags, opt, model.config, epoch=0)
        assert sum(stats.selection_histogram.values()) == len(bags)


class TestTrainableStart:
    """A fresh model at the published E=53 over sentences of 10 to 119
    tokens gets gradients Adam can act on, and its loss falls."""

    CONFIG = {"B": 16, "C": 4, "d": 4, "dropout": 0.0, "batch_size": 2}

    @pytest.mark.parametrize("length", [10, 30, 60, 119])
    def test_first_backward_reaches_every_parameter_group(self, length):
        model = Model(TrainConfig(**self.CONFIG), planted_trigger_store())
        bag = planted_trigger_bags(n_bags=2, relations=2, lengths=(length,))[1]
        assert len(bag.instances[0].tokens) == length
        a = model.activations([bag.instances[0]], train=True)
        margin_loss(a, label_vector(bag.labels, model.E)[None])[0].backward()
        largest: dict[str, float] = {}
        for name, p in model.params.items():
            group = name.split("_")[0]  # word, pos, lstm, att or caps
            largest[group] = max(largest.get(group, 0.0),
                                 float(np.abs(p.grad).max()))
        # Adam's eps is 1e-8: a smaller gradient barely moves a parameter
        assert min(largest.values()) >= 1e-6, largest

    def test_loss_falls_below_the_all_zero_activation_loss(self):
        # every activation at zero costs (0.9)^2 = 0.81 on the gold relation
        cfg = TrainConfig(**self.CONFIG)
        model = Model(cfg, planted_trigger_store())
        history = train(model, planted_trigger_bags(), cfg, epochs=5,
                        callback=lambda stats: stats.mean_loss < 0.7)
        assert history[-1].mean_loss < 0.7, [s.mean_loss for s in history]


class TestPublishedShapeGradient:
    """The whole model's analytic gradient at the published shape (B=300,
    C=32, d=8, E=53, d_w=50, d_p=5) on a 10-token sentence, against
    central differences along one random unit direction per parameter."""

    def test_directional_derivatives_match_central_differences(self):
        model = Model(TrainConfig(dropout=0.0), planted_trigger_store(d_w=50))
        bag = planted_trigger_bags(n_bags=2, relations=2, lengths=(10,))[1]
        y = label_vector(bag.labels, model.E)[None]

        def loss():
            return margin_loss(model.activations([bag.instances[0]]), y)[0]

        loss().backward()
        rng = np.random.default_rng(0)
        errors = {}
        for name, p in model.params.items():
            direction = rng.normal(size=p.shape)
            direction /= np.linalg.norm(direction)
            analytic = float((p.grad * direction).sum())
            data, best = p.data, np.inf
            for eps in (1e-4, 1e-5, 1e-6):
                with no_grad():
                    p.data = data + eps * direction
                    hi = loss().item()
                    p.data = data - eps * direction
                    lo = loss().item()
                p.data = data
                numeric = (hi - lo) / (2 * eps)
                best = min(best, abs(numeric - analytic)
                           / max(abs(numeric), abs(analytic)))
            errors[name] = best
        assert len(errors) == 15
        # c01's bound; at this seed every group agrees within 2e-7
        assert max(errors.values()) < 1e-4, errors


class TestPerBagBackward:
    @pytest.mark.parametrize("capsule", [True, False], ids=["full", "-Capsule"])
    @pytest.mark.parametrize("M", [2, 4])
    @pytest.mark.parametrize("batch_size", [1, 3, 8, 128])
    def test_matches_batch_wide_tape_bit_for_bit(self, batch_size, M, capsule):
        runs = []
        for epoch_fn in (train_epoch, train_epoch_reference):
            model = tiny_model(seed=4, M=M, dropout=0.5, capsule=capsule,
                               batch_size=batch_size)
            bags = mixed_bags(M)
            opt = Adam(model.params, lr=0.01)
            stats = [epoch_fn(model, bags, opt, model.config, epoch)
                     for epoch in range(2)]
            runs.append((model, opt, stats))
        (model, opt, stats), (ref, ref_opt, ref_stats) = runs
        assert stats == ref_stats
        assert opt.step_count == ref_opt.step_count
        assert model.dropout_rng.bit_generator.state \
            == ref.dropout_rng.bit_generator.state
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.data, ref.params[name].data)
            np.testing.assert_array_equal(opt.m[name], ref_opt.m[name])
            np.testing.assert_array_equal(opt.v[name], ref_opt.v[name])

    def test_each_bag_graph_is_freed_before_the_next_forward(self, monkeypatch):
        # a weakref to each train-mode result's array shows whether that
        # bag's graph is still alive when the next bag's forward starts
        model = tiny_model(seed=1, dropout=0.5, batch_size=4)
        forward = model.activations
        results: list[weakref.ref] = []
        alive_at_call: list[int] = []

        def tracked(inst, train=False):
            if train:
                alive_at_call.append(sum(r() is not None for r in results))
            out = forward(inst, train=train)
            if train:
                results.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(model, "activations", tracked)
        bags = mixed_bags()
        train_epoch(model, bags, Adam(model.params, lr=model.config.lr),
                    model.config, epoch=0)
        assert alive_at_call == [0] * len(bags)


class TestGradientIsolation:
    def test_non_selected_instance_is_gradient_free(self):
        # only the selected sentence should contribute to training
        model = tiny_model(seed=2)
        sentences = [["alpha", "E1", "E2"], ["beta", "E1", "E2"],
                     ["gamma", "E1", "E2"]]
        insts = [make_instance(s, L=10, M=2) for s in sentences]
        bag = Bag(key=insts[0].key, instances=insts, labels={1})
        opt = Adam(model.params, lr=model.config.lr)
        selected = select_instance(model, bag)

        def loss_and_grads():
            opt.zero_grad()
            a = take_rows(model.activations([bag.instances[selected]],
                                            train=True), 0)
            total, _ = margin_loss(a, label_vector(bag.labels, model.E))
            total.backward()
            return total.item(), {k: (p.grad.copy() if p.grad is not None
                                      else None)
                                  for k, p in model.params.items()}

        loss1, grads1 = loss_and_grads()
        # perturb a non-selected instance's tokens
        other = (selected + 1) % 3
        bag.instances[other].tokens[0] = "delta"
        assert select_instance(model, bag) == selected
        loss2, grads2 = loss_and_grads()
        assert loss1 == loss2
        for k in grads1:
            if grads1[k] is None:
                assert grads2[k] is None
            else:
                np.testing.assert_array_equal(grads1[k], grads2[k])


class TestBuildModel:
    def test_default_attention_matrix_is_600_by_600(self):
        # B=300 at the published defaults, so 2B = 600
        store = tiny_store()
        model = Model(TrainConfig(), store)
        assert model.params["att_A"].shape == (600, 600)
        assert model.params["att_r"].shape == (600,)

    def test_word_att_ablation_drops_exact_parameter_count(self):
        store = tiny_store()
        full = Model(TrainConfig(seed=1), store)
        ablated = Model(TrainConfig(seed=1, word_att=False), store)
        assert param_count(full) - param_count(ablated) == 600 * 600 + 600
        assert "att_A" not in ablated.params
        assert "att_r" not in ablated.params

    def test_capsule_ablation_has_no_capsule_parameters(self):
        model = tiny_model(capsule=False)
        assert not any(k.startswith("caps_") for k in model.params)
        assert {"head_W", "head_b"} <= set(model.params)

    def test_capsule_ablation_activations_in_unit_interval(self):
        model = tiny_model(capsule=False)
        inst = make_instance(["alpha", "E1", "E2"], L=10, M=2)
        a = take_rows(model.activations([inst]), 0)
        assert a.shape == (model.E,)
        assert np.all((a.data > 0) & (a.data < 1))

    def test_inconsistent_config_rejected(self):
        from capsrel.config import ConfigError
        with pytest.raises(ConfigError, match=r"^M must be 2 or 4, got 3"):
            TrainConfig(M=3)

    def test_replace_checks_the_new_value(self):
        from capsrel.config import ConfigError
        with pytest.raises(ConfigError, match=r"^threshold must be in \(0, 1\)"):
            dataclasses.replace(TrainConfig(), threshold=1.5)

    def test_fields_cannot_be_assigned(self):
        cfg = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.threshold = 1.5

    @pytest.mark.parametrize("field,value", [
        ("B", "4"), ("B", True), ("B", 4.0), ("word_att", 1), ("lr", "0.1"),
        ("lr", False), ("pair_diff", None), ("routing_iters", "3")])
    def test_mistyped_field_rejected_naming_field_and_type(self, field, value):
        from capsrel.config import ConfigError
        with pytest.raises(ConfigError,
                           match=rf"^{field} must be .*got {type(value).__name__}"):
            TrainConfig(**{field: value})

    def test_float_field_takes_an_integer(self):
        assert TrainConfig(lr=1, dropout=0).lr == 1

    def test_run_config_leaves_the_callers_dict_unchanged(self):
        obj = {"train": {"B": 4}, "C": 2}
        cfg = RunConfig.from_dict(obj)
        assert (cfg.train.B, cfg.train.C) == (4, 2)
        assert obj == {"train": {"B": 4}, "C": 2}


class TestPooledHeadNode:
    """The -Capsule head is one tape node against mean pool, dense layer
    and sigmoid composed; b may not require grad, and a weight scale of
    1e3 saturates the sigmoid."""

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.sampled_from([1.0, 1e3]), st.booleans(), st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_matches_composed_graph(self, n, width, E, scale, bias_grad, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(size=(n, width)),
                  rng.normal(size=(width, E)) * scale, rng.normal(size=E)]
        check_fused_node(lambda x, W, b: _pooled_head(x, W, b, [n]),
                         lambda x, W, b: reshape(pooled_head_composed(x, W, b),
                                                 (1, E)), arrays,
                         [True, True, bias_grad],
                         central_differences=scale == 1.0)


class TestCheckpointBoundary:
    def test_missing_parameters_are_named(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), tiny_model())
        header, body = split(path.read_bytes())
        path.write_bytes(join_entries(header, [
            e for e in entries(header, body)
            if e[0] not in ("caps_Wc", "lstm_bwd_b")]))
        with pytest.raises(ContractViolation, match=(
                r'params\[\d+\] is .*, not \{"name": "caps_Wc"')):
            load_checkpoint(str(path), tiny_store())

    @pytest.mark.parametrize("version", [None, 0, 2, "1"])
    def test_unknown_version_rejected(self, tmp_path, version):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), tiny_model())
        header, body = split(path.read_bytes())
        if version is None:
            del header["version"]
        else:
            header["version"] = version
        path.write_bytes(join(header, body))
        with pytest.raises(ContractViolation, match="version"):
            load_checkpoint(str(path), tiny_store())

    def test_relation_order_mismatch_names_both_lists(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, tiny_model())
        store = tiny_store()
        store.relation_names = ["R2", "R1", "NA"]
        with pytest.raises(ContractViolation, match=(
                r'\["NA", "R1", "R2"\].*\["R2", "R1", "NA"\]')):
            load_checkpoint(path, store)


class TestBagAccuracy:
    def test_perfectly_scored_bags(self):
        model = tiny_model()
        bags = [single_instance_bag(model, ("alpha", "E1", "E2"), (l,))
                for l in (0, 1, 2)]
        with no_grad():
            preds = [int(model.bag_scores(b).argmax()) for b in bags]
        expected = np.mean([p in b.labels for p, b in zip(preds, bags)])
        assert bag_top1_accuracy(model, bags) == expected
