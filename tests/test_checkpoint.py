"""The binary checkpoint container: layout, determinism, malformed files."""

import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsrel import encoder
from capsrel.autodiff import ContractViolation
from capsrel.config import TrainConfig
from capsrel.data import Bag
from capsrel.model import MAGIC, Model, load_checkpoint, save_checkpoint
from helpers import (make_instance, param_count, tiny_model, tiny_store,
                     write_json_checkpoint)


def split(data: bytes) -> tuple[dict, bytes]:
    """(header, parameter bytes) of a well-formed checkpoint."""
    (n,) = struct.unpack("<Q", data[8:16])
    return json.loads(data[16:16 + n]), data[16 + n + (-(16 + n) % 8):]


def join(header: dict, body: bytes) -> bytes:
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return (MAGIC + struct.pack("<Q", len(text)) + text
            + bytes(-(16 + len(text)) % 8) + body)


def entries(header: dict, body: bytes) -> list[tuple[str, list, bytes]]:
    """(name, shape, raw bytes) of each parameter-table entry."""
    return [(e["name"], e["shape"],
             body[e["offset"]:e["offset"] + 8 * math.prod(e["shape"])])
            for e in header["params"]]


def join_entries(header: dict, items) -> bytes:
    """`join` with the table and the body rebuilt from (name, shape, raw)."""
    table, offset = [], 0
    for name, shape, raw in items:
        table.append({"name": name, "shape": shape, "offset": offset})
        offset += len(raw)
    return join(dict(header, params=table), b"".join(raw for *_, raw in items))


def perturbed(model: Model) -> Model:
    """`model` with parameters no fresh model of its config starts from."""
    rng = np.random.default_rng(99)
    for p in model.params.values():
        p.data += rng.normal(scale=0.01, size=p.shape)
    return model


class TestLayout:
    def test_header_table_and_raw_little_endian_buffers(self, tmp_path):
        path = tmp_path / "m.ckpt"
        model = tiny_model(dropout=0.3)
        save_checkpoint(str(path), model, extra={"epoch": 3})
        data = path.read_bytes()
        assert data[:8] == MAGIC
        header, body = split(data)
        assert (len(data) - len(body)) % 8 == 0
        assert join(header, body) == data
        assert header["extra"] == {"epoch": 3}
        assert header["version"] == 1
        names = [e["name"] for e in header["params"]]
        assert names == sorted(model.params)
        assert len(body) == 8 * param_count(model)
        for entry in header["params"]:
            p = model.params[entry["name"]].data
            assert entry["shape"] == list(p.shape)
            raw = body[entry["offset"]:entry["offset"] + p.nbytes]
            assert raw == p.astype("<f8").tobytes()

    def test_round_trip_restores_parameters_and_dropout_state(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        model = perturbed(tiny_model(dropout=0.3))
        model.dropout_rng.random(5)
        save_checkpoint(path, model)
        loaded = load_checkpoint(path, tiny_store())
        for name, p in model.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes()
        assert (loaded.dropout_rng.bit_generator.state
                == model.dropout_rng.bit_generator.state)

    def test_paper_shape_save_load_save_is_byte_identical(self, tmp_path):
        # B=300, C=32, d=8 are the defaults; E=53 relations as published
        store = tiny_store(d_w=50, n_relations=53)
        model = perturbed(Model(TrainConfig(seed=3), store))
        assert (model.config.B, model.config.C, model.config.d, model.E) \
            == (300, 32, 8, 53)
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(str(first), model, extra={"epoch": 0})
        loaded = load_checkpoint(str(first), store)
        save_checkpoint(str(second), loaded, extra={"epoch": 0})
        assert first.read_bytes() == second.read_bytes()
        inst = make_instance(["alpha", "E1", "beta", "E2"], L=120, M=2)
        bag = Bag(key=inst.key, instances=[inst], labels={1})
        assert (model.bag_scores(bag).tobytes()
                == loaded.bag_scores(bag).tobytes())


class TestAtomicSave:
    def test_a_save_that_raises_partway_leaves_no_temporary_file(self,
                                                               tmp_path):
        # word_emb is the last buffer: the header and every other one are
        # written before it fails to convert
        path = tmp_path / "model.ckpt"
        model = tiny_model()
        save_checkpoint(str(path), model)
        before = path.read_bytes()
        model.params["word_emb"].data = np.array([["not a number"]])
        with pytest.raises(ValueError):
            save_checkpoint(str(path), model)
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        assert path.read_bytes() == before


class TestBoundary:
    def test_unknown_config_field_is_named(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), tiny_model())
        header, body = split(path.read_bytes())
        header["config"]["colour"] = "red"
        path.write_bytes(join(header, body))
        with pytest.raises(ContractViolation, match=r"m\.ckpt.*'colour'"):
            load_checkpoint(str(path), tiny_store())

    def test_mistyped_config_field_is_named(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), tiny_model())
        header, body = split(path.read_bytes())
        header["config"]["B"] = "3"
        path.write_bytes(join(header, body))
        with pytest.raises(ContractViolation, match=r"m\.ckpt.*\bB must be int"):
            load_checkpoint(str(path), tiny_store())

    @pytest.mark.parametrize("state", [
        "x", {"bit_generator": "PCG64"},
        {"bit_generator": "MT19937", "state": {"key": [1], "pos": 0}}])
    def test_bad_dropout_rng_state_is_named(self, tmp_path, state):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), tiny_model())
        header, body = split(path.read_bytes())
        header["dropout_rng_state"] = state
        path.write_bytes(join(header, body))
        with pytest.raises(ContractViolation,
                           match=r"m\.ckpt: invalid dropout_rng_state"):
            load_checkpoint(str(path), tiny_store())

    def test_shape_with_equal_size_caught_by_the_state_schema(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), tiny_model())
        header, body = split(path.read_bytes())
        i, entry = next((i, e) for i, e in enumerate(header["params"])
                        if e["name"] == "caps_Wb")
        expected = dict(entry)
        entry["shape"] = entry["shape"][::-1]
        path.write_bytes(join(header, body))
        with pytest.raises(ContractViolation, match=re.escape(
                f"m.ckpt: params[{i}] is {json.dumps(entry, sort_keys=True)}, "
                f"not {json.dumps(expected, sort_keys=True)}")):
            load_checkpoint(str(path), tiny_store())

    def test_params_entries_in_another_key_order_load(self, tmp_path):
        path = tmp_path / "m.ckpt"
        model = perturbed(tiny_model())
        save_checkpoint(str(path), model)
        header, body = split(path.read_bytes())
        header["params"] = [{"shape": e["shape"], "offset": e["offset"],
                             "name": e["name"]} for e in header["params"]]
        text = json.dumps(header).encode("utf-8")
        assert b'{"shape": ' in text
        path.write_bytes(MAGIC + struct.pack("<Q", len(text)) + text
                         + bytes(-(16 + len(text)) % 8) + body)
        loaded = load_checkpoint(str(path), tiny_store())
        for name, p in model.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes()


class TestAllocationOnlyLoad:
    def test_load_makes_no_glorot_draw(self, tmp_path, monkeypatch):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, tiny_model())
        draws = []
        draw = encoder.glorot_uniform
        monkeypatch.setattr(encoder, "glorot_uniform",
                            lambda *args: draws.append(args) or draw(*args))
        load_checkpoint(path, tiny_store())
        assert draws == []
        tiny_model()
        assert draws  # the counter sees the draws of a fresh model

    def test_load_peak_memory_is_one_copy_of_the_parameters(self, tmp_path):
        store = tiny_store(d_w=50, n_relations=53)
        model = Model(TrainConfig(B=100, seed=3), store)
        param_bytes = 8 * param_count(model)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model)
        del model
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path, store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * param_count(loaded) == param_bytes
        assert peak < 1.5 * param_bytes


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A tiny checkpoint's bytes, the same model as a JSON checkpoint, and a
    scratch directory for mutants."""
    root = tmp_path_factory.mktemp("ckpt")
    model = tiny_model(dropout=0.3)
    save_checkpoint(str(root / "good.ckpt"), model, extra={"epoch": 1})
    write_json_checkpoint(root / "old.ckpt", model)
    return ((root / "good.ckpt").read_bytes(),
            (root / "old.ckpt").read_bytes(), root)


MUTANTS = ("truncate", "magic", "json", "length", "not_json", "not_object",
           "padding", "offset", "overlap", "shape", "swap_names", "trailing",
           "unknown_name", "drop_entry", "version", "relation_order")
# the field each mutant's message names, where only one field can be at fault
FIELDS = {"magic": "magic", "json": "JSON checkpoints are no longer read",
          "length": "header length", "not_json": "header",
          "not_object": "header", "padding": "header padding",
          "offset": "offset", "overlap": "offset", "swap_names": "name",
          "trailing": "params", "unknown_name": "params",
          "drop_entry": "params", "version": "version",
          "relation_order": "relation_names"}


def mutate(draw, kind: str, good: bytes, old_json: bytes) -> bytes:
    header, body = split(good)
    table = header["params"]
    n = struct.unpack("<Q", good[8:16])[0]
    if kind == "truncate":
        return good[:draw(st.integers(0, len(good) - 1))]
    if kind == "magic":
        i = draw(st.integers(0, 7))
        b = draw(st.integers(0, 255).filter(lambda b: b != good[i]))
        return good[:i] + bytes([b]) + good[i + 1:]
    if kind == "json":
        return old_json
    if kind == "length":
        past = draw(st.integers(len(good) - 15, 2 ** 64 - 1))
        return good[:8] + struct.pack("<Q", past) + good[16:]
    if kind == "not_json":
        text = draw(st.binary(min_size=n, max_size=n))
        try:
            json.loads(text)
        except ValueError:
            return good[:16] + text + good[16 + n:]
        text = b"{" * n
        return good[:16] + text + good[16 + n:]
    if kind == "not_object":
        text = draw(st.sampled_from([b"[]", b"1", b'"x"', b"null", b"true"]))
        return good[:16] + text.ljust(n) + good[16 + n:]
    if kind == "padding":
        # widen the header with spaces so that 7 padding bytes follow it
        text = json.dumps(header, sort_keys=True).encode("utf-8")
        text += b" " * ((1 - 16 - len(text)) % 8)
        pad = bytearray(7)
        pad[draw(st.integers(0, 6))] = draw(st.integers(1, 255))
        return (MAGIC + struct.pack("<Q", len(text)) + text + bytes(pad)
                + body)
    if kind == "trailing":
        return good + draw(st.binary(min_size=1, max_size=16))
    if kind == "unknown_name":
        items = entries(header, body)
        name = draw(st.text(min_size=1, max_size=8).filter(
            lambda n: n not in {e[0] for e in items}))
        shape = draw(st.lists(st.integers(0, 3), max_size=2))
        items.append((name, shape, bytes(8 * math.prod(shape))))
        return join_entries(header, sorted(items))
    if kind == "drop_entry":
        items = entries(header, body)
        del items[draw(st.integers(0, len(items) - 1))]
        return join_entries(header, items)
    if kind == "version":
        version = draw(st.sampled_from([None, 0, 2, "1", 1.0, True, [1]]))
        if version is None:
            del header["version"]
        else:
            header["version"] = version
        return join(header, body)
    if kind == "relation_order":
        names = header["relation_names"]
        header["relation_names"] = draw(
            st.permutations(names).filter(lambda p: p != names))
        return join(header, body)
    i = draw(st.integers(0, len(table) - 1))
    if kind == "offset":
        right = table[i]["offset"]
        table[i]["offset"] = draw(st.one_of(
            st.integers(-8, len(body) + 8), st.floats(), st.text(max_size=3),
            st.none()).filter(lambda o: o != right or type(o) is not int))
    elif kind == "overlap":
        i = max(i, 1)
        table[i]["offset"] = draw(st.integers(0, table[i]["offset"] - 1))
    elif kind == "shape":
        old = table[i]["shape"]
        table[i]["shape"] = draw(st.one_of(
            st.just(old[::-1]), st.just(old + [1]), st.just(old[1:]),
            st.just([1] + old), st.just([1] * 70),
            st.lists(st.integers(-2, 40), max_size=3),
            st.just(old[:-1] + [-1]), st.just(str(old)),
            st.just([float(k) for k in old])
        ).filter(lambda s: json.dumps(s) != json.dumps(old)))
    elif kind == "swap_names":
        j = draw(st.integers(0, len(table) - 1).filter(lambda j: j != i))
        table[i]["name"], table[j]["name"] = table[j]["name"], table[i]["name"]
    return join(header, body)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_malformed_checkpoint_raises_contract_violation_naming_path(saved,
                                                                   data):
    good, old_json, root = saved
    kind = data.draw(st.sampled_from(MUTANTS), label="kind")
    mutant = mutate(data.draw, kind, good, old_json)
    assert mutant != good
    path = root / "mutant.ckpt"
    path.write_bytes(mutant)
    with pytest.raises(ContractViolation) as info:
        load_checkpoint(str(path), tiny_store())
    message = str(info.value)
    assert message.startswith(f"{path}: ")
    assert FIELDS.get(kind, "") in message


class TestHeaderEqualsLayout:
    """The header's keys are exactly the six save writes, and its table is
    the one save writes for its config: anything else is named."""

    @pytest.fixture()
    def saved_parts(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), tiny_model(dropout=0.3), extra={"epoch": 0})
        return (path, *split(path.read_bytes()))

    @pytest.mark.parametrize("key", ["config", "dropout_rng_state", "extra",
                                     "params", "relation_names", "version"])
    def test_missing_header_key_is_named(self, saved_parts, key):
        path, header, body = saved_parts
        del header[key]
        path.write_bytes(join(header, body))
        with pytest.raises(ContractViolation,
                           match=rf"m\.ckpt: header lacks keys \['{key}'\]"):
            load_checkpoint(str(path), tiny_store())

    def test_unknown_header_key_is_named(self, saved_parts):
        path, header, body = saved_parts
        header["colour"] = "red"
        path.write_bytes(join(header, body))
        with pytest.raises(ContractViolation,
                           match=r"m\.ckpt: header .*unknown keys \['colour'\]"):
            load_checkpoint(str(path), tiny_store())

    def test_config_lacking_fields_is_named(self, saved_parts):
        # a partial config would load with the defaults lr 0.001, threshold 0.7
        path, header, body = saved_parts
        del header["config"]["lr"], header["config"]["threshold"]
        path.write_bytes(join(header, body))
        with pytest.raises(ContractViolation, match=(
                r"m\.ckpt: config lacks fields \['lr', 'threshold'\]")):
            load_checkpoint(str(path), tiny_store())

    @pytest.mark.parametrize("where", ["inside", "past_the_end"])
    def test_duplicated_entry_is_named(self, saved_parts, where):
        path, header, body = saved_parts
        items = entries(header, body)
        at = 2 if where == "inside" else len(items)
        items.insert(at, items[at - 1])
        path.write_bytes(join_entries(header, items))
        with pytest.raises(ContractViolation, match=(
                rf'm\.ckpt: params\[{at}\] is {{"name": "{items[at][0]}", ')):
            load_checkpoint(str(path), tiny_store())

    def test_unknown_entry_past_the_end_is_named(self, saved_parts):
        path, header, body = saved_parts
        items = entries(header, body) + [("zz", [1], bytes(8))]
        path.write_bytes(join_entries(header, items))
        with pytest.raises(ContractViolation, match=(
                rf'm\.ckpt: params\[{len(items) - 1}\] is {{"name": "zz", '
                r'"offset": \d+, "shape": \[1\]}, past the expected end')):
            load_checkpoint(str(path), tiny_store())

    @pytest.mark.parametrize("kw,name", [
        ({"word_att": False}, "lstm_bwd_Wx"), ({"capsule": False}, "head_W"),
        ({"M": 4}, "pos_emb_3")])
    def test_other_model_shapes_round_trip_and_reject_a_shape(self, tmp_path,
                                                              kw, name):
        store = tiny_store()
        model = perturbed(tiny_model(store=store, **kw))
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(str(first), model, extra={"epoch": 2})
        save_checkpoint(str(second), load_checkpoint(str(first), store),
                        extra={"epoch": 2})
        assert first.read_bytes() == second.read_bytes()
        header, body = split(first.read_bytes())
        entry = next(e for e in header["params"] if e["name"] == name)
        entry["shape"] = entry["shape"] + [1]
        first.write_bytes(join(header, body))
        with pytest.raises(ContractViolation, match=(
                rf'a\.ckpt: params\[\d+\] is {{"name": "{name}", .*\}}, '
                'not ')):
            load_checkpoint(str(first), store)
