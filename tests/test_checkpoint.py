"""The binary checkpoint container: layout, determinism, malformed files."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsrel.autodiff import ContractViolation
from capsrel.config import TrainConfig
from capsrel.data import Bag
from capsrel.model import MAGIC, Model, load_checkpoint, save_checkpoint
from helpers import (make_instance, tiny_model, tiny_store,
                     write_json_checkpoint)


def split(data: bytes) -> tuple[dict, bytes]:
    """(header, parameter bytes) of a well-formed checkpoint."""
    (n,) = struct.unpack("<Q", data[8:16])
    return json.loads(data[16:16 + n]), data[16 + n + (-(16 + n) % 8):]


def join(header: dict, body: bytes) -> bytes:
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return (MAGIC + struct.pack("<Q", len(text)) + text
            + bytes(-(16 + len(text)) % 8) + body)


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
        assert len(body) == 8 * model.param_count()
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
        entry = next(e for e in header["params"] if e["name"] == "caps_Wb")
        entry["shape"] = entry["shape"][::-1]
        path.write_bytes(join(header, body))
        with pytest.raises(ContractViolation,
                           match=r"m\.ckpt: checkpoint shape .*'caps_Wb'"):
            load_checkpoint(str(path), tiny_store())


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
           "padding", "offset", "overlap", "shape", "swap_names", "trailing")
# the field each mutant's message names, where only one field can be at fault
FIELDS = {"magic": "magic", "json": "JSON checkpoints are no longer read",
          "length": "header length", "not_json": "header",
          "not_object": "header", "padding": "header padding",
          "offset": "offset", "overlap": "offset", "swap_names": "name",
          "trailing": "params"}


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
