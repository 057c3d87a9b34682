"""Parameter store, adaptive-moment updates, and checkpoint round-trips."""

import json
import os

import numpy as np
import pytest

from emtlab.nn.params import (CHECKPOINT_VERSION, RECORD_KEYS,
                              CheckpointError, ParameterStore, adam_step,
                              load_checkpoint, save_checkpoint)


def make_store():
    store = ParameterStore()
    store.add("w", np.array([[0.5, -0.25], [1.5, 0.0]]))
    store.add("b", np.array([[0.1]]))
    return store


def write_format1(store, path):
    """A format-1 checkpoint, laid out as the format-1 writer laid it out."""
    records = [{"name": name, "shape": list(p.value.shape),
                "values": p.value.ravel().tolist(),
                "moment1": p.m1.ravel().tolist(),
                "moment2": p.m2.ravel().tolist(), "step_count": store.step}
               for name, p in sorted(store.params.items())]
    path.write_text(json.dumps({"format_version": 1, "parameters": records}))


class TestStore:
    def test_duplicate_name_rejected(self):
        store = make_store()
        with pytest.raises(ValueError, match="duplicate"):
            store.add("w", np.zeros((1, 1)))

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown"):
            make_store()["nope"]


class TestAdam:
    def test_zero_gradient_is_identity(self):
        store = make_store()
        before = {n: store[n].value.copy() for n in list(store.params)}
        adam_step(store, {}, 0.01)
        for n in list(store.params):
            np.testing.assert_array_equal(store[n].value, before[n])

    def test_missing_gradient_steps_as_zero_gradient(self):
        # after a first step with gradients, moments and values move; a
        # parameter absent from the dict must then move as a zero gradient
        # moves it, to the bit
        missing, zero = make_store(), make_store()
        first = {"w": np.array([[0.3, -0.7], [1e-3, -0.0]]), "b": np.array([[-2.0]])}
        for store in (missing, zero):
            adam_step(store, first, 0.01)
        g = np.array([[0.1, 0.2], [-0.3, 0.4]])
        adam_step(missing, {"w": g}, 0.01)
        adam_step(zero, {"w": g, "b": np.zeros((1, 1))}, 0.01)
        assert missing.step == zero.step == 2
        for n in ("w", "b"):
            for attr in ("value", "m1", "m2"):
                a, b = getattr(missing[n], attr), getattr(zero[n], attr)
                np.testing.assert_array_equal(a, b, err_msg=f"{n}.{attr}")
                np.testing.assert_array_equal(np.signbit(a), np.signbit(b))
        assert not np.array_equal(missing["b"].value, make_store()["b"].value)

    def test_first_step_matches_hand_computation(self):
        store = ParameterStore()
        store.add("w", np.array([[0.5]]))
        g = 0.3
        lr = 0.01
        grads = {"w": np.array([[g]])}
        adam_step(store, grads, lr)
        assert store.step == 1
        # bias-corrected first step: m_hat = g, v_hat = g^2
        expected = 0.5 - lr * g / (abs(g) + 1e-8)
        np.testing.assert_allclose(store["w"].value, [[expected]], rtol=1e-12)
        # the caller's gradients are read, not consumed
        np.testing.assert_array_equal(grads["w"], [[g]])

    def test_quadratic_descent(self):
        # repeated steps on f(w) = w^2 from w = 1 shrink |w| after warm-up;
        # the step count keeps |w| above the lr-scale floor where the
        # sign-like update would start oscillating
        store = ParameterStore()
        store.add("w", np.array([[1.0]]))
        trajectory = [1.0]
        for _ in range(50):
            adam_step(store, {"w": 2.0 * store["w"].value}, 0.01)
            trajectory.append(abs(store["w"].value.item()))
        assert all(b <= a + 1e-12 for a, b in zip(trajectory[5:], trajectory[6:]))
        assert trajectory[-1] < 0.7


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        store = ParameterStore()
        store.add("x", rng.standard_normal((3, 7)))
        store.add("y", rng.standard_normal((1, 2)) * 1e-17)
        store["x"].m1[...] = rng.standard_normal((3, 7))
        store["x"].m2[...] = rng.random((3, 7))
        store.step = 42
        path = tmp_path / "ckpt.json"
        save_checkpoint(store, str(path))
        doc = json.loads(path.read_text())
        assert doc["format_version"] == CHECKPOINT_VERSION == 2
        assert [tuple(rec) for rec in doc["parameters"]] == [RECORD_KEYS] * 2
        loaded = load_checkpoint(str(path))
        assert list(loaded.params) == ["x", "y"]
        for name in list(store.params):
            np.testing.assert_array_equal(loaded[name].value, store[name].value)
            assert np.array_equal(np.signbit(loaded[name].value),
                                  np.signbit(store[name].value))

    def test_bytes_equal_pure_python_encoder(self, tmp_path):
        # the written file is what json.dump, which always takes the
        # pure-Python encoder, makes of the documented record layout
        store = ParameterStore()
        store.add("w", [[-0.0, 5e-324, 1.7976931348623157e308, 0.1]])
        store.add("b", [[2.0 ** -1074 * 3, -1e-310, 123456789.0]])
        for p in store.params.values():
            p.m1[...] = -p.value / 3.0
            p.m2[...] = np.abs(p.value) * 0.5
        store.step = 7
        path = tmp_path / "ckpt.json"
        save_checkpoint(store, str(path))
        records = [{"name": name, "shape": list(store[name].value.shape),
                    "values": store[name].value.ravel().tolist()}
                   for name in sorted(store.params)]
        reference = tmp_path / "reference.json"
        with open(reference, "w") as fh:
            json.dump({"format_version": 2, "parameters": records}, fh)
        assert path.read_bytes() == reference.read_bytes()

    def test_format1_file_rejected(self, tmp_path):
        # format 1 also held Adam's moments and a per-record step count;
        # nothing writes it since format 2
        path = tmp_path / "v1.json"
        write_format1(make_store(), path)
        with pytest.raises(CheckpointError, match=f"format_version=1, expected "
                                                  f"{CHECKPOINT_VERSION}$") as info:
            load_checkpoint(str(path))
        assert str(path) in str(info.value)

    def test_double_round_trip_identical_bytes(self, tmp_path):
        store = make_store()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(store, str(p1))
        save_checkpoint(load_checkpoint(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("array,bad", [("value", np.nan), ("value", np.inf),
                                           ("m1", -np.inf), ("m2", np.nan)])
    def test_non_finite_parameter_refused(self, tmp_path, array, bad):
        store = make_store()
        store.add("z", np.zeros((2, 2)))
        getattr(store["z"], array)[1, 0] = bad
        store["w"].m1[0, 0] = np.nan   # sorted first: names "b", "w", "z"
        path = tmp_path / "ckpt.json"
        with pytest.raises(CheckpointError, match="parameter w is not finite"):
            save_checkpoint(store, str(path))
        store["w"].m1[0, 0] = 0.0
        with pytest.raises(CheckpointError, match="parameter z is not finite"):
            save_checkpoint(store, str(path))
        assert not path.exists() and not (tmp_path / "ckpt.json.tmp").exists()

    def test_failed_replace_keeps_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.json"
        save_checkpoint(make_store(), str(path))
        earlier = path.read_bytes()
        store = make_store()
        store["w"].value[0, 0] = 9.0

        def fail(src, dst):
            raise OSError("replace failed")
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            save_checkpoint(store, str(path))
        assert path.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(str(tmp_path / "nope.json"))

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(str(path))

    def test_file_not_utf8(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(CheckpointError, match=r"^corrupt checkpoint .*bad\.json: "
                                                  r"'utf-8' codec can't decode"):
            load_checkpoint(str(path))

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format_version": 99, "parameters": []}))
        with pytest.raises(CheckpointError, match="format_version"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("version", [True, 1.0, 2.0])
    def test_version_must_be_an_integer(self, tmp_path, version):
        # True == 1 and 2.0 == 2, so a membership test alone accepts them
        path = tmp_path / "ckpt.json"
        save_checkpoint(make_store(), str(path))
        doc = dict(json.loads(path.read_text()), format_version=version)
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="format_version") as info:
            load_checkpoint(str(path))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("spoil,error", [
        (lambda rec: rec.pop("values"), "parameter w has no 'values'"),
        (lambda rec: rec.update(values=[]), "parameter w does not fit its shape"),
        # numpy reads bools and numeric strings as numbers
        (lambda rec: rec.update(values=[True, False] * 2),
         "parameter w: values must be a flat list of numbers$"),
        (lambda rec: rec.update(values=["1e3", "2", "3", "4"]),
         "parameter w: values must be a flat list of numbers$"),
        (lambda rec: rec.update(values=True, shape=[1, 1]),
         "parameter w: values must be a flat list of numbers$"),
        (lambda rec: rec.update(values=[10 ** 400, 0, 0, 0]),
         "parameter w: int too large to convert to float$"),
        (lambda rec: rec.update(name=7), "parameter #1 name is not a string$"),
        # numpy infers a -1 entry and would load (2, 2) values as (1, 4)
        (lambda rec: rec.update(shape=[-1, 4]), r"parameter w shape must be "
         r"two integers >= 1, got \[-1, 4\]$"),
        (lambda rec: rec.update(shape=[4]), r"parameter w shape must be "
         r"two integers >= 1, got \[4\]$"),
        (lambda rec: rec.update(shape=[True, 4]), r"parameter w shape must be "
         r"two integers >= 1, got \[True, 4\]$"),
    ], ids=["missing-key", "values-size", "values-bool", "values-str",
            "values-scalar", "values-bigint", "name-int", "shape-inferred",
            "shape-one-axis", "shape-bool"])
    def test_misfit_record_names_file_and_parameter(self, tmp_path, spoil,
                                                    error):
        path = tmp_path / "ckpt.json"
        save_checkpoint(make_store(), str(path))
        doc = json.loads(path.read_text())
        spoil(doc["parameters"][1])   # sorted: "b", then "w"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=error) as info:
            load_checkpoint(str(path))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("spoil, error", [
        (lambda doc: [doc], "is not a JSON object"),
        (lambda doc: dict(doc, parameters=[[1, 2]]),
         "parameter record #0 is not a JSON object"),
        (lambda doc: dict(doc, parameters=doc["parameters"] * 2),
         "parameter b appears twice"),
        (lambda doc: dict(doc, parameters=5), "contains no parameters list$"),
    ], ids=["document", "record", "duplicate", "parameters-int"])
    def test_malformed_document_names_file(self, tmp_path, spoil, error):
        path = tmp_path / "ckpt.json"
        save_checkpoint(make_store(), str(path))
        path.write_text(json.dumps(spoil(json.loads(path.read_text()))))
        with pytest.raises(CheckpointError, match=error) as info:
            load_checkpoint(str(path))
        assert str(path) in str(info.value)

    def test_empty_parameter_list_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"format_version": 2, "parameters": []}))
        with pytest.raises(CheckpointError, match="no parameters"):
            load_checkpoint(str(path))
