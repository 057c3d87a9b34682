"""Parameter store, adaptive-moment updates, and checkpoint round-trips."""

import json

import numpy as np
import pytest

from emtlab.nn.params import (CheckpointError, ParameterStore, adam_step,
                              load_checkpoint, save_checkpoint)


def make_store():
    store = ParameterStore()
    store.add("w", np.array([[0.5, -0.25], [1.5, 0.0]]))
    store.add("b", np.array([[0.1]]))
    return store


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
        before = {n: store[n].value.copy() for n in store.names()}
        adam_step(store, 0.01, 1)
        for n in store.names():
            np.testing.assert_array_equal(store[n].value, before[n])

    def test_first_step_matches_hand_computation(self):
        store = ParameterStore()
        store.add("w", np.array([[0.5]]))
        g = 0.3
        lr = 0.01
        store["w"].grad[...] = g
        adam_step(store, lr, 1)
        # bias-corrected first step: m_hat = g, v_hat = g^2
        expected = 0.5 - lr * g / (abs(g) + 1e-8)
        np.testing.assert_allclose(store["w"].value, [[expected]], rtol=1e-12)
        # gradients zeroed afterwards
        np.testing.assert_array_equal(store["w"].grad, 0.0)

    def test_quadratic_descent(self):
        # repeated steps on f(w) = w^2 from w = 1 shrink |w| after warm-up;
        # the step count keeps |w| above the lr-scale floor where the
        # sign-like update would start oscillating
        store = ParameterStore()
        store.add("w", np.array([[1.0]]))
        trajectory = [1.0]
        for step in range(1, 51):
            store["w"].grad[...] = 2.0 * store["w"].value
            adam_step(store, 0.01, step)
            trajectory.append(abs(store["w"].value.item()))
        assert all(b <= a + 1e-12 for a, b in zip(trajectory[5:], trajectory[6:]))
        assert trajectory[-1] < 0.7

    def test_step_count_must_be_positive(self):
        with pytest.raises(ValueError, match="step_count"):
            adam_step(make_store(), 0.01, 0)


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
        loaded = load_checkpoint(str(path))
        assert loaded.step == 42
        for name in store.names():
            np.testing.assert_array_equal(loaded[name].value, store[name].value)
            np.testing.assert_array_equal(loaded[name].m1, store[name].m1)
            np.testing.assert_array_equal(loaded[name].m2, store[name].m2)

    def test_double_round_trip_identical_bytes(self, tmp_path):
        store = make_store()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(store, str(p1))
        save_checkpoint(load_checkpoint(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(str(tmp_path / "nope.json"))

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(str(path))

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format_version": 99, "parameters": []}))
        with pytest.raises(CheckpointError, match="format_version"):
            load_checkpoint(str(path))

    def test_empty_parameter_list_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"format_version": 1, "parameters": []}))
        with pytest.raises(CheckpointError, match="no parameters"):
            load_checkpoint(str(path))
