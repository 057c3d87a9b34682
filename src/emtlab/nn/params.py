"""Named parameter storage, adaptive-moment updates, and checkpoint I/O."""

import json
import os

import numpy as np

from .tape import Node

CHECKPOINT_VERSION = 1
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # Adam's decay rates and offset


class CheckpointError(ValueError):
    """Raised when a checkpoint file is missing, malformed, or incompatible."""


class Parameter:
    __slots__ = ("value", "grad", "m1", "m2")

    def __init__(self, value):
        self.value = np.atleast_2d(np.asarray(value, dtype=np.float64)).copy()
        self.grad = np.zeros_like(self.value)
        self.m1 = np.zeros_like(self.value)
        self.m2 = np.zeros_like(self.value)


class ParameterStore:
    """Mapping from unique names to parameters with grads and Adam moments.

    step counts the number of adam_step applications, for bias correction
    and checkpointing.
    """

    def __init__(self):
        self.params = {}
        self.step = 0

    def add(self, name: str, value) -> Parameter:
        if name in self.params:
            raise ValueError(f"duplicate parameter name: {name}")
        p = Parameter(value)
        self.params[name] = p
        return p

    def __getitem__(self, name) -> Parameter:
        try:
            return self.params[name]
        except KeyError:
            raise KeyError(f"unknown parameter: {name}") from None

    def leaf(self, name: str) -> Node:
        """Fresh graph leaf for a parameter; backward() adds into its grad."""
        p = self[name]
        return Node(p.value, param=p)

    def zero_grads(self):
        for p in self.params.values():
            p.grad[...] = 0.0


def uniform_init(rng: np.random.Generator, rows: int, cols: int, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(rows, cols))


def add_dense(store: ParameterStore, rng: np.random.Generator, layer: str,
              fan_in: int, fan_out: int) -> None:
    store.add(f"{layer}.W", uniform_init(rng, fan_in, fan_out, fan_in))
    store.add(f"{layer}.b", uniform_init(rng, 1, fan_out, fan_in))


def adam_step(store: ParameterStore, learning_rate: float) -> None:
    """Bias-corrected adaptive-moment update; counts the step in
    store.step and zeroes gradients afterwards."""
    store.step += 1
    c1 = 1.0 - BETA1 ** store.step
    c2 = 1.0 - BETA2 ** store.step
    for p in store.params.values():
        p.m1 *= BETA1
        p.m1 += (1.0 - BETA1) * p.grad
        p.m2 *= BETA2
        p.m2 += (1.0 - BETA2) * p.grad * p.grad
        p.value -= learning_rate * (p.m1 / c1) / (np.sqrt(p.m2 / c2) + EPS)
        p.grad[...] = 0.0


def save_checkpoint(store: ParameterStore, path: str) -> None:
    """Write one JSON record per parameter; float64 values round-trip
    exactly.  A non-finite value or moment raises CheckpointError."""
    records = []
    for name in sorted(store.params):
        p = store.params[name]
        if not all(np.isfinite(a).all() for a in (p.value, p.m1, p.m2)):
            raise CheckpointError(
                f"refusing to write {path}: parameter {name} is not finite")
        records.append({
            "name": name,
            "shape": list(p.value.shape),
            "values": p.value.ravel().tolist(),
            "moment1": p.m1.ravel().tolist(),
            "moment2": p.m2.ravel().tolist(),
            "step_count": store.step,
        })
    doc = {"format_version": CHECKPOINT_VERSION, "parameters": records}
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def load_checkpoint(path: str) -> ParameterStore:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}") from None
    except json.JSONDecodeError as err:
        raise CheckpointError(f"corrupt checkpoint {path}: {err}") from None
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format_version={version!r}, expected {CHECKPOINT_VERSION}")
    store = ParameterStore()
    for rec in doc.get("parameters", []):
        shape = tuple(rec["shape"])
        p = store.add(rec["name"], np.array(rec["values"], dtype=np.float64).reshape(shape))
        m1 = np.array(rec["moment1"], dtype=np.float64).reshape(shape)
        m2 = np.array(rec["moment2"], dtype=np.float64).reshape(shape)
        p.m1[...] = m1
        p.m2[...] = m2
        store.step = int(rec["step_count"])
    if not store.params:
        raise CheckpointError(f"checkpoint {path} contains no parameters")
    return store
