"""Named parameter storage, adaptive-moment updates, and checkpoint I/O."""

import json
import os

import numpy as np

from ..benchmarks import json_numbers
from .tape import Node

CHECKPOINT_VERSION = 2
RECORD_KEYS = ("name", "shape", "values")
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # Adam's decay rates and offset


class CheckpointError(ValueError):
    """Raised when a checkpoint file is missing, malformed, or incompatible."""


class Parameter:
    __slots__ = ("value", "m1", "m2")

    def __init__(self, value):
        self.value = np.atleast_2d(np.asarray(value, dtype=np.float64)).copy()
        self.m1 = np.zeros_like(self.value)
        self.m2 = np.zeros_like(self.value)


class ParameterStore:
    """Mapping from unique names to parameters with Adam moments.

    step counts the number of adam_step applications, for bias correction.
    Moments and step live in memory only: training always starts from
    init_policy, so a checkpoint holds parameter values alone.
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
        """Fresh graph leaf for a parameter, tagged with its name for backward()."""
        return Node(self[name].value, param=name)


def uniform_init(rng: np.random.Generator, rows: int, cols: int, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(rows, cols))


def add_dense(store: ParameterStore, rng: np.random.Generator, layer: str,
              fan_in: int, fan_out: int) -> None:
    store.add(f"{layer}.W", uniform_init(rng, fan_in, fan_out, fan_in))
    store.add(f"{layer}.b", uniform_init(rng, 1, fan_out, fan_in))


def adam_step(store: ParameterStore, grads: dict, learning_rate: float) -> None:
    """Bias-corrected adaptive-moment update of every parameter from grads,
    a {name: gradient} dict as backward() returns it; a parameter missing
    from grads steps with a zero gradient.  Counts the step in store.step."""
    store.step += 1
    c1 = 1.0 - BETA1 ** store.step
    c2 = 1.0 - BETA2 ** store.step
    for name, p in store.params.items():
        g = grads.get(name, 0.0)
        p.m1 *= BETA1
        p.m1 += (1.0 - BETA1) * g
        p.m2 *= BETA2
        p.m2 += (1.0 - BETA2) * g * g
        p.value -= learning_rate * (p.m1 / c1) / (np.sqrt(p.m2 / c2) + EPS)


def save_checkpoint(store: ParameterStore, path: str) -> None:
    """Write one JSON record (name, shape, values) per parameter; float64
    values round-trip exactly.  A non-finite value or moment raises
    CheckpointError, since either means training blew up.  A failed write
    leaves `path` as it was and no temporary file."""
    records = []
    for name in sorted(store.params):
        p = store.params[name]
        if not all(np.isfinite(a).all() for a in (p.value, p.m1, p.m2)):
            raise CheckpointError(
                f"refusing to write {path}: parameter {name} is not finite")
        records.append(dict(zip(RECORD_KEYS, (
            name, list(p.value.shape), p.value.ravel().tolist()))))
    doc = {"format_version": CHECKPOINT_VERSION, "parameters": records}
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(json.dumps(doc))   # dumps uses the C encoder, dump never does
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path: str) -> ParameterStore:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise CheckpointError(f"corrupt checkpoint {path}: {err}") from None
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint {path} has format_version={version!r}, "
                              f"expected {CHECKPOINT_VERSION}")
    records = doc.get("parameters")
    if type(records) is not list or not records:
        raise CheckpointError(f"checkpoint {path} contains no parameters list")
    store = ParameterStore()
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise CheckpointError(
                f"checkpoint {path}: parameter record #{i} is not a JSON object")
        name = rec.get("name", f"#{i}")
        if type(name) is not str:
            raise CheckpointError(f"checkpoint {path}: parameter #{i} name is not a string")
        if name in store.params:
            raise CheckpointError(f"checkpoint {path}: parameter {name} appears twice")
        missing = [key for key in RECORD_KEYS if key not in rec]
        if missing:
            raise CheckpointError(
                f"checkpoint {path}: parameter {name} has no {missing[0]!r}")
        try:
            value = json_numbers(rec, "values")
        except (OverflowError, ValueError) as err:   # an integer beyond float64
            raise CheckpointError(f"checkpoint {path}: parameter {name}: {err}") from None
        shape = rec["shape"]   # numpy would infer a -1 entry and take [4] or [true, 4]
        if type(shape) is not list or len(shape) != 2 or not all(
                type(n) is int and n >= 1 for n in shape):
            raise CheckpointError(f"checkpoint {path}: parameter {name} shape must be "
                                  f"two integers >= 1, got {shape!r}")
        try:
            value = value.reshape(shape)
        except ValueError as err:
            raise CheckpointError(f"checkpoint {path}: parameter {name} does not "
                                  f"fit its shape: {err}") from None
        if not np.isfinite(value).all():
            raise CheckpointError(f"checkpoint {path}: parameter {name} is not finite")
        store.add(name, value)
    return store
