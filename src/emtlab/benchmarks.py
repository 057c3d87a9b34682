"""Rotated and shifted black-box test functions and the generated
multitask problem set.

Seven base functions, each minimized at value 0:

    Sphere       sum(z_i^2)                                   x in [-100, 100]
    Rosenbrock   sum_{i<D} 100(z_i^2 - z_{i+1})^2 + (z_i-1)^2 x in [-50, 50]
    Ackley       -20 exp(-0.2 sqrt(mean(z^2)))
                 - exp(mean(cos(2 pi z))) + 20 + e            x in [-50, 50]
    Rastrigin    sum(z_i^2 - 10 cos(2 pi z_i) + 10)           x in [-50, 50]
    Griewank     1 + sum(z_i^2)/4000 - prod(cos(z_i/sqrt(i))) x in [-100, 100]
    Weierstrass  sum_i sum_k a^k cos(2 pi b^k (z_i + 0.5))
                 - D sum_k a^k cos(pi b^k),
                 a=0.5, b=3, k_max=20                         x in [-0.5, 0.5]
    Schwefel     418.9829 D - sum(z_i sin(sqrt|z_i|))         x in [-500, 500]

Weierstrass phases reach 2 pi 3^20 (z_i + 0.5), so they are reduced
exactly before any cosine: u = z_i + 0.5 (a double) less its floor, in
units of 2^-60, times 3^k in wrapping 64-bit integers and masked to 60
bits, is the fraction of 3^k u.  np.cos runs only for k = 0, 3, ..., 18;
k + 1 and k + 2 follow from cos 3x = cos x (4 cos^2 x - 3).  A row agrees
to 1.4e-14 at D = 50 with the same phases reduced in exact arithmetic,
where phases rounded as doubles erred by up to 2e-11 at |z| <= 1.2 and
8e-10 at |z| <= 60; a row with a NaN or infinite entry gives NaN.

Each sub-task evaluates f(W^T (x - s)) for a random orthogonal W (a
product of Householder reflections) and a shift vector s drawn inside a
level-scaled copy of the search box.  Populations live in a unified
[0, 1]^D encoding that is affinely decoded to the task's own box.

A problem set is built from all 127 non-empty subsets of the seven
functions; for each subset one instance of K sub-tasks is generated, each
sub-task's function drawn with replacement from the subset.  The five
shift levels (vs, s, m, l, vl) give 5 x 127 = 635 instances total.
"""

import base64
import enum
import json
import math
import os
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .seeds import derive_rng


class BasicFunction(enum.Enum):
    SPHERE = 1
    ROSENBROCK = 2
    ACKLEY = 3
    RASTRIGIN = 4
    GRIEWANK = 5
    WEIERSTRASS = 6
    SCHWEFEL = 7

    @property
    def key(self) -> str:
        return self.name.lower()


SEARCH_BOUNDS = {
    BasicFunction.SPHERE: (-100.0, 100.0),
    BasicFunction.ROSENBROCK: (-50.0, 50.0),
    BasicFunction.ACKLEY: (-50.0, 50.0),
    BasicFunction.RASTRIGIN: (-50.0, 50.0),
    BasicFunction.GRIEWANK: (-100.0, 100.0),
    BasicFunction.WEIERSTRASS: (-0.5, 0.5),
    BasicFunction.SCHWEFEL: (-500.0, 500.0),
}

SHIFT_LEVELS = {"vs": 0.05, "s": 0.1, "m": 0.2, "l": 0.3, "vl": 0.4}

_W_A, _W_B, _W_KMAX = 0.5, 3.0, 20
_W_POWERS_A = _W_A ** np.arange(_W_KMAX + 1)
# constant inner sum of the Weierstrass offset term, sum_k a^k cos(pi b^k)
_W_OFFSET = float(np.sum(_W_POWERS_A * np.cos(np.pi * _W_B ** np.arange(_W_KMAX + 1))))
# 3^k for k = 0, 3, ..., 18, the terms that call np.cos
_W_POW3 = 3 ** np.arange(0, _W_KMAX + 1, 3, dtype=np.uint64)
_W_MASK = np.uint64(2 ** 60 - 1)


def evaluate_basic_batch(fid: BasicFunction, z: np.ndarray) -> np.ndarray:
    """Evaluate one base function on each row of z, shape (n, D) -> (n,)."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    d = z.shape[1]
    if fid is BasicFunction.SPHERE:
        return np.sum(z * z, axis=1)
    if fid is BasicFunction.ROSENBROCK:
        a, b = z[:, :-1], z[:, 1:]
        return np.sum(100.0 * (a * a - b) ** 2 + (a - 1.0) ** 2, axis=1)
    if fid is BasicFunction.ACKLEY:
        term1 = -20.0 * np.exp(-0.2 * np.sqrt(np.mean(z * z, axis=1)))
        term2 = -np.exp(np.mean(np.cos(2.0 * np.pi * z), axis=1))
        return term1 + term2 + 20.0 + math.e
    if fid is BasicFunction.RASTRIGIN:
        return np.sum(z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0, axis=1)
    if fid is BasicFunction.GRIEWANK:
        idx = np.sqrt(np.arange(1, d + 1, dtype=np.float64))
        return (1.0 + np.sum(z * z, axis=1) / 4000.0
                - np.prod(np.cos(z / idx), axis=1))
    if fid is BasicFunction.WEIERSTRASS:
        # exact phase reduction (module docstring); uint64 wraps mod 2^64,
        # a multiple of 2^60
        finite = np.isfinite(z)
        u = np.where(finite, z + 0.5, 0.0)          # no NaN reaches the cast
        m = np.rint((u - np.floor(u)) * 2.0 ** 60).astype(np.uint64)
        frac = (m[..., None] * _W_POW3) & _W_MASK   # (n, D, 7)
        c = np.empty(frac.shape + (3,))
        c0 = np.multiply(frac, 2.0 * np.pi / 2.0 ** 60, out=c[..., 0])
        np.cos(c0, out=c0)
        # cos 3x = cos x (4 cos^2 x - 3) gives k + 1 and k + 2; in place,
        # since fresh temporaries of this size cost more than the arithmetic
        q = np.empty(frac.shape)
        for j in (1, 2):
            np.square(c[..., j - 1], out=q)
            q *= 4.0
            q -= 3.0
            np.multiply(c[..., j - 1], q, out=c[..., j])
        c *= _W_POWERS_A.reshape(7, 3)
        total = np.sum(c.sum(axis=(2, 3)), axis=1) - d * _W_OFFSET
        return np.where(finite.all(axis=1), total, np.nan)
    if fid is BasicFunction.SCHWEFEL:
        return 418.9829 * d - np.sum(z * np.sin(np.sqrt(np.abs(z))), axis=1)
    raise ValueError(f"unknown function: {fid}")


def make_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random orthogonal matrix: a product of d Householder reflections,
    each from an independently drawn random unit vector."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    w = np.eye(d)
    for _ in range(d):
        v = rng.standard_normal(d)
        norm = np.linalg.norm(v)
        while norm < 1e-12:
            v = rng.standard_normal(d)
            norm = np.linalg.norm(v)
        v /= norm
        w -= 2.0 * np.outer(v, v @ w)
    return w


def make_shift(level: float, lb: float, ub: float, d: int,
               rng: np.random.Generator) -> np.ndarray:
    """Shift vector s = level * (lb + U[0,1]^d * (ub - lb)), componentwise."""
    if not lb < ub:
        raise ValueError("need lb < ub")
    return level * (lb + rng.random(d) * (ub - lb))


def decode(u: np.ndarray, lb: float, ub: float) -> np.ndarray:
    """Map unified coordinates in [0, 1] to [lb, ub]; out-of-range inputs
    are clamped to the unit box first."""
    u = np.clip(np.asarray(u, dtype=np.float64), 0.0, 1.0)
    return lb + u * (ub - lb)


@dataclass
class SubTaskDefinition:
    """One minimization task: f(W^T (x - s)) on [lb, ub]^dim."""
    function: BasicFunction
    dim: int
    rotation: np.ndarray
    shift: np.ndarray
    lb: float
    ub: float

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.shift = np.asarray(self.shift, dtype=np.float64)
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not -np.inf < self.lb < self.ub < np.inf:
            raise ValueError(f"need finite lb < ub, got {self.lb} and {self.ub}")
        if not np.isfinite(self.ub - self.lb):     # decode would give NaN
            raise ValueError(f"box width ub - lb overflows: lb={self.lb}, ub={self.ub}")
        if self.rotation.shape != (self.dim, self.dim):
            raise ValueError("rotation shape mismatch")
        if self.shift.shape != (self.dim,):
            raise ValueError("shift shape mismatch")
        for name, value in (("rotation", self.rotation), ("shift", self.shift)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} holds a non-finite value")
        ortho_err = np.abs(self.rotation.T @ self.rotation - np.eye(self.dim)).max()
        if ortho_err > 1e-10:
            raise ValueError(f"rotation is not orthogonal (deviation {ortho_err:.2e})")


def evaluate_subtask_batch(defn: SubTaskDefinition, u: np.ndarray) -> np.ndarray:
    """Fitness of each row of unified-space positions u, shape (n, D) -> (n,)."""
    x = decode(np.atleast_2d(u), defn.lb, defn.ub)
    z = (x - defn.shift) @ defn.rotation  # row form of W^T (x - s)
    return evaluate_basic_batch(defn.function, z)


@dataclass
class MTOInstance:
    """A bundle of K sub-tasks solved jointly in one run."""
    instance_id: str
    shift_level: float
    combination: tuple
    sub_tasks: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.sub_tasks) < 2:
            raise ValueError("an instance needs at least 2 sub-tasks")
        if not self.combination:
            raise ValueError("combination must be non-empty")
        combo = set(self.combination)
        for st in self.sub_tasks:
            if st.function not in combo:
                raise ValueError(
                    f"sub-task function {st.function} outside combination")
        if len({st.dim for st in self.sub_tasks}) > 1:
            raise ValueError(f"sub-task dims {[st.dim for st in self.sub_tasks]} "
                             "differ; an instance is one unified search space")

    @property
    def n_tasks(self) -> int:
        return len(self.sub_tasks)


def enumerate_combinations():
    """All 127 non-empty subsets of the seven functions, ordered by subset
    size then lexicographically by function id."""
    fns = sorted(BasicFunction, key=lambda f: f.value)
    out = []
    for size in range(1, len(fns) + 1):
        out.extend(combinations(fns, size))
    return out


def _build_instance(combo, level: float, n_tasks: int, dim: int,
                    rng: np.random.Generator, instance_id: str) -> MTOInstance:
    subs = []
    combo_list = list(combo)
    for _ in range(n_tasks):
        fid = combo_list[int(rng.integers(len(combo_list)))]
        lb, ub = SEARCH_BOUNDS[fid]
        rotation = make_rotation(dim, rng)
        shift = make_shift(level, lb, ub, dim, rng)
        subs.append(SubTaskDefinition(fid, dim, rotation, shift, lb, ub))
    return MTOInstance(instance_id, level, tuple(combo), subs)


def _level_name(level: float) -> str:
    for name, value in SHIFT_LEVELS.items():
        if value == level:
            return name
    raise ValueError(f"unknown shift level: {level}")


def generate_awcci(level: float, seed: int, n_tasks: int, dim: int) -> list:
    """One instance per function combination (127 in total) at one shift
    level, fully determined by the seed."""
    name = _level_name(level)
    rng = derive_rng(seed, "awcci", name)
    return [_build_instance(combo, level, n_tasks, dim, rng, f"awcci-{name}-c{i:03d}")
            for i, combo in enumerate(enumerate_combinations(), start=1)]


def sample_instances(level: float, seed: int, n_tasks: int, dim: int,
                     count: int) -> list:
    """A random subset of `count` combinations, one instance each; used for
    small training and held-out sets."""
    combos = enumerate_combinations()
    if not 1 <= count <= len(combos):
        raise ValueError(f"count must be in [1, {len(combos)}]")
    name = _level_name(level)
    rng = derive_rng(seed, "awcci-sample", name)
    picks = sorted(rng.choice(len(combos), size=count, replace=False).tolist())
    return [_build_instance(combos[i], level, n_tasks, dim, rng,
                            f"awcci-{name}-c{i + 1:03d}") for i in picks]


def instance_to_dict(inst: MTOInstance) -> dict:
    return {
        "instance_id": inst.instance_id,
        "shift_level": inst.shift_level,
        "combination": [f.key for f in inst.combination],
        "sub_tasks": [
            {
                "function": st.function.key,
                "D": st.dim,
                "lb": st.lb,
                "ub": st.ub,
                "rotation": _encode_rotation(st.rotation),
                "shift": st.shift.tolist(),
            }
            for st in inst.sub_tasks
        ],
    }


def _function(key: str) -> BasicFunction:
    for fid in BasicFunction:
        if fid.key == key:
            return fid
    raise ValueError(f"unknown function: {key!r}")


_JSON_NUMBERS = {int, float}   # float() and numpy also read strings and bools


def _number(doc: dict, key: str) -> float:
    if type(doc[key]) not in _JSON_NUMBERS:
        raise ValueError(f"{key} must be a number, got {doc[key]!r}")
    return float(doc[key])


def json_numbers(doc: dict, key: str) -> np.ndarray:
    values = doc[key]
    if type(values) is not list or not _JSON_NUMBERS.issuperset(map(type, values)):
        raise ValueError(f"{key} must be a flat list of numbers")
    return np.array(values, dtype=np.float64)


def _encode_rotation(rotation: np.ndarray) -> str:
    """Base64 of the matrix's little-endian float64 values in row-major order."""
    return base64.b64encode(np.asarray(rotation, dtype="<f8").tobytes()).decode("ascii")


def _decode_rotation(text, d: int) -> np.ndarray:
    """The (d, d) float64 matrix that _encode_rotation wrote, as an array of
    its own: writeable and C-contiguous."""
    if type(text) is list:
        raise ValueError("rotation is a list of numbers: the file predates the "
                         "base64 float64 rotation encoding; regenerate it with "
                         "`emtlab generate`")
    if type(text) is not str:
        raise ValueError(f"rotation must be a base64 string, got {text!r}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as err:     # binascii.Error
        raise ValueError(f"rotation is not valid base64: {err}") from None
    if len(raw) != 8 * d * d:
        raise ValueError(f"rotation holds {len(raw)} bytes, D = {d} needs {8 * d * d}")
    return np.frombuffer(raw, dtype="<f8").reshape(d, d).astype(np.float64)


def instance_from_dict(doc: dict) -> MTOInstance:
    instance_id = doc["instance_id"]
    if type(instance_id) is not str or not instance_id:
        raise ValueError(f"instance_id must be a non-empty string, got {instance_id!r}")
    shift_level = _number(doc, "shift_level")
    _level_name(shift_level)      # rejects a level outside SHIFT_LEVELS
    subs = []
    for st in doc["sub_tasks"]:
        d = st["D"]
        if type(d) is not int:
            raise ValueError(f"D must be an integer, got {d!r}")
        if d < 1:
            raise ValueError(f"D must be an integer >= 1, got {d!r}")
        subs.append(SubTaskDefinition(
            _function(st["function"]), d, _decode_rotation(st["rotation"], d),
            json_numbers(st, "shift"), _number(st, "lb"), _number(st, "ub")))
    return MTOInstance(instance_id, shift_level,
                       tuple(_function(k) for k in doc["combination"]), subs)


def save_instances(instances, path: str) -> None:
    """Write a dataset file: one JSON document per line, one per instance.
    Realized rotation matrices and shift vectors are stored, not seeds:
    each rotation as one base64 string of its D*D little-endian float64
    values in row-major order, which loads bit for bit.  The lines go to a
    temporary file that replaces `path` once all are written, so a save
    that fails part way leaves the previous file as it was."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            for inst in instances:
                fh.write(json.dumps(instance_to_dict(inst)) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_instances(path: str) -> list:
    """Read a dataset file written by save_instances.  A malformed line or
    a repeated instance_id raises ValueError naming the file and its 1-based
    line number; so does a file with no instances or not UTF-8, naming it."""
    out, seen = [], {}
    with open(path) as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    inst = instance_from_dict(json.loads(line))
                except KeyError as err:
                    raise ValueError(f"{path}, line {lineno}: missing key {err}") from err
                except (ValueError, TypeError, OverflowError) as err:
                    raise ValueError(f"{path}, line {lineno}: {err}") from err
                if inst.instance_id in seen:
                    raise ValueError(f"{path}, line {lineno}: instance {inst.instance_id} "
                                     f"repeats line {seen[inst.instance_id]}")
                seen[inst.instance_id] = lineno
                out.append(inst)
        except UnicodeDecodeError as err:   # raised by the reads, not a line
            raise ValueError(f"{path} is not UTF-8 text: {err}") from None
    if not out:
        raise ValueError(f"{path} holds no instances")
    return out
