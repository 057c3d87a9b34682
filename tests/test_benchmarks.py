"""Base functions, transformations, and problem-set generation."""

import base64
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs
from hypothesis.extra.numpy import arrays

from emtlab import benchmarks as B
from emtlab.seeds import derive_rng

ALL_FUNCTIONS = list(B.BasicFunction)
# untransformed minimizer coordinate z* with f(z*) = 0 (approximate for
# Schwefel); zero for every function not listed
MINIMIZERS = {B.BasicFunction.ROSENBROCK: 1.0, B.BasicFunction.SCHWEFEL: 420.9687}


def evaluate_one(fid, z):
    """One point through the batch evaluator."""
    return B.evaluate_basic_batch(fid, np.asarray(z, dtype=np.float64)[None])[0]


class TestBaseFunctions:
    @pytest.mark.parametrize("fid", ALL_FUNCTIONS)
    def test_zero_at_optimum(self, fid):
        z = np.full(50, MINIMIZERS.get(fid, 0.0))
        tol = 1e-2 if fid is B.BasicFunction.SCHWEFEL else 1e-8
        assert abs(evaluate_one(fid, z)) < tol

    def test_sphere_matches_hand_sum(self):
        z = np.array([1.5, -2.0, 0.5])
        assert evaluate_one(B.BasicFunction.SPHERE, z) == pytest.approx(
            1.5 ** 2 + 2.0 ** 2 + 0.5 ** 2)

    def test_rosenbrock_hand_case(self):
        # D=2, z=(0,0): 100*(0-0)^2 + (0-1)^2 = 1
        assert evaluate_one(B.BasicFunction.ROSENBROCK, [0.0, 0.0]) == 1.0

    def test_rastrigin_hand_case(self):
        # z=(0.5,): 0.25 - 10*cos(pi) + 10 = 20.25
        assert evaluate_one(B.BasicFunction.RASTRIGIN, [0.5]) == pytest.approx(20.25)

    def test_griewank_hand_case(self):
        z = np.array([2.0, 3.0])
        expected = 1.0 + (4.0 + 9.0) / 4000.0 - np.cos(2.0) * np.cos(3.0 / np.sqrt(2.0))
        assert evaluate_one(B.BasicFunction.GRIEWANK, z) == pytest.approx(expected)

    def test_weierstrass_scalar_loop_oracle(self):
        # independent scalar triple loop with a=0.5, b=3, k_max=20
        rng = np.random.default_rng(9)
        z = rng.uniform(-0.5, 0.5, 4)
        a, b, kmax = 0.5, 3.0, 20
        total = 0.0
        for zi in z:
            for k in range(kmax + 1):
                total += a ** k * np.cos(2 * np.pi * b ** k * (zi + 0.5))
        for k in range(kmax + 1):
            total -= len(z) * a ** k * np.cos(2 * np.pi * b ** k * 0.5)
        assert evaluate_one(B.BasicFunction.WEIERSTRASS, z) == pytest.approx(
            total, abs=1e-9)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        z = rng.uniform(-5, 5, (6, 8))
        for fid in ALL_FUNCTIONS:
            batch = B.evaluate_basic_batch(fid, z)
            singles = [evaluate_one(fid, row) for row in z]
            np.testing.assert_allclose(batch, singles, rtol=1e-12)


class TestRotation:
    def test_dimension_one_is_sign(self):
        w = B.make_rotation(1, derive_rng(0, "r"))
        assert w.shape == (1, 1) and abs(abs(w[0, 0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("d", [2, 5, 17, 50])
    def test_orthogonality(self, d):
        w = B.make_rotation(d, derive_rng(d, "rot"))
        assert np.abs(w.T @ w - np.eye(d)).max() < 1e-10

    def test_norm_preservation(self):
        rng = derive_rng(3, "rot")
        w = B.make_rotation(12, rng)
        for _ in range(10):
            x = rng.standard_normal(12)
            assert abs(np.linalg.norm(w @ x) - np.linalg.norm(x)) < 1e-10

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            B.make_rotation(0, derive_rng(0, "r"))


class TestShift:
    def test_level_005_bounds(self):
        s = B.make_shift(0.05, -100.0, 100.0, 1000, derive_rng(1, "s"))
        assert (s >= -5.0).all() and (s <= 5.0).all()

    def test_level_04_bounds(self):
        s = B.make_shift(0.4, -500.0, 500.0, 1000, derive_rng(2, "s"))
        assert (s >= -200.0).all() and (s <= 200.0).all()

    def test_monte_carlo_mean(self):
        level, lb, ub, n = 0.2, -50.0, 50.0, 100_000
        s = B.make_shift(level, lb, ub, n, derive_rng(3, "s"))
        expected = level * (lb + ub) / 2.0
        se = level * (ub - lb) / np.sqrt(12.0) / np.sqrt(n)
        assert abs(s.mean() - expected) < 3.0 * se

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            B.make_shift(0.1, 5.0, -5.0, 3, derive_rng(0, "s"))


class TestEncodeDecode:
    def test_zero_maps_to_lower_bound(self):
        np.testing.assert_allclose(B.decode(np.zeros(4), -7.0, 3.0), -7.0)

    def test_midpoint(self):
        assert B.decode(np.array([0.5]), -100.0, 100.0)[0] == 0.0

    def test_out_of_range_clamped(self):
        out = B.decode(np.array([-0.5, 1.5]), 0.0, 10.0)
        np.testing.assert_allclose(out, [0.0, 10.0])


# finite float64 values, with the signed zero and subnormals drawn often
FINITE_FLOATS = hs.one_of(
    hs.floats(allow_nan=False, allow_infinity=False),
    hs.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072009e-308]))


class TestRotationEncoding:
    @given(hs.integers(1, 12).flatmap(
        lambda d: arrays(np.float64, (d, d), elements=FINITE_FLOATS)))
    @example(np.array([[-0.0]]))
    @example(np.array([[5e-324, -0.0], [-2.2250738585072009e-308, 1.0]]))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_bit_equal(self, matrix):
        d = len(matrix)
        decoded = B._decode_rotation(B._encode_rotation(matrix), d)
        assert decoded.dtype == np.float64 and decoded.shape == (d, d)
        np.testing.assert_array_equal(decoded.view(np.uint64),
                                      matrix.view(np.uint64))
        assert decoded.flags.c_contiguous and decoded.flags.writeable
        assert decoded.flags.owndata

    def test_file_holds_little_endian_row_major_base64(self, tmp_path):
        path = tmp_path / "d.jsonl"
        inst = B.sample_instances(0.2, seed=3, n_tasks=2, dim=3, count=1)[0]
        B.save_instances([inst], str(path))
        stored = json.loads(path.read_text())["sub_tasks"][1]["rotation"]
        rotation = inst.sub_tasks[1].rotation
        # nine little-endian doubles, row after row
        assert base64.b64decode(stored) == struct.pack(
            "<9d", *(v for row in rotation.tolist() for v in row))

    def test_paper_dimension_rotations_load_bit_equal(self, tmp_path):
        path = tmp_path / "d.jsonl"
        original = B.sample_instances(0.2, seed=5, n_tasks=3, dim=50, count=4)
        B.save_instances(original, str(path))
        for o, l in zip(original, B.load_instances(str(path))):
            for so, sl in zip(o.sub_tasks, l.sub_tasks):
                np.testing.assert_array_equal(sl.rotation.view(np.uint64),
                                              so.rotation.view(np.uint64))
                assert sl.rotation.flags.c_contiguous

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "d.jsonl"
        B.save_instances(B.sample_instances(0.2, seed=3, n_tasks=2, dim=3,
                                            count=2), str(path))
        before = path.read_bytes()
        calls, to_dict = [], B.instance_to_dict

        def failing_third(inst):
            calls.append(inst)
            if len(calls) == 3:
                raise RuntimeError("planted")
            return to_dict(inst)
        monkeypatch.setattr(B, "instance_to_dict", failing_third)
        with pytest.raises(RuntimeError, match="planted"):
            B.save_instances(B.sample_instances(0.2, seed=4, n_tasks=2, dim=3,
                                                count=5), str(path))
        assert len(calls) == 3
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl"]


def make_subtask(fid=B.BasicFunction.SPHERE, dim=6, seed=0, level=0.1):
    rng = derive_rng(seed, "st")
    lb, ub = B.SEARCH_BOUNDS[fid]
    return B.SubTaskDefinition(fid, dim, B.make_rotation(dim, rng),
                               B.make_shift(level, lb, ub, dim, rng), lb, ub)


class TestSubTask:
    def test_shift_point_is_optimum(self):
        # decoding the encoded shift gives z = 0 exactly for zero-optimum functions
        for fid in ALL_FUNCTIONS:
            if fid is B.BasicFunction.SCHWEFEL:
                continue
            st = make_subtask(fid, dim=5, seed=fid.value)
            u = (st.shift - st.lb) / (st.ub - st.lb)
            expected = 0.0
            if fid is B.BasicFunction.ROSENBROCK:
                expected = evaluate_one(fid, np.zeros(5))
            value = B.evaluate_subtask_batch(st, u[None, :])[0]
            assert value == pytest.approx(expected, abs=1e-8)

    def test_identity_transform_sphere(self):
        st = B.SubTaskDefinition(B.BasicFunction.SPHERE, 3, np.eye(3),
                                 np.zeros(3), -100.0, 100.0)
        assert B.evaluate_subtask_batch(st, np.full((1, 3), 0.5))[0] == 0.0

    def test_matches_direct_matrix_application(self):
        st = make_subtask(B.BasicFunction.RASTRIGIN, dim=7, seed=5)
        rng = derive_rng(6, "x")
        for _ in range(5):
            u = rng.random(7)
            x = st.lb + u * (st.ub - st.lb)
            z = st.rotation.T @ (x - st.shift)  # explicit column form
            direct = evaluate_one(st.function, z)
            value = B.evaluate_subtask_batch(st, u[None, :])[0]
            assert value == pytest.approx(direct, rel=1e-12)

    def test_non_orthogonal_rotation_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            B.SubTaskDefinition(B.BasicFunction.SPHERE, 2,
                                np.array([[1.0, 0.5], [0.0, 1.0]]),
                                np.zeros(2), -100.0, 100.0)


class TestCombinations:
    def test_count_is_127(self):
        assert len(B.enumerate_combinations()) == 127

    def test_first_is_sphere_singleton(self):
        assert B.enumerate_combinations()[0] == (B.BasicFunction.SPHERE,)

    def test_no_duplicates_and_full_union(self):
        combos = B.enumerate_combinations()
        assert len(set(combos)) == 127
        union = set()
        for c in combos:
            union.update(c)
        assert union == set(ALL_FUNCTIONS)

    def test_ordered_by_size_then_ids(self):
        combos = B.enumerate_combinations()
        keys = [(len(c), tuple(f.value for f in c)) for c in combos]
        assert keys == sorted(keys)


class TestGeneration:
    def test_structure(self):
        instances = B.generate_awcci(0.05, seed=1, n_tasks=4, dim=6)
        assert len(instances) == 127
        combos = B.enumerate_combinations()
        for inst, combo in zip(instances, combos):
            assert inst.combination == combo
            assert inst.n_tasks == 4
            allowed = set(combo)
            for st in inst.sub_tasks:
                assert st.function in allowed
                assert st.dim == 6
                lo, hi = st.lb * 0.05, st.ub * 0.05
                assert (st.shift >= lo - 1e-12).all()
                assert (st.shift <= hi + 1e-12).all()

    def test_all_levels_total_635(self):
        total = 0
        for level in B.SHIFT_LEVELS.values():
            total += len(B.generate_awcci(level, seed=2, n_tasks=2, dim=2))
        assert total == 635

    def test_same_seed_bit_identical_serialization(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        B.save_instances(B.generate_awcci(0.1, seed=7, n_tasks=3, dim=4), str(a))
        B.save_instances(B.generate_awcci(0.1, seed=7, n_tasks=3, dim=4), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_different_levels_differ(self):
        a = B.generate_awcci(0.05, seed=7, n_tasks=2, dim=3)
        b = B.generate_awcci(0.4, seed=7, n_tasks=2, dim=3)
        assert not np.array_equal(a[0].sub_tasks[0].shift, b[0].sub_tasks[0].shift)

    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        original = B.sample_instances(0.2, seed=3, n_tasks=3, dim=5, count=4)
        B.save_instances(original, str(path))
        loaded = B.load_instances(str(path))
        assert len(loaded) == 4
        for o, l in zip(original, loaded):
            assert o.instance_id == l.instance_id
            assert o.combination == l.combination
            for so, sl in zip(o.sub_tasks, l.sub_tasks):
                np.testing.assert_array_equal(so.rotation, sl.rotation)
                np.testing.assert_array_equal(so.shift, sl.shift)
                assert so.function == sl.function

    def test_sub_tasks_of_different_dims_rejected(self):
        subs = [make_subtask(dim=3), make_subtask(dim=4, seed=1)]
        with pytest.raises(ValueError, match=r"sub-task dims \[3, 4\] differ"):
            B.MTOInstance("mixed", 0.1, (B.BasicFunction.SPHERE,), subs)

    @pytest.mark.parametrize("case", ["json", "key", "function", "shape", "dim",
                                      "nan_rotation", "inf_shift", "inf_ub",
                                      "float_D", "bool_D", "null_id", "empty_id",
                                      "int_id", "repeated_id", "bool_lb",
                                      "bool_ub", "bool_level", "str_lb", "str_level",
                                      "str_shift", "str_rotation", "bool_shift",
                                      "bool_in_rotation", "unknown_level",
                                      "wide_box", "huge_int_ub", "bad_base64"])
    def test_load_errors_name_file_and_line(self, tmp_path, case):
        path = tmp_path / "d.jsonl"
        B.save_instances(B.sample_instances(0.2, seed=3, n_tasks=2, dim=3,
                                            count=3), str(path))
        lines = path.read_text().splitlines()
        doc = json.loads(lines[2])
        if case == "key":
            del doc["shift_level"]
        elif case == "function":
            doc["sub_tasks"][1]["function"] = "sphear"
        elif case == "shape":          # one value short of D * D
            st = doc["sub_tasks"][0]
            st["rotation"] = B._encode_rotation(
                B._decode_rotation(st["rotation"], 3).ravel()[:-1])
        elif case == "dim":
            wider = B.sample_instances(0.2, seed=3, n_tasks=2, dim=4, count=1)[0]
            doc["sub_tasks"][1] = dict(B.instance_to_dict(wider)["sub_tasks"][1],
                                       function=doc["combination"][0])
        elif case == "nan_rotation":   # NaN > 1e-10 is false: passes orthogonality
            st = doc["sub_tasks"][1]
            rotation = B._decode_rotation(st["rotation"], 3)
            rotation.flat[4] = float("nan")
            st["rotation"] = B._encode_rotation(rotation)
        elif case == "inf_shift":
            doc["sub_tasks"][0]["shift"][2] = float("-inf")
        elif case == "inf_ub":
            doc["sub_tasks"][1]["ub"] = float("inf")
        elif case == "float_D":        # int() would read it as 2
            doc["sub_tasks"][0]["D"] = 2.5
        elif case == "bool_D":
            doc["sub_tasks"][0]["D"] = True
        elif case in ("null_id", "empty_id", "int_id"):
            doc["instance_id"] = {"null_id": None, "empty_id": "", "int_id": 7}[case]
        elif case == "repeated_id":
            doc["instance_id"] = json.loads(lines[0])["instance_id"]
        elif case == "bool_lb":        # float() would read it as 1.0
            doc["sub_tasks"][1]["lb"] = True
        elif case == "bool_ub":
            doc["sub_tasks"][0]["ub"] = True
        elif case == "bool_level":
            doc["shift_level"] = True
        elif case == "str_lb":         # float() would read it as -100.0
            doc["sub_tasks"][0]["lb"] = "-100"
        elif case == "str_level":
            doc["shift_level"] = "0.2"
        elif case == "str_shift":
            st = doc["sub_tasks"][1]
            st["shift"] = [str(v) for v in st["shift"]]
        elif case == "str_rotation":   # the decimal list form of older files
            st = doc["sub_tasks"][1]
            st["rotation"] = B._decode_rotation(st["rotation"], 3).ravel().tolist()
        elif case == "bool_shift":     # numpy would read it as [1.0, 0.0, 1.0]
            doc["sub_tasks"][0]["shift"] = [True, False, True]
        elif case == "bool_in_rotation":
            doc["sub_tasks"][0]["rotation"] = True
        elif case == "unknown_level":
            doc["shift_level"] = 0.25
        elif case == "wide_box":       # ub - lb overflows, decode gives NaN
            doc["sub_tasks"][1].update(lb=-1e308, ub=1e308)
        elif case == "huge_int_ub":    # a JSON integer too large for a float
            doc["sub_tasks"][1]["ub"] = 10 ** 400
        elif case == "bad_base64":
            doc["sub_tasks"][0]["rotation"] = "AAAA AAAA"
        lines[2] = "{not json" if case == "json" else json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")
        expected = {"json": "Expecting", "key": "missing key 'shift_level'",
                    "function": "unknown function: 'sphear'",
                    "shape": "rotation holds 64 bytes, D = 3 needs 72$",
                    "dim": r"sub-task dims \[3, 4\] differ",
                    "nan_rotation": "rotation holds a non-finite value",
                    "inf_shift": "shift holds a non-finite value",
                    "inf_ub": "need finite lb < ub, got -100.0 and inf",
                    "float_D": "D must be an integer, got 2.5",
                    "bool_D": "D must be an integer, got True",
                    "null_id": "instance_id must be a non-empty string, got None$",
                    "empty_id": "instance_id must be a non-empty string, got ''$",
                    "int_id": "instance_id must be a non-empty string, got 7$",
                    "repeated_id": r"instance awcci-m-c\d{3} repeats line 1$",
                    "bool_lb": "lb must be a number, got True$",
                    "bool_ub": "ub must be a number, got True$",
                    "bool_level": "shift_level must be a number, got True$",
                    "str_lb": "lb must be a number, got '-100'$",
                    "str_level": "shift_level must be a number, got '0.2'$",
                    "str_shift": "shift must be a flat list of numbers$",
                    "str_rotation": "rotation is a list of numbers: the file "
                                    "predates the base64 float64 rotation "
                                    "encoding; regenerate it with "
                                    "`emtlab generate`$",
                    "bool_shift": "shift must be a flat list of numbers$",
                    "bool_in_rotation": "rotation must be a base64 string, got True$",
                    "unknown_level": "unknown shift level: 0.25$",
                    "wide_box": "box width ub - lb overflows",
                    "huge_int_ub": "int too large to convert to float",
                    "bad_base64": "rotation is not valid base64: "}
        with pytest.raises(ValueError, match=f"d.jsonl, line 3: .*{expected[case]}"):
            B.load_instances(str(path))

    def test_sample_instances_count_validation(self):
        with pytest.raises(ValueError):
            B.sample_instances(0.2, seed=3, n_tasks=3, dim=5, count=0)
        with pytest.raises(ValueError):
            B.sample_instances(0.2, seed=3, n_tasks=3, dim=5, count=128)
