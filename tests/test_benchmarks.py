"""Base functions, transformations, and problem-set generation."""

import json

import numpy as np
import pytest

from emtlab import benchmarks as B
from emtlab.seeds import derive_rng

ALL_FUNCTIONS = list(B.BasicFunction)


class TestBaseFunctions:
    @pytest.mark.parametrize("fid", ALL_FUNCTIONS)
    def test_zero_at_optimum(self, fid):
        z = B.optimum_point(fid, 50)
        tol = 1e-2 if fid is B.BasicFunction.SCHWEFEL else 1e-8
        assert abs(B.evaluate_basic(fid, z)) < tol

    def test_sphere_matches_hand_sum(self):
        z = np.array([1.5, -2.0, 0.5])
        assert B.evaluate_basic(B.BasicFunction.SPHERE, z) == pytest.approx(
            1.5 ** 2 + 2.0 ** 2 + 0.5 ** 2)

    def test_rosenbrock_hand_case(self):
        # D=2, z=(0,0): 100*(0-0)^2 + (0-1)^2 = 1
        assert B.evaluate_basic(B.BasicFunction.ROSENBROCK, [0.0, 0.0]) == 1.0

    def test_rastrigin_hand_case(self):
        # z=(0.5,): 0.25 - 10*cos(pi) + 10 = 20.25
        assert B.evaluate_basic(B.BasicFunction.RASTRIGIN, [0.5]) == pytest.approx(20.25)

    def test_griewank_hand_case(self):
        z = np.array([2.0, 3.0])
        expected = 1.0 + (4.0 + 9.0) / 4000.0 - np.cos(2.0) * np.cos(3.0 / np.sqrt(2.0))
        assert B.evaluate_basic(B.BasicFunction.GRIEWANK, z) == pytest.approx(expected)

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
        assert B.evaluate_basic(B.BasicFunction.WEIERSTRASS, z) == pytest.approx(
            total, abs=1e-9)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        z = rng.uniform(-5, 5, (6, 8))
        for fid in ALL_FUNCTIONS:
            batch = B.evaluate_basic_batch(fid, z)
            singles = [B.evaluate_basic(fid, row) for row in z]
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
                expected = B.evaluate_basic(fid, np.zeros(5))
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
            direct = B.evaluate_basic(st.function, z)
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

    @pytest.mark.parametrize("case", ["json", "key", "function", "shape"])
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
        elif case == "shape":
            doc["sub_tasks"][0]["rotation"] = doc["sub_tasks"][0]["rotation"][:-1]
        lines[2] = "{not json" if case == "json" else json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")
        expected = {"json": "Expecting", "key": "missing key 'shift_level'",
                    "function": "unknown function: 'sphear'", "shape": "reshape"}
        with pytest.raises(ValueError, match=f"d.jsonl, line 3: .*{expected[case]}"):
            B.load_instances(str(path))

    def test_sample_instances_count_validation(self):
        with pytest.raises(ValueError):
            B.sample_instances(0.2, seed=3, n_tasks=3, dim=5, count=0)
        with pytest.raises(ValueError):
            B.sample_instances(0.2, seed=3, n_tasks=3, dim=5, count=128)
