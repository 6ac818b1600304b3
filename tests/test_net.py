import re
import warnings

import numpy as np
import pytest

import scalar_reference as ref
from consensuslab import (
    BadParameter,
    NegativeWeight,
    NonFiniteWeight,
    NotSquare,
    ParseError,
    RowSumViolation,
    WeightedAdjacency,
    analyze_structure,
    make_ring,
    random_symmetric_stochastic,
    read_matrix,
    validate,
    write_matrix,
)
from consensuslab.net import _bfs_levels


def bool_power(pattern, k):
    """Independent boolean k-th power of a sparsity pattern."""
    P = np.eye(pattern.shape[0], dtype=bool)
    for _ in range(k):
        P = (P.astype(int) @ pattern.astype(int)) > 0
    return P


def brute_structure(weights):
    """(irreducible, primitive, witness_k) by exhaustive boolean powers.

    Irreducible when the powers k = 0..n-1 of the pattern sum to an
    entrywise-positive matrix; primitive when some power up to the sharp
    bound (n-1)^2 + 1 is entrywise positive. O(n^5) on periodic inputs,
    so only for small n.
    """
    pattern = np.asarray(weights) > 0.0
    n = pattern.shape[0]
    reach = np.eye(n, dtype=bool)
    P = np.eye(n, dtype=bool)
    for _ in range(1, n):
        P = (P.astype(np.int64) @ pattern.astype(np.int64)) > 0
        reach |= P
    if not reach.all():
        return False, False, None
    P = pattern.copy()
    for k in range(1, (n - 1) ** 2 + 2):
        if P.all():
            return True, True, k
        P = (P.astype(np.int64) @ pattern.astype(np.int64)) > 0
    return True, False, None


def flags(rep):
    return rep.irreducible, rep.primitive, rep.witness_k


def stochastic(pattern):
    P = np.asarray(pattern, dtype=float)
    return validate(P / P.sum(axis=1, keepdims=True))


def wielandt(n):
    """Cycle 0 -> 1 -> ... -> n-1 -> 0 plus the chord n-1 -> 1.

    Primitive with exponent (n-1)^2 + 1, the largest any n-node pattern has.
    """
    P = np.zeros((n, n))
    P[np.arange(n - 1), np.arange(1, n)] = 1.0
    P[n - 1, 0] = P[n - 1, 1] = 1.0
    return stochastic(P)


def random_patterns(count, seed):
    """Seeded directed patterns with no empty row; every third one only
    has edges from class c to class c + 1 (mod k), so many are periodic."""
    rng = np.random.default_rng(seed)
    out = []
    for t in range(count):
        n = int(rng.integers(2, 10))
        P = rng.random((n, n)) < rng.uniform(0.1, 0.6)
        if t % 3 == 0:
            k = int(rng.integers(2, 4))
            cls = rng.integers(0, k, n)
            P &= cls[None, :] == (cls[:, None] + 1) % k
        for i in range(n):
            if not P[i].any():
                P[i, rng.integers(n)] = True
        out.append(stochastic(P))
    return out


class TestValidate:
    def test_identity_two_agents(self):
        A = validate(np.eye(2))
        assert A.n == 2
        assert np.array_equal(A.weights, np.eye(2))

    def test_ring4_rows_are_rotations(self, ring4):
        expect = np.array(
            [
                [0.0, 0.5, 0.0, 0.5],
                [0.5, 0.0, 0.5, 0.0],
                [0.0, 0.5, 0.0, 0.5],
                [0.5, 0.0, 0.5, 0.0],
            ]
        )
        assert np.array_equal(ring4.weights, expect)

    def test_row_sum_violation(self):
        with pytest.raises(RowSumViolation) as ei:
            validate([[0.5, 0.6], [0.5, 0.5]])
        assert ei.value.row == 0
        assert abs(ei.value.total - 1.1) < 1e-15

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight) as ei:
            validate([[1.5, -0.5], [0.5, 0.5]])
        assert (ei.value.i, ei.value.j) == (0, 1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight(self, value):
        with pytest.raises(NonFiniteWeight) as ei:
            validate([[0.5, 0.5], [value, 0.5]])
        assert (ei.value.i, ei.value.j) == (1, 0)
        np.testing.assert_equal(ei.value.value, value)

    def test_non_finite_checked_before_sign(self):
        with pytest.raises(NonFiniteWeight) as ei:
            validate([[1.5, -0.5], [0.5, np.nan]])
        assert (ei.value.i, ei.value.j) == (1, 1)

    def test_not_square(self):
        with pytest.raises(NotSquare):
            validate([[0.5, 0.5]])
        with pytest.raises(NotSquare):
            validate(np.ones((2, 3)) / 3)

    def test_too_small(self):
        with pytest.raises(BadParameter):
            validate([[1.0]])

    @pytest.mark.parametrize(
        "weights",
        [
            [["a", "b"], ["c", "d"]],
            [[1, 0], [1]],
            [[0.5 + 1j, 0.5], [0.5, 0.5]],
            {"a": 1},
            np.array([[0.5 + 0j, 0.5], [0.5, 0.5]]),
            [np.array([0.5 + 0j, 0.5]), np.array([0.5, 0.5])],
            [[np.complex128(0.5), 0.5], [0.5, 0.5]],
            np.array([[0, 1], [1, 0]], dtype="datetime64[s]"),
            np.array([[0, 1], [1, 0]], dtype="timedelta64[s]"),
        ],
        ids=[
            "strings",
            "ragged",
            "complex-list",
            "dict",
            "complex-array",
            "complex-row-in-list",
            "complex-scalar-in-list",
            "datetime",
            "timedelta",
        ],
    )
    def test_not_a_real_matrix(self, weights):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadParameter, match="real numbers"):
                validate(weights)

    def test_numeric_strings_and_none_convert(self):
        A = validate([["0.25", "0.75"], ["0.75", "0.25"]])
        assert np.array_equal(A.weights, [[0.25, 0.75], [0.75, 0.25]])
        with pytest.raises(NonFiniteWeight) as ei:
            validate([[0.5, 0.5], [None, 0.5]])
        assert (ei.value.i, ei.value.j) == (1, 0)

    def test_float_input_is_copied_not_frozen(self):
        W = np.full((2, 2), 0.5)
        A = validate(W)
        assert W.flags.writeable and not np.shares_memory(A.weights, W)

    def test_weights_are_read_only(self, ring4):
        with pytest.raises(ValueError):
            ring4.weights[0, 0] = 7.0


class TestStructure:
    def test_pure_ring_is_periodic(self, ring4):
        rep = analyze_structure(ring4)
        assert rep.symmetric and rep.irreducible
        assert not rep.primitive and rep.witness_k is None
        # oracle: no boolean pattern power up to 10 is entrywise positive
        pattern = ring4.weights > 0
        assert not any(bool_power(pattern, k).all() for k in range(1, 11))

    def test_ring_with_self_loops_is_primitive(self, ring4_loops):
        rep = analyze_structure(ring4_loops)
        assert rep.symmetric and rep.irreducible and rep.primitive
        pattern = ring4_loops.weights > 0
        assert not bool_power(pattern, 1).all()
        assert bool_power(pattern, 2).all()
        assert rep.witness_k == 2

    def test_identity_is_reducible(self):
        rep = analyze_structure(validate(np.eye(2)))
        assert not rep.irreducible
        assert not rep.primitive

    @pytest.mark.parametrize("n", range(3, 9))
    def test_pure_ring_primitive_iff_odd(self, n):
        rep = analyze_structure(make_ring(n, 0.0))
        assert rep.irreducible
        assert rep.primitive == (n % 2 == 1)

    def test_primitive_implies_irreducible_and_witness_bound(self, corpus20):
        nets = [A for A, _ in corpus20]
        nets += [make_ring(n, s) for n in range(3, 8) for s in (0.0, 0.2)]
        for A in nets:
            rep = analyze_structure(A)
            if rep.primitive:
                assert rep.irreducible
                assert 1 <= rep.witness_k <= (A.n - 1) ** 2 + 1
            else:
                assert rep.witness_k is None


class TestStructureOracle:
    """analyze_structure against the exhaustive boolean-power oracle."""

    @pytest.mark.parametrize("n", range(3, 13))
    @pytest.mark.parametrize("s", [0.0, 0.1])
    def test_rings(self, n, s):
        A = make_ring(n, s)
        assert flags(analyze_structure(A)) == brute_structure(A.weights)

    @pytest.mark.parametrize("n", range(2, 12))
    def test_wielandt_reaches_the_sharp_bound(self, n):
        A = wielandt(n)
        rep = analyze_structure(A)
        assert flags(rep) == brute_structure(A.weights)
        assert rep.witness_k == (n - 1) ** 2 + 1

    def test_random_directed_patterns(self):
        seen = set()
        for A in random_patterns(300, seed=11):
            expect = brute_structure(A.weights)
            assert flags(analyze_structure(A)) == expect
            seen.add(expect[:2])
        # reducible, periodic and primitive patterns all occur
        assert seen == {(False, False), (True, False), (True, True)}

    def test_corpus(self, corpus20, corpus100):
        for A, _ in corpus20 + corpus100:
            assert flags(analyze_structure(A)) == brute_structure(A.weights)

    def test_float_symmetric_but_reducible(self):
        # symmetric within tolerance, yet 1 -> 2 has no edge back: only the
        # search along the transpose shows that node 2 never reaches 0
        A = validate([[0.5, 0.5, 0.0], [0.5, 0.5 - 1e-13, 1e-13], [0.0, 0.0, 1.0]])
        rep = analyze_structure(A)
        assert rep.symmetric
        assert flags(rep) == brute_structure(A.weights) == (False, False, None)

    def test_large_rings_closed_form(self):
        rep = analyze_structure(make_ring(256, 0.0))
        assert rep.irreducible and not rep.primitive and rep.witness_k is None
        # odd pure ring: the walks of length n-1 first join every pair
        rep = analyze_structure(make_ring(255, 0.0))
        assert rep.primitive and rep.witness_k == 254
        # self-loops: the power n/2 first spans the ring
        rep = analyze_structure(make_ring(256, 0.1))
        assert rep.primitive and rep.witness_k == 128

    def test_largest_rings_closed_form(self):
        rep = analyze_structure(make_ring(1024, 0.0))
        assert rep.irreducible and not rep.primitive and rep.witness_k is None
        rep = analyze_structure(make_ring(1025, 0.0))
        assert rep.primitive and rep.witness_k == 1024
        rep = analyze_structure(make_ring(1024, 0.1))
        assert rep.primitive and rep.witness_k == 512


class TestBfsLevels:
    """The bitset search against a queue search, at sizes on both sides of
    the byte and word boundaries of the packed rows."""

    @pytest.mark.parametrize("n", [2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 129])
    def test_matches_a_queue_search(self, n):
        rng = np.random.default_rng(n)
        unreached = deepest = 0
        for mean_degree in (0.5, 1.0, 1.5, 3.0, n / 2):
            for _ in range(4):
                P = rng.random((n, n)) < mean_degree / n
                P[np.diag_indices(n)] = rng.random(n) < 0.5
                for pattern in (P, P.T):
                    want = ref.bfs_levels(pattern)
                    got = _bfs_levels(pattern)
                    assert got.dtype == want.dtype and np.array_equal(got, want)
                    unreached += (want < 0).any()
                    deepest = max(deepest, want.max())
        # both unreached nodes and searches of several levels occur
        assert unreached and deepest >= min(n - 1, 3)


class TestMakeRing:
    def test_ring4_with_self_loop_rows(self):
        A = make_ring(4, 0.1)
        assert np.array_equal(
            A.weights[0], np.array([0.1, 0.45, 0.0, 0.45])
        )
        assert A.weights.sum(axis=1).tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_ring3_rows(self):
        A = make_ring(3, 0.0)
        assert np.array_equal(A.weights[0], np.array([0.0, 0.5, 0.5]))

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 17])
    @pytest.mark.parametrize("s", [0.0, 0.1, 0.37, 0.999])
    def test_generated_rings_validate_and_are_symmetric(self, n, s):
        A = make_ring(n, s)
        assert np.max(np.abs(A.weights.sum(axis=1) - 1.0)) <= 1e-12
        assert np.array_equal(A.weights, A.weights.T)

    @pytest.mark.parametrize("s", [0.0, 0.1, 1 / 3, 0.5, 0.999])
    def test_matches_index_loop(self, s):
        for n in list(range(3, 40)) + [64, 129]:
            got, want = make_ring(n, s).weights, ref.make_ring(n, s).weights
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", [np.float16, np.float32, np.longdouble])
    def test_a_numpy_self_loop_builds_the_ring_of_its_float(self, t):
        # (1 - s) / 2 taken in float32 would leave some row sums 2e-8 off 1
        for s in np.linspace(0.0, 0.99, 100):
            for n in (4, 7):
                got = make_ring(n, t(s)).weights
                assert got.tobytes() == make_ring(n, float(t(s))).weights.tobytes()

    def test_bad_parameters(self):
        with pytest.raises(BadParameter):
            make_ring(2, 0.0)
        with pytest.raises(BadParameter):
            make_ring(4, 1.0)
        with pytest.raises(BadParameter):
            make_ring(4, -0.1)


class TestMatrixIO:
    def test_parse_literal(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2\n0.5 0.5\n0.5 0.5\n")
        A = read_matrix(p)
        assert A.n == 2
        assert np.array_equal(A.weights, np.full((2, 2), 0.5))

    def test_reads_every_token_float_accepts(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("3\n5E-1 +0.5 0\n0.5_0 .5 -0\n  0 1.5e-320 1 \n")
        A = read_matrix(p)
        want = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, -0.0], [0.0, 1.5e-320, 1.0]])
        assert A.weights.tobytes() == want.tobytes()

    def test_writer_matches_entry_loop(self, tmp_path, corpus20):
        odd = np.array(
            [
                [-0.0, 0.0, 5e-324],
                [1e308, -1e308, 2.2250738585072014e-308],
                [1 / 3, 0.1, 1.5e-320],
            ]
        )
        nets = [make_ring(n, s) for n in (3, 5, 17) for s in (0.0, 1 / 3)]
        nets += [random_symmetric_stochastic(n, s) for n in (2, 64) for s in (0, 1)]
        # the odd matrix is no network, so it is set on an instance that
        # skips construction: the writer's formatting is what is tested
        unchecked = object.__new__(WeightedAdjacency)
        object.__setattr__(unchecked, "weights", odd)
        object.__setattr__(unchecked, "n", 3)
        nets += [a for a, _ in corpus20[:5]] + [unchecked]
        # a new file for each write: truncating a written one can cost more
        # than the write on some filesystems
        for i, A in enumerate(nets):
            got, want = tmp_path / f"got{i}.txt", tmp_path / f"want{i}.txt"
            write_matrix(A, got)
            ref.write_matrix(A, want)
            assert got.read_bytes() == want.read_bytes()

    def test_round_trip_is_value_exact(self, tmp_path, corpus20):
        for i, A in enumerate([make_ring(4, 0.1), make_ring(7, 1 / 3)]
                              + [a for a, _ in corpus20[:5]]):
            p = tmp_path / f"m{i}.txt"  # a new file each time, as above
            write_matrix(A, p)
            B = read_matrix(p)
            assert np.array_equal(A.weights, B.weights)

    def test_wrong_value_count(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2\n0.5\n0.5 0.5\n")
        with pytest.raises(ParseError) as ei:
            read_matrix(p)
        assert ei.value.line == 2

    def test_bad_header(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("two\n0.5 0.5\n0.5 0.5\n")
        with pytest.raises(ParseError) as ei:
            read_matrix(p)
        assert ei.value.line == 1

    def test_missing_and_extra_rows(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("3\n0.5 0.5 0\n0.5 0.5 0\n")
        with pytest.raises(ParseError):
            read_matrix(p)
        p.write_text("2\n0.5 0.5\n0.5 0.5\n1 0\n")
        with pytest.raises(ParseError):
            read_matrix(p)

    def test_non_numeric_value(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2\n0.5 x\n0.5 0.5\n")
        with pytest.raises(ParseError) as ei:
            read_matrix(p)
        assert ei.value.line == 2

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"\xff2\n0.5 0.5\n0.5 0.5\n", 1),
            (b"2\n0.5 0.5\n0.5 \xe90.5\n", 3),
            (b"2\r0.5 0.5\r\n\x89PNG\r\n", 3),
        ],
        ids=["header", "body", "carriage-returns"],
    )
    def test_undecodable_bytes(self, tmp_path, data, line):
        p = tmp_path / "m.txt"
        p.write_bytes(data)
        with pytest.raises(ParseError, match="is not UTF-8 text") as ei:
            read_matrix(p)
        assert ei.value.line == line

    def test_validation_applies_after_parse(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2\n0.5 0.6\n0.5 0.5\n")
        with pytest.raises(RowSumViolation):
            read_matrix(p)


class TestMatrixFileEdges:
    def test_trailing_blank_lines_are_ignored(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2\n0.5 0.5\n0.5 0.5\n\n   \n")
        assert read_matrix(p).weights.tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_whitespace_only_file_is_empty(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("  \n\t\n ")
        with pytest.raises(ParseError, match="^line 1: empty file$") as ei:
            read_matrix(p)
        assert ei.value.line == 1

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_size_must_be_positive(self, tmp_path, size):
        p = tmp_path / "m.txt"
        p.write_text(f"{size}\n0.5 0.5\n")
        with pytest.raises(ParseError, match="^line 1: matrix size must be positive") as ei:
            read_matrix(p)
        assert ei.value.line == 1

    @pytest.mark.parametrize(
        "size, message",
        [
            ("-" + "9" * 4000, "line 1: matrix size must be positive, got -<13288-bit int>"),
            ("9" * 4000, "line 2: expected <13288-bit int> rows, found 1"),
        ],
        ids=["negative", "positive"],
    )
    def test_a_long_size_is_shown_by_its_bit_count(self, tmp_path, size, message):
        p = tmp_path / "m.txt"
        p.write_text(f"{size}\n0.5 0.5\n")
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            read_matrix(p)
