"""Arguments of the wrong type raise BadParameter, not a raw numpy or
Python error: integers are checked with operator.index (seeds may be
negative), real parameters by one rule (a bool, int or float, Python or
numpy, that float() can hold), and models, spectra and networks with
isinstance, named by their type. A NaN or infinite parameter gets one
message, and no message grows with the argument it shows."""

import dataclasses
import functools
import os
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from consensuslab import (
    BadParameter,
    BadSpectrum,
    ConsensusLabError,
    ModelKind,
    ModelParams,
    NegativeWeight,
    NonFiniteWeight,
    NotConvergent,
    NotSquare,
    RowSumViolation,
    SimConfig,
    Spectrum,
    WeightedAdjacency,
    analyze_structure,
    check_mla_convergence,
    consensus_value,
    eigendecompose_symmetric,
    fit_rate,
    improving_gamma_exists,
    lambda_hat_max,
    make_ring,
    model_rate,
    optimal_beta,
    optimal_gamma,
    random_symmetric_stochastic,
    read_matrix,
    rho_ess,
    rho_ess_accelerated,
    rho_ess_mla,
    run_batch,
    simulate_trajectory,
    summary,
    validate,
    write_matrix,
)
from consensuslab.cli import main


@pytest.fixture(scope="module")
def ring4_loops_spectrum():
    return eigendecompose_symmetric(make_ring(4, 0.1))


@pytest.mark.parametrize("seed", [1.5, "a", None])
def test_seed_must_be_an_integer(seed):
    with pytest.raises(BadParameter, match="seed must be an integer"):
        SimConfig(ModelParams.degroot(), steps=3, runs=2, seed=seed)
    with pytest.raises(BadParameter, match="seed must be an integer"):
        random_symmetric_stochastic(4, seed)


def test_numpy_and_negative_seeds_run():
    model = ModelParams.degroot()
    A = make_ring(4, 0.1)
    want = run_batch(A, SimConfig(model, steps=3, runs=2, seed=3))
    got = run_batch(A, SimConfig(model, steps=3, runs=2, seed=np.int64(3)))
    assert np.array_equal(want.env_max, got.env_max)
    want = run_batch(A, SimConfig(model, steps=3, runs=2, seed=-1))
    got = run_batch(A, SimConfig(model, steps=3, runs=2, seed=np.int64(-1)))
    assert np.array_equal(want.env_max, got.env_max)
    B = random_symmetric_stochastic(np.int64(4), np.int64(-7))
    assert np.array_equal(B.weights, random_symmetric_stochastic(4, -7).weights)


@pytest.mark.parametrize("n", [2.5, 4.0, "4"])
def test_sizes_must_be_integers(n):
    with pytest.raises(BadParameter, match="must be an integer"):
        random_symmetric_stochastic(n, 1)
    with pytest.raises(BadParameter, match="must be an integer"):
        make_ring(n)


@pytest.mark.parametrize("self_loop", ["0.1", None, 0.1j])
def test_self_loop_must_be_a_real_number(self_loop):
    with pytest.raises(BadParameter, match="self_loop"):
        make_ring(4, self_loop)


@pytest.mark.parametrize("param", ["abc", "0.5", None, 0.5 + 1j, [0.5]])
def test_parameters_must_be_real_numbers(ring4_loops_spectrum, param):
    with pytest.raises(BadParameter, match="real number"):
        check_mla_convergence(ring4_loops_spectrum, param)
    with pytest.raises(BadParameter, match="real number"):
        rho_ess_accelerated(ring4_loops_spectrum, param)
    with pytest.raises(BadParameter, match="real number"):
        ModelParams(ModelKind.MLA, param)


@pytest.mark.parametrize(
    "x0",
    [
        ["a"] * 4,
        [0.5 + 1j] * 4,
        [{}] * 4,
        np.array([0, 1, 2, 3], dtype="timedelta64[s]"),
        np.array([0, 1, 2, 3], dtype="datetime64[s]"),
    ],
)
def test_states_must_be_real_numbers(x0):
    with pytest.raises(BadParameter, match="real numbers"):
        simulate_trajectory(make_ring(4, 0.1), ModelParams.mla(0.5), x0, 3)


@pytest.mark.parametrize("args", [("mla", 0.5), ("accelerated", 1.2), ("degroot",)])
def test_model_kind_must_be_a_model_kind(args):
    # the string value is rejected, not converted
    with pytest.raises(BadParameter, match="ModelKind"):
        ModelParams(*args)


A4 = make_ring(4, 0.1)
SPEC4 = eigendecompose_symmetric(A4)
X4 = np.arange(4.0)
MLA = ModelParams.mla(0.5)
W = np.array([1.0, 0.5])


@pytest.mark.parametrize(
    "f, args",
    [
        (SimConfig, ("mla", 3, 2, 0)),
        (simulate_trajectory, (A4, "mla", X4, 3)),
        (model_rate, (SPEC4, "mla")),
        (rho_ess, (W,)),
        (optimal_gamma, (W,)),
        (optimal_beta, (W,)),
        (improving_gamma_exists, (list(W),)),
        (check_mla_convergence, (W, 0.5)),
        (model_rate, (W, MLA)),
        (consensus_value, (A4, W, X4)),
        (run_batch, (np.eye(4), SimConfig(MLA, 3, 2, 0))),
        (simulate_trajectory, (np.eye(4), MLA, X4, 3)),
        (fit_rate, (np.eye(4), MLA, X4, 30)),
        (consensus_value, (np.eye(4), SPEC4, X4)),
        (eigendecompose_symmetric, (np.eye(4),)),
        (analyze_structure, (np.eye(4),)),
        (write_matrix, (np.eye(4), os.devnull)),
        (run_batch, (A4, MLA)),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_objects_of_the_wrong_kind_raise_bad_parameter(f, args):
    with pytest.raises(BadParameter, match="must be a"):
        f(*args)


FILE_APIS = [
    read_matrix,
    functools.partial(write_matrix, A4),
    run_batch(A4, SimConfig(MLA, 3, 2, 0)).write_csv,
]
FILE_API_IDS = ["read_matrix", "write_matrix", "write_csv"]


@pytest.mark.parametrize("path", [None, 3.5, False, ["m.txt"]], ids=repr)
@pytest.mark.parametrize("f", FILE_APIS, ids=FILE_API_IDS)
def test_file_apis_take_paths_only(f, path):
    with pytest.raises(BadParameter, match="path must be a str, bytes or os.PathLike"):
        f(path)


@pytest.mark.parametrize("f", FILE_APIS, ids=FILE_API_IDS)
def test_file_apis_leave_a_descriptor_open(f, tmp_path):
    # open() would take the int as a descriptor and close it on return
    fd = os.open(tmp_path / "m.txt", os.O_RDWR | os.O_CREAT)
    try:
        with pytest.raises(BadParameter, match="got int"):
            f(fd)
        os.fstat(fd)
    finally:
        os.close(fd)


@pytest.mark.parametrize("f", FILE_APIS, ids=FILE_API_IDS)
def test_file_apis_bound_an_os_error_and_keep_its_errno(f, tmp_path):
    # open()'s own OSError would repeat the 100,000-character path whole
    path = str(tmp_path / ("m" * 100_000))
    with pytest.raises(OSError) as raw:
        open(path, "rb")
    with pytest.raises(OSError) as ei:
        f(path)
    assert type(ei.value) is type(raw.value)
    assert ei.value.errno == raw.value.errno and ei.value.strerror == raw.value.strerror
    assert len(str(ei.value)) < 300


# every entry point that takes a real scalar, with the one rule applied to it
SCALAR_ENTRY_POINTS = {
    "check_mla_convergence": lambda v: check_mla_convergence(SPEC4, v),
    "rho_ess_mla": lambda v: rho_ess_mla(SPEC4, v),
    "rho_ess_accelerated": lambda v: rho_ess_accelerated(SPEC4, v),
    "ModelParams.mla": ModelParams.mla,
    "ModelParams.accelerated": ModelParams.accelerated,
    "lambda_hat_max-lam": lambda v: lambda_hat_max(v, 0.5),
    "lambda_hat_max-gamma": lambda v: lambda_hat_max(0.5, v),
    "make_ring-self_loop": lambda v: make_ring(4, v),
}
REAL = {"2**64": 2**64, "2**65": 2**65, "True": True, "np.True_": np.True_,
        "int64": np.int64(1), "uint64": np.uint64(1), "float16": np.float16(0.5),
        "float32": np.float32(0.5), "longdouble": np.longdouble(0.5)}
NOT_REAL = {"Fraction": Fraction(1, 2), "Decimal": Decimal("0.5"), "str": "0.5",
            "None": None, "complex": 0.5j, "list": [0.5]}
BEYOND_FLOATS = {"10**400": 10**400, "-10**400": -(10**400)}


@pytest.mark.parametrize(
    "kind, value",
    [
        pytest.param(kind, value, id=name)
        for kind, table in (("real", REAL), ("not real", NOT_REAL), ("beyond", BEYOND_FLOATS))
        for name, value in table.items()
    ],
)
@pytest.mark.parametrize("entry", SCALAR_ENTRY_POINTS)
def test_every_scalar_entry_point_applies_one_rule(entry, kind, value):
    call = SCALAR_ENTRY_POINTS[entry]
    if kind == "real":
        try:
            call(value)
        except NotConvergent:  # a verdict on an accepted value
            pass
        except BadParameter as e:  # the ring keeps its own range check
            assert entry == "make_ring-self_loop" and "must lie in [0, 1)" in str(e)
    elif isinstance(value, list) and entry.startswith("lambda_hat_max"):
        assert call(value).shape == (1,)  # the contour field reads a list as an array
    elif kind == "not real":
        with pytest.raises(BadParameter, match="must be a real number, got"):
            call(value)
    else:
        with pytest.raises(BadParameter, match="lies beyond the float range$"):
            call(value)


# matrices that are no non-negative row-stochastic network, each with the
# error and the start of the message the constructor raises
BAD_NETWORKS = {
    "negative": ([[-1, 2], [2, -1]], NegativeWeight, "weight (0, 0) is negative: -1.0"),
    "row-sum": ([[0.5, 0.6], [0.5, 0.5]], RowSumViolation,
                "row 0 sums to 1.1, expected 1"),
    "1x1": ([[1.0]], BadParameter, "need at least 2 agents, got n=1"),
    "not-square": (np.full((2, 3), 0.5), NotSquare,
                   "expected a square matrix, got shape (2, 3)"),
    "nan": ([[float("nan"), 1], [0, 1]], NonFiniteWeight,
            "weight (0, 0) is not finite: nan"),
    "ragged": ([[1, 0], [1]], BadParameter,
               "weights must be a matrix of real numbers: setting an array element"),
    "10**400": ([[10**400, 0], [0, 1]], BadParameter,
                "weights must be a matrix of real numbers: <1329-bit int> does not"),
    "complex": ([[0.5 + 0j, 0.5], [0.5, 0.5]], BadParameter,
                "weights must be a matrix of real numbers: complex128 values"),
}


@pytest.mark.parametrize(
    "weights, error, prefix", BAD_NETWORKS.values(), ids=BAD_NETWORKS
)
def test_a_network_is_checked_when_built(weights, error, prefix):
    good = WeightedAdjacency(weights=[[0.5, 0.5], [0.5, 0.5]])
    assert good.n == 2
    assert not good.weights.flags.writeable
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (
            lambda: WeightedAdjacency(weights=weights),
            lambda: dataclasses.replace(good, weights=weights),
        ):
            with pytest.raises(ConsensusLabError) as ei:
                build()
            assert type(ei.value) is error
            assert str(ei.value).startswith(prefix)
            assert len(str(ei.value)) < 300


def test_a_network_derives_n_and_keeps_its_own_read_only_weights():
    W = np.full((3, 3), 1 / 3)
    A = WeightedAdjacency(W)
    W[0, 0] = 5.0
    assert A.n == 3
    assert A.weights[0, 0] == 1 / 3
    with pytest.raises(ValueError, match="read-only"):
        A.weights[0, 0] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        A.n = 2
    with pytest.raises(TypeError):
        WeightedAdjacency(n=3, weights=W)


@pytest.mark.parametrize(
    "call",
    [
        # b*b + |4c| overflows the floats at |lambda| = 1, the spectrum's scale
        lambda: check_mla_convergence(SPEC4, 1e200),
        lambda: rho_ess_accelerated(SPEC4, 1e200),
        # and at the largest modulus of a contour row, scalar or array
        lambda: lambda_hat_max(0.5, 1e200),
        lambda: lambda_hat_max(np.array([1e200]), 0.5),
        # a longdouble is read as the float it holds
        lambda: check_mla_convergence(SPEC4, np.longdouble(1e300)),
    ],
    ids=["mla-float64", "accelerated-float64", "contour-float64",
         "contour-float64-array", "mla-longdouble"],
)
def test_parameters_that_overflow_the_roots_raise_before_numpy_warns(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParameter, match="gives non-finite root coefficients"):
            call()


@pytest.mark.skipif(
    np.finfo(np.longdouble).max <= np.finfo(float).max, reason="longdouble is a double"
)
def test_a_longdouble_past_the_float_range_is_beyond_it():
    big = np.longdouble(10.0) ** 400
    for entry in ("check_mla_convergence", "ModelParams.mla", "lambda_hat_max-lam"):
        with pytest.raises(BadParameter, match="lies beyond the float range$"):
            SCALAR_ENTRY_POINTS[entry](big)


# every entry point that takes gamma or beta, reached with a NaN or infinity
FINITE_ENTRY_POINTS = {
    **{name: SCALAR_ENTRY_POINTS[name] for name in (
        "check_mla_convergence", "rho_ess_mla", "rho_ess_accelerated",
        "ModelParams.mla", "ModelParams.accelerated", "lambda_hat_max-lam",
        "lambda_hat_max-gamma", "make_ring-self_loop")},
    "ModelParams": lambda v: ModelParams(ModelKind.MLA, v),
    "model_rate-mla": lambda v: model_rate(SPEC4, ModelParams.mla(v)),
    "model_rate-accelerated": lambda v: model_rate(SPEC4, ModelParams.accelerated(v)),
}
NOT_FINITE = {"nan": float("nan"), "inf": float("inf"), "-inf": -float("inf"),
              "float32-inf": np.float32("inf"), "float64-nan": np.float64("nan")}


@pytest.mark.parametrize("value", NOT_FINITE.values(), ids=NOT_FINITE)
@pytest.mark.parametrize("entry", FINITE_ENTRY_POINTS)
def test_a_parameter_that_is_not_finite_gets_one_message(entry, value):
    message = r"=-?(nan|inf) must be a finite real number$"
    with pytest.raises(BadParameter, match=message):
        FINITE_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_the_command_line_says_a_gamma_is_not_finite(gamma, capsys):
    assert main(["analyze", "--ring", "8", "--gamma", gamma]) == 2
    err = capsys.readouterr().err
    assert err == f"error: gamma={gamma} must be a finite real number\n"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ModelParams("mla", 0.5), "model kind must be a ModelKind, got str"),
        (lambda: SimConfig("mla", 3, 2, 0), "model must be a ModelParams, got str"),
        (lambda: simulate_trajectory(A4, None, X4, 3),
         "model must be a ModelParams, got NoneType"),
        (lambda: model_rate(SPEC4, 0.5), "model must be a ModelParams, got float"),
        (lambda: rho_ess(W), "spectrum must be a Spectrum, got ndarray"),
        (lambda: analyze_structure(np.eye(4)),
         "network must be a WeightedAdjacency, got ndarray"),
        (lambda: run_batch(A4, MLA), "cfg must be a SimConfig, got ModelParams"),
        (lambda: read_matrix(None),
         "path must be a str, bytes or os.PathLike, got NoneType"),
    ],
)
def test_a_wrong_type_is_named_not_shown(call, message):
    with pytest.raises(BadParameter, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: ModelParams("x" * 10**6),
        lambda: ModelParams.mla([0.5] * 10**5),
        lambda: check_mla_convergence(SPEC4, ["x"] * 10**5),
        lambda: SimConfig(model=MLA, steps=10, runs=[1] * 10**5, seed=0),
        lambda: SimConfig(model=MLA, steps=-(10**1000), runs=1, seed=0),
        lambda: simulate_trajectory(A4, [0] * 10**5, X4, 3),
        lambda: model_rate(SPEC4, [0] * 10**5),
        lambda: make_ring(4, 10**300),
    ],
    ids=["kind", "gamma-list", "gamma-strs", "runs-list", "steps-int", "model-list",
         "rate-model-list", "self_loop-int"],
)
def test_a_long_argument_is_cut_short(call):
    with pytest.raises(BadParameter) as ei:
        call()
    assert len(str(ei.value)) <= 200


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: make_ring(-(10**5000)), "ring size n must be >= 3, got -<16610-bit int>"),
        (lambda: SimConfig(MLA, -(10**5000), 1, 0),
         "steps must be >= 1, got -<16610-bit int>"),
        (lambda: make_ring(1 - 2**128), f"ring size n must be >= 3, got {1 - 2**128}"),
        (lambda: make_ring(-(2**128)), "ring size n must be >= 3, got -<129-bit int>"),
    ],
    ids=["ring-size", "steps", "128-bit", "129-bit"],
)
def test_an_int_too_long_to_print_is_shown_by_its_size(call, message):
    # str() of an int of more than 4,300 digits raises ValueError, so an
    # int past 128 bits is shown by its bit count without converting it
    with pytest.raises(BadParameter, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "call, prefix",
    [
        (lambda: validate([["x" * 10**6, 1], [1, 0]]),
         "weights must be a matrix of real numbers: 'xxx"),
        (lambda: simulate_trajectory(A4, MLA, ["x" * 10**6] * 4, 3),
         "x0 must be a vector of real numbers: 'xxx"),
        (lambda: validate([[0.5, None], [b"0.5", {"a": 1}]]),
         "weights must be a matrix of real numbers: {'a': 1} does not convert"),
    ],
    ids=["validate", "x0", "object"],
)
def test_an_entry_that_does_not_convert_is_named_short(call, prefix):
    with pytest.raises(BadParameter) as ei:
        call()
    assert str(ei.value).startswith(prefix)
    assert str(ei.value).endswith(" does not convert")
    assert len(str(ei.value)) <= 300


@pytest.mark.parametrize(
    "weights, message",
    [
        ([[1, 0], [1]], "setting an array element with a sequence"),
        (np.array([[0.5 + 0j, 0.5], [0.5, 0.5]]), "complex128 values"),
        (np.array([[0, 1], [1, 0]], dtype="datetime64[s]"), "datetime64[s] values"),
    ],
    ids=["ragged", "complex", "datetime"],
)
def test_a_matrix_that_is_not_real_keeps_numpys_words(weights, message):
    prefix = "weights must be a matrix of real numbers: "
    with pytest.raises(BadParameter, match=f"^{re.escape(prefix + message)}"):
        validate(weights)


BIG_ENTRY = "of real numbers: <1329-bit int> does not convert"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: validate([[10**400, 0], [0, 1]]), BadParameter,
         f"weights must be a matrix {BIG_ENTRY}"),
        (lambda: simulate_trajectory(A4, MLA, [1, 10**400, 0, 0], 3), BadParameter,
         f"x0 must be a vector {BIG_ENTRY}"),
        (lambda: fit_rate(A4, MLA, [1, 0, 0, 10**400], 30), BadParameter,
         f"x0 must be a vector {BIG_ENTRY}"),
        (lambda: consensus_value(A4, SPEC4, [10**400, 0.5, 0, 0]), BadParameter,
         f"x0 must be a vector {BIG_ENTRY}"),
        (lambda: Spectrum(np.array([1.0, 0.5]), [[1, 2], [3]]), BadSpectrum,
         "eigenvectors must be 2-by-2, got ragged rows"),
        # numpy refuses these sizes before it allocates anything
        (lambda: make_ring(10**12), BadParameter,
         "ring size n=1000000000000 is too large for a numpy array"),
        (lambda: make_ring(10**19), BadParameter,
         "ring size n=10000000000000000000 is too large for a numpy array"),
        (lambda: simulate_trajectory(A4, MLA, X4, 10**19), BadParameter,
         "steps=10000000000000000000 is too large for a numpy array"),
        (lambda: fit_rate(A4, MLA, X4, 10**19), BadParameter,
         "steps=10000000000000000000 is too large for a numpy array"),
        (lambda: random_symmetric_stochastic(10**5000, 0), BadParameter,
         "n=<16610-bit int> is too large for a numpy array"),
    ],
    ids=["validate-int", "trajectory-int", "fit-int", "consensus-int",
         "ragged-eigenvectors", "ring-size", "ring-size-past-int64",
         "trajectory-steps", "fit-steps", "random-size"],
)
def test_what_numpy_refuses_to_convert_gets_a_bounded_message(call, error, message):
    # an int past the float range raised OverflowError, ragged
    # eigenvectors and sizes numpy refuses numpy's ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{re.escape(message)}$") as ei:
            call()
    assert len(str(ei.value)) < 300


@pytest.mark.parametrize("x0", [[1e308] * 4, [1.7e308, 1.7e308, 0, 0]], ids=["1e308", "1.7e308"])
def test_a_mean_past_the_float_range_is_taken_without_overflow(x0):
    # the sum of the states overflows, their mean does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert consensus_value(A4, SPEC4, x0) == sum(x / 4 for x in x0)
        with pytest.raises(ConsensusLabError):
            fit_rate(A4, MLA, x0, 30)


# the one contract table: every public argument position, each called with
# the others valid, against one list of hostile values
CONTRACT_POSITIONS = {
    "ModelParams-kind": lambda v: ModelParams(v, 0.5),
    "ModelParams-param": lambda v: ModelParams(ModelKind.MLA, v),
    "ModelParams.mla": ModelParams.mla,
    "ModelParams.accelerated": ModelParams.accelerated,
    "SimConfig-model": lambda v: SimConfig(v, 3, 2, 0),
    "SimConfig-steps": lambda v: SimConfig(MLA, v, 2, 0),
    "SimConfig-runs": lambda v: SimConfig(MLA, 3, v, 0),
    "SimConfig-seed": lambda v: SimConfig(MLA, 3, 2, v),
    "run_batch-A": lambda v: run_batch(v, SimConfig(MLA, 3, 2, 0)),
    "run_batch-cfg": lambda v: run_batch(A4, v),
    "write_csv-path": FILE_APIS[2],
    "simulate_trajectory-A": lambda v: simulate_trajectory(v, MLA, X4, 3),
    "simulate_trajectory-model": lambda v: simulate_trajectory(A4, v, X4, 3),
    "simulate_trajectory-x0": lambda v: simulate_trajectory(A4, MLA, v, 3),
    "simulate_trajectory-steps": lambda v: simulate_trajectory(A4, MLA, X4, v),
    "fit_rate-A": lambda v: fit_rate(v, MLA, X4, 30),
    "fit_rate-model": lambda v: fit_rate(A4, v, X4, 30),
    "fit_rate-x0": lambda v: fit_rate(A4, MLA, v, 30),
    "fit_rate-steps": lambda v: fit_rate(A4, MLA, X4, v),
    "random_symmetric_stochastic-n": lambda v: random_symmetric_stochastic(v, 0),
    "random_symmetric_stochastic-seed": lambda v: random_symmetric_stochastic(4, v),
    "validate": validate,
    "make_ring-n": lambda v: make_ring(v, 0.1),
    "make_ring-self_loop": lambda v: make_ring(4, v),
    "read_matrix": FILE_APIS[0],
    "write_matrix-A": lambda v: write_matrix(v, "m.txt"),
    "write_matrix-path": FILE_APIS[1],
    "analyze_structure": analyze_structure,
    "eigendecompose_symmetric": eigendecompose_symmetric,
    "Spectrum-eigenvalues": Spectrum,
    "Spectrum-eigenvectors": lambda v: Spectrum(W, v),
    "rho_ess": rho_ess,
    "check_mla_convergence-spec": lambda v: check_mla_convergence(v, 0.5),
    "check_mla_convergence-gamma": lambda v: check_mla_convergence(SPEC4, v),
    "rho_ess_mla-spec": lambda v: rho_ess_mla(v, 0.5),
    "rho_ess_mla-gamma": lambda v: rho_ess_mla(SPEC4, v),
    "rho_ess_accelerated-spec": lambda v: rho_ess_accelerated(v, 1.2),
    "rho_ess_accelerated-beta": lambda v: rho_ess_accelerated(SPEC4, v),
    "model_rate-spec": lambda v: model_rate(v, MLA),
    "model_rate-model": lambda v: model_rate(SPEC4, v),
    "consensus_value-A": lambda v: consensus_value(v, SPEC4, X4),
    "consensus_value-spec": lambda v: consensus_value(A4, v, X4),
    "consensus_value-x0": lambda v: consensus_value(A4, SPEC4, v),
    "optimal_gamma": optimal_gamma,
    "optimal_beta": optimal_beta,
    "improving_gamma_exists": improving_gamma_exists,
    "lambda_hat_max-lam": lambda v: lambda_hat_max(v, 0.5),
    "lambda_hat_max-gamma": lambda v: lambda_hat_max(0.5, v),
    "summary-spec": summary,
    "summary-gamma": lambda v: summary(SPEC4, v),
}
# no size the machine cannot hold and no horizon or run count that loops long
HOSTILE = {
    "nan": float("nan"), "inf": float("inf"), "-inf": -float("inf"), "-1": -1, "0": 0,
    "10**400": 10**400, "2**65": 2**65, "str": "x", "numeric-str": "0.5", "None": None,
    "list": [0.5], "empty-list": [], "2x2": np.full((2, 2), 0.5), "complex": 1j,
    "float16": np.float16(0.5), "longdouble": np.longdouble(0.5), "True": True,
    "Fraction": Fraction(1, 2), "Decimal": Decimal("0.5"), "object": object(),
    "list-nan": [float("nan")], "object-2**65": np.array([2**65], dtype=object),
    "ragged": [[1, 0], [1]], "bytes": b"x", "dict": {}, "-1e-300": -1e-300,
    "1e308": 1e308, "x0-1e308": [1e308] * 4,
}


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@pytest.mark.parametrize("value", HOSTILE.values(), ids=HOSTILE)
@pytest.mark.parametrize("position", CONTRACT_POSITIONS)
def test_every_argument_position_returns_or_raises_the_library_error(
    position, value, contract_dir, monkeypatch
):
    # the file APIs take "x", "0.5" and b"x" as paths, so they write there
    monkeypatch.chdir(contract_dir)
    allowed = ConsensusLabError
    if position in ("read_matrix", "write_matrix-path", "write_csv-path"):
        allowed = (ConsensusLabError, OSError)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            CONTRACT_POSITIONS[position](value)
        except allowed as e:
            assert len(str(e)) < 300
