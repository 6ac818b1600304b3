import dataclasses
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import consensuslab
from conftest import relabelled_rings
from consensuslab import (
    AssumptionViolated,
    BadSpectrum,
    DominantNotSimple,
    ModelParams,
    NotConvergent,
    NotSymmetric,
    analyze_structure,
    check_mla_convergence,
    consensus_value,
    eigendecompose_symmetric,
    improving_gamma_exists,
    make_ring,
    model_rate,
    optimal_beta,
    optimal_gamma,
    rho_ess_mla,
    random_symmetric_stochastic,
    rho_ess,
    rho_ess_accelerated,
    validate,
)
from consensuslab.spectral import Spectrum, _contract_bound, certificate_bound
from scalar_reference import (
    augmented_eigenvector,
    dominance_error,
    map_eigenvalue,
    verify_augmented_eigenpair,
)


@pytest.fixture(scope="module")
def reducible_pair():
    # two disconnected 2-agent swap networks: eigenvalues {1, 1, -1, -1}
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 1.0
    W[2, 3] = W[3, 2] = 1.0
    return validate(W)


class TestEigendecompose:
    def test_pure_ring_spectrum(self, ring4):
        spec = eigendecompose_symmetric(ring4)
        assert np.allclose(spec.eigenvalues, [1.0, 0.0, 0.0, -1.0], atol=1e-10)

    def test_ring_with_loops_spectrum(self, ring4_loops_spectrum):
        assert np.allclose(
            ring4_loops_spectrum.eigenvalues, [1.0, 0.1, 0.1, -0.8], atol=1e-10
        )

    def test_identity_spectrum(self):
        spec = eigendecompose_symmetric(validate(np.eye(3)))
        assert np.array_equal(spec.eigenvalues, np.ones(3))

    def test_matches_numpy_oracle(self, corpus100):
        for A, spec in corpus100:
            ref = np.sort(np.linalg.eigvalsh(A.weights))[::-1]
            assert np.max(np.abs(spec.eigenvalues - ref)) <= 1e-10

    def test_spectrum_invariants(self, corpus100):
        for A, spec in corpus100:
            w, V = spec.eigenvalues, spec.eigenvectors
            assert abs(w[0] - 1.0) <= 1e-10
            assert w[-1] >= -1.0 - 1e-10
            assert np.all(np.diff(w) <= 1e-14)
            # eigen-residuals and orthonormality
            assert np.max(np.abs(A.weights @ V - V * w)) <= 1e-10
            gram = V.T @ V - np.eye(A.n)
            assert np.max(np.abs(gram)) <= 1e-10

    def test_reconstruction(self, corpus100):
        for A, spec in corpus100:
            w, V = spec.eigenvalues, spec.eigenvectors
            rebuilt = (V * w) @ V.T
            assert np.max(np.abs(rebuilt - A.weights)) <= 1e-9

    def test_deterministic_and_sign_convention(self, ring4_loops):
        s1 = eigendecompose_symmetric(ring4_loops)
        s2 = eigendecompose_symmetric(ring4_loops)
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)
        for i in range(4):
            col = s1.eigenvectors[:, i]
            first = col[np.abs(col) > 1e-8][0]
            assert first > 0

    def test_rejects_asymmetric(self):
        W = np.array([[0.2, 0.8], [0.5, 0.5]])
        with pytest.raises(NotSymmetric):
            eigendecompose_symmetric(validate(W))


class TestSpectrumContract:
    """Every spectrum is checked once, when it is built: the radii read
    their extremes at its two ends."""

    @pytest.mark.parametrize(
        "eigenvalues, eigenvectors",
        [
            (np.array([]), ()),
            ([1.0, 0.5], ()),
            (np.array([[1.0, 0.5]]), ()),
            (np.array([1.0, np.nan]), ()),
            (np.array([1.0, -np.inf]), ()),
            (np.array([1.0, 0.5j]), ()),
            (np.array([1.0, 0.5], dtype=object), ()),
            (np.array([1.0, -0.5, 0.2]), ()),
            (np.array([1.0, 0.2, np.nextafter(0.2, 1.0)]), ()),
            # eigenvectors are optional, but checked when given
            (np.array([1.0, 0.5, -0.5]), (np.eye(2),)),
            (np.array([1.0, 0.5]), (np.eye(2)[:, :1],)),
        ],
    )
    def test_rejects_malformed(self, eigenvalues, eigenvectors):
        with pytest.raises(BadSpectrum):
            Spectrum(eigenvalues, *eigenvectors)

    def test_accepts_ties_and_a_lone_eigenvalue(self):
        Spectrum(np.array([1.0, 0.2, 0.2, 0.0, -0.0, -0.5]))
        Spectrum(np.array([1.0]))

    def test_later_writes_to_the_callers_array_change_nothing(self):
        w = np.array([1.0, 0.5, 0.1, -0.8])
        spec = Spectrum(w)
        before = (
            check_mla_convergence(spec, 0.7),
            rho_ess_accelerated(spec, 1.2),
            rho_ess(spec),
        )
        w[:] = [1.0, 1.0, 0.0, -0.99]
        assert not spec.eigenvalues.flags.writeable
        assert spec.eigenvalues.tolist() == [1.0, 0.5, 0.1, -0.8]
        assert check_mla_convergence(spec, 0.7) == before[0]
        assert (rho_ess_accelerated(spec, 1.2), rho_ess(spec)) == before[1:]

    @pytest.mark.parametrize(
        "w",
        [
            *(-np.arange(5, dtype=t) / np.array(3, dtype=t)
              for t in (np.float64, np.float32, np.float16, np.longdouble)),
            np.array([2**62 + 1, 2**53 + 1, 7, 0, -5], dtype=np.int64),
            np.array([2**64 - 1, 2**63 + 2**11 + 1, 2**53 + 1, 0], dtype=np.uint64),
        ],
        ids=["float64", "float32", "float16", "longdouble", "int64", "uint64"],
    )
    def test_floats_are_each_eigenvalue_as_a_python_float(self, w):
        # what analysis reads: float() of each entry, signed zero and the
        # rounding of a wide integer or a long double included
        got = Spectrum(w)._floats
        assert [type(x) for x in got] == [float] * w.size
        assert [x.hex() for x in got] == [float(x).hex() for x in w]

    @pytest.mark.parametrize(
        "w",
        [
            # lambda_1 = 1 +- 1e-8, each +- 1 ulp
            *(np.array([np.nextafter(one, toward), 0.5, -0.3])
              for one in (1.0 + 1e-8, 1.0 - 1e-8) for toward in (0.0, one, 2.0)),
            # lambda_n = -1 - 1e-8 +- 1 ulp
            *(np.array([1.0, 0.5, np.nextafter(-1.0 - 1e-8, toward)])
              for toward in (-2.0, -1.0 - 1e-8, 0.0)),
            # lambda_2 = 1 - _contract_bound(n) +- 1 ulp
            *(np.array([1.0, np.nextafter(1.0 - _contract_bound(n), toward),
                        *np.linspace(0.5, -0.3, n - 2)])
              for n in (4, 64) for toward in (0.0, 1.0 - _contract_bound(n), 2.0)),
            # in float32, 1 - 1e-10 rounds to 1 and a second 1 would pass as simple
            np.array([1, 1, 0.5, -0.3], dtype=np.float32),
            np.array([1.0]),
            np.array([1.0 + 2e-8]),
            np.array([1.0, -1.0]),
            np.array([1.0, 1.0]),
            np.array([1.0 - 2e-8, 0.5]),
        ],
        ids=[*(f"lambda1-{i}" for i in range(6)), *(f"lambdan-{i}" for i in range(3)),
             *(f"lambda2-{i}" for i in range(6)),
             "float32", "n1", "n1-off", "n2-periodic", "n2-reducible", "n2-off"],
    )
    def test_rule_edges_raise_as_every_call_once_decided(self, w):
        # the rule is settled when the spectrum is built; each analysis
        # call still raises what checking it afresh would raise
        spec = Spectrum(w)
        n = w.size
        calls = [
            lambda: rho_ess(spec),
            lambda: check_mla_convergence(spec, 0.5),
            lambda: rho_ess_accelerated(spec, 1.2),
        ]
        if n > 1:  # no network of one agent passes validate
            A = validate(np.full((n, n), 1.0 / n))
            calls.append(lambda: consensus_value(A, spec, np.zeros(n)))
        want = dominance_error(w)
        for call in calls:
            if want is None:
                call()
                continue
            with pytest.raises(want[0]) as info:
                call()
            assert (type(info.value), str(info.value)) == want

    def test_settled_facts_follow_the_eigenvalues(self, ring4_loops_spectrum):
        def settled(spec):
            return spec._floats, spec._simple, spec._bound

        spec = ring4_loops_spectrum
        w = np.array([1.0, 1.0, 0.2, -0.95])
        replaced = dataclasses.replace(spec, eigenvalues=w)
        assert settled(replaced) == settled(Spectrum(w))
        assert settled(replaced) == (tuple(w.tolist()), False, certificate_bound(4))
        for s in (spec, replaced, Spectrum(np.array([1.0, 0.5, -2.0]))):
            assert settled(pickle.loads(pickle.dumps(s))) == settled(s)
        assert settled(spec) == (tuple(spec.eigenvalues.tolist()), True,
                                 certificate_bound(4))

    def test_solver_output_is_not_copied(self, ring4_loops):
        vals = eigendecompose_symmetric(ring4_loops).eigenvalues
        assert not vals.flags.writeable
        assert Spectrum(vals).eigenvalues is vals


class TestCertificate:
    def test_every_spectrum_within_bound(self, corpus100):
        for A, spec in corpus100:
            assert 0.0 <= spec.residual <= certificate_bound(A.n)
            assert 0.0 <= spec.orth_error <= certificate_bound(A.n)

    def test_fields_are_the_stated_maxima(self, ring4_loops, ring4_loops_spectrum):
        w, V = ring4_loops_spectrum.eigenvalues, ring4_loops_spectrum.eigenvectors
        W = ring4_loops.weights
        assert ring4_loops_spectrum.residual == np.max(np.abs(W @ V - V * w))
        assert ring4_loops_spectrum.orth_error == np.max(np.abs(V.T @ V - np.eye(4)))

    def test_solver_failure_is_bad_spectrum(self, ring4_loops, monkeypatch):
        def fail(W):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(BadSpectrum):
            eigendecompose_symmetric(ring4_loops)

    def test_inaccurate_eigenvalues_are_rejected(self, ring4_loops, monkeypatch):
        eigh = np.linalg.eigh

        def shifted(W):
            # orthonormal vectors, eigenvalues off by 1e-12 > 16 * 4 * eps
            w, V = eigh(W)
            return w + 1e-12, V

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        with pytest.raises(BadSpectrum, match="certificate"):
            eigendecompose_symmetric(ring4_loops)

    def test_non_orthogonal_vectors_are_rejected(self, ring4, monkeypatch):
        eigh = np.linalg.eigh

        def skewed(W):
            # mixing within the eigenspace of 0 keeps the residual, not V^T V
            w, V = eigh(W)
            V[:, 1] += 1e-12 * V[:, 2]
            return w, V

        monkeypatch.setattr(np.linalg, "eigh", skewed)
        with pytest.raises(BadSpectrum, match="certificate"):
            eigendecompose_symmetric(ring4)


# Decomposes the matrices saved in argv[1] and saves the spectra to argv[2].
DECOMPOSE = """\
import sys
import numpy as np
from consensuslab import eigendecompose_symmetric, validate
out = {}
for key, W in np.load(sys.argv[1]).items():
    spec = eigendecompose_symmetric(validate(W))
    out[key + "_values"] = spec.eigenvalues
    out[key + "_vectors"] = spec.eigenvectors
np.savez(sys.argv[2], **out)
"""


def test_blas_thread_count_determinism(tmp_path):
    nets = {
        f"n{n}": random_symmetric_stochastic(n, 700 + n).weights
        for n in (32, 128, 256)
    }
    # repeated eigenvalues: the eigenvectors may span the eigenspace in
    # another basis, so only the values are compared across thread counts
    nets["ring"] = make_ring(256, 0.1).weights
    np.savez(tmp_path / "in.npz", **nets)
    src = os.path.dirname(os.path.dirname(consensuslab.__file__))
    runs = {}
    for threads in ("1", "2"):
        for rep in range(2):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            path = [src, env.get("PYTHONPATH")]
            env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
            out = tmp_path / f"t{threads}-{rep}.npz"
            subprocess.run(
                [sys.executable, "-c", DECOMPOSE, str(tmp_path / "in.npz"), str(out)],
                env=env, check=True,
            )
            runs[threads, rep] = dict(np.load(out))
    for threads in ("1", "2"):
        first, second = runs[threads, 0], runs[threads, 1]
        for key in first:
            assert np.array_equal(first[key], second[key]), (threads, key)
    for key in nets:
        bound = certificate_bound(nets[key].shape[0])
        for part in ("_values",) if key == "ring" else ("_values", "_vectors"):
            one, two = runs["1", 0][key + part], runs["2", 0][key + part]
            assert np.max(np.abs(one - two)) <= bound, (key, part)


class TestPeriodicRings:
    """A pure ring of even length is periodic: -1 is an exact eigenvalue,
    whatever the node labelling does to its rounding."""

    @pytest.mark.parametrize("n", [8, 16, 64, 256])
    def test_every_labelling_is_exactly_periodic(self, n):
        for A in relabelled_rings(n, 60, seed=1000 + n):
            spec = eigendecompose_symmetric(A)
            assert rho_ess(spec) == 1.0
            with pytest.raises(BadSpectrum):
                optimal_gamma(spec)
            with pytest.raises(BadSpectrum):
                optimal_beta(spec)
            with pytest.raises(AssumptionViolated):
                improving_gamma_exists(spec)
            for model in (ModelParams.degroot(), ModelParams.accelerated(1.2)):
                with pytest.raises(NotConvergent):
                    model_rate(spec, model)


class TestRhoEss:
    def test_examples(self, ring4, ring4_loops_spectrum):
        assert rho_ess(eigendecompose_symmetric(ring4)) == pytest.approx(1.0, abs=1e-10)
        assert rho_ess(ring4_loops_spectrum) == pytest.approx(0.8, abs=1e-10)
        # a lone eigenvalue has nothing to decay
        assert rho_ess(Spectrum(np.array([1.0]))) == 0.0

    def test_reducible_input_raises(self, reducible_pair):
        # the components never reach a common value, for any model
        spec = eigendecompose_symmetric(reducible_pair)
        with pytest.raises(DominantNotSimple):
            rho_ess(spec)
        with pytest.raises(DominantNotSimple):
            check_mla_convergence(spec, 0.5)
        with pytest.raises(DominantNotSimple):
            rho_ess_mla(spec, 0.5)
        with pytest.raises(DominantNotSimple):
            consensus_value(reducible_pair, spec, np.arange(4.0))
        for model in (
            ModelParams.degroot(),
            ModelParams.accelerated(1.2),
            ModelParams.mla(0.5),
        ):
            with pytest.raises(DominantNotSimple):
                model_rate(spec, model)
        # the identity is reducible too: its agents never exchange a value
        identity = eigendecompose_symmetric(validate(np.eye(3)))
        with pytest.raises(DominantNotSimple):
            rho_ess(identity)
        with pytest.raises(DominantNotSimple):
            model_rate(identity, ModelParams.degroot())
        assert issubclass(DominantNotSimple, AssumptionViolated)

    def test_float32_repeated_one_is_reducible(self):
        # in float32, 1 - 1e-10 rounds to 1 and a second 1 would pass as simple
        spec = Spectrum(np.array([1, 1, 0.5, -0.3], dtype=np.float32))
        with pytest.raises(DominantNotSimple):
            rho_ess(spec)
        with pytest.raises(DominantNotSimple):
            check_mla_convergence(spec, 0.5)

    def test_below_one_iff_primitive(self, corpus20):
        nets = [A for A, _ in corpus20]
        nets += [make_ring(n, 0.0) for n in range(3, 9)]
        for A in nets:
            rep = analyze_structure(A)
            rho = rho_ess(eigendecompose_symmetric(A))
            assert (rho < 1.0 - 1e-12) == rep.primitive


class TestAugmentedEigenpair:
    def test_consensus_direction_is_fixed(self, ring4):
        v = np.full(4, 0.5)
        assert verify_augmented_eigenpair(ring4, 0.7, 1.0, 1.0, v) <= 1e-12

    def test_secondary_branch_of_dominant(self, ring4):
        v = np.full(4, 0.5)
        assert verify_augmented_eigenpair(ring4, 0.5, 1.0, -0.5, v) <= 1e-9

    def test_complex_pair_on_pure_ring(self, ring4):
        v = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
        lam_hat = complex(-0.25, np.sqrt(1.75) / 2.0)
        assert verify_augmented_eigenpair(ring4, 0.5, -1.0, lam_hat, v) <= 1e-9

    def test_stacked_vector_layout(self):
        v = np.array([1.0, -1.0])
        vhat = augmented_eigenvector(0.5j, v)
        assert np.array_equal(vhat[:2], 0.5j * v)
        assert np.array_equal(vhat[2:], v.astype(complex))

    def test_every_mapped_pair_verifies(self, corpus20):
        rng = np.random.Generator(np.random.Philox(key=42))
        for A, spec in corpus20[:10]:
            for g in rng.uniform(-0.5, 2.5, 5):
                for i in range(A.n):
                    lam = float(spec.eigenvalues[i])
                    v = spec.eigenvectors[:, i]
                    pair = map_eigenvalue(lam, g)
                    for lam_hat in (pair.lambda_plus, pair.lambda_minus):
                        r = verify_augmented_eigenpair(A, g, lam, lam_hat, v)
                        assert r <= 1e-9
