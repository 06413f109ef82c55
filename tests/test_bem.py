import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_bem
from invlap import bem, harness, specfun
from invlap.core import make_time_grid, plan_samples
from invlap.oracles import benchmark_laplace_1d
from reference_bessel import mp_k01

OBS = (1.0 / 3.0, 1.0)


def _solve_interior(mesh, p, point=OBS):
    q = np.sqrt(complex(p))
    system = bem.assemble(mesh, q)
    solution = bem.solve_boundary(system, mesh)
    return bem.eval_interior(solution, mesh, point)


# ---------------------------------------------------------------------------
# mesh construction
# ---------------------------------------------------------------------------

def test_element_counts():
    mesh = bem.benchmark_rectangle_mesh(4)
    assert mesh.n_elements == 40  # 12 + 8 + 12 + 8
    lengths = np.unique(np.round(mesh.lengths, 12))
    assert lengths.size == 1 and lengths[0] == pytest.approx(0.25)


def test_bc_tag_counts():
    n = 4
    mesh = bem.benchmark_rectangle_mesh(n)
    kinds = np.array(mesh.bc_kind)
    assert np.sum(kinds == bem.DIRICHLET) == 2 * (2 * n)
    assert np.sum(kinds == bem.NEUMANN) == 2 * (3 * n)


def test_left_side_normals_point_outward():
    mesh = bem.benchmark_rectangle_mesh(2)
    left = mesh.midpoints[:, 0] < 1e-9
    assert np.all(mesh.normals[left] @ np.array([-1.0, 0.0]) == 1.0)
    right = mesh.midpoints[:, 0] > 3.0 - 1e-9
    assert np.all(mesh.normals[right] @ np.array([1.0, 0.0]) == 1.0)


def test_perimeter_closed_ccw():
    mesh = bem.benchmark_rectangle_mesh(2)
    # every element array follows from the starts
    assert np.array_equal(mesh.ends, np.roll(mesh.starts, -1, axis=0))
    assert np.array_equal(mesh.midpoints, 0.5 * (mesh.starts + mesh.ends))
    # outward normals are the tangents turned clockwise
    assert np.array_equal(mesh.normals, mesh.tangents @ np.array([[0.0, -1.0], [1.0, 0.0]]))
    # shoelace area of the traversal must be positive (counterclockwise)
    area = 0.5 * np.sum(mesh.starts[:, 0] * mesh.ends[:, 1]
                        - mesh.ends[:, 0] * mesh.starts[:, 1])
    assert area == pytest.approx(6.0)
    copy = bem.BoundaryMesh(mesh.starts, mesh.bc_kind, mesh.bc_value)
    for name in _MESH_ARRAYS:
        assert np.array_equal(getattr(copy, name), getattr(mesh, name))


def _misspelled(starts, kinds, values):
    return starts, ["dirchlet" if k == bem.DIRICHLET else k for k in kinds], values


def _clockwise(starts, kinds, values):
    return starts[::-1], kinds[::-1], values[::-1]


def _repeated_vertex(starts, kinds, values):
    return (np.insert(starts, 1, starts[1], axis=0), kinds[:1] + kinds,
            np.insert(values, 0, values[0]))


def _nan_vertex(starts, kinds, values):
    starts[3, 1] = np.nan
    return starts, kinds, values


def _short_values(starts, kinds, values):
    return starts, kinds, values[:-1]


def _three_columns(starts, kinds, values):
    return np.column_stack([starts, np.zeros(len(starts))]), kinds, values


@pytest.mark.parametrize("corrupt", [_misspelled, _clockwise, _repeated_vertex, _nan_vertex,
                                     _short_values, _three_columns])
def test_directly_built_mesh_is_validated(corrupt):
    mesh = bem.benchmark_rectangle_mesh(2)
    starts, kinds, values = corrupt(np.array(mesh.starts), list(mesh.bc_kind),
                                    np.array(mesh.bc_value))
    with pytest.raises(ValueError):
        bem.BoundaryMesh(starts, tuple(kinds), values)


def test_used_mesh_pickles():
    mesh = bem.benchmark_rectangle_mesh(2)
    phi, grad, _ = _solve_interior(mesh, 2.0 + 1.0j)
    copy = pickle.loads(pickle.dumps(mesh))
    phi_copy, grad_copy, _ = _solve_interior(copy, 2.0 + 1.0j)
    assert phi_copy == phi
    assert np.array_equal(grad_copy, grad)
    _assert_arrays_read_only(copy)


_MESH_ARRAYS = ("starts", "ends", "midpoints", "normals", "tangents", "lengths",
                "bc_value", "is_dirichlet")


def _assert_arrays_read_only(mesh):
    for name in _MESH_ARRAYS:
        with pytest.raises(ValueError):
            getattr(mesh, name)[0] = 1.0


def test_mesh_arrays_read_only(mesh2):
    _assert_arrays_read_only(mesh2)
    # a mesh built from writeable arrays keeps read-only copies of them
    starts, values = np.array(mesh2.starts), np.array(mesh2.bc_value)
    mesh = bem.BoundaryMesh(starts, mesh2.bc_kind, values)
    _assert_arrays_read_only(mesh)
    starts[0] = 1.0
    values[0] = 1.0
    assert np.array_equal(mesh.starts, mesh2.starts)
    assert np.array_equal(mesh.bc_value, mesh2.bc_value)


def test_mesh_hashes_and_compares_by_identity():
    mesh = bem.benchmark_rectangle_mesh(2)
    other = bem.benchmark_rectangle_mesh(2)
    assert {mesh: 1}[mesh] == 1
    assert mesh == mesh
    assert mesh != other


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_assemble_requires_right_half_plane_q():
    mesh = bem.benchmark_rectangle_mesh(2)
    # a non-finite q is refused as input, before any kernel is evaluated
    for q in (-1.0 + 0.5j, math.inf, [1.0, math.inf], math.nan):
        with pytest.raises(ValueError):
            bem.assemble(mesh, q)


def test_kernel_decay_at_large_real_q(mesh4):
    system = bem.assemble(mesh4, 50.0)
    g = np.abs(system.g)
    n = mesh4.n_elements
    dist = np.linalg.norm(mesh4.midpoints[:, None, :] - mesh4.midpoints[None, :, :],
                          axis=-1)
    far = dist > 3 * np.max(mesh4.lengths)
    assert np.max(g[far]) < np.min(np.diag(g))


def _normwise(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b))


def _planned_p(experiment, **overrides):
    """Every distinct p that an experiment's methods plan."""
    config = harness.ExperimentConfig(experiment, **overrides).resolved()
    grid = make_time_grid(config.t_min, config.t_max, config.n_times, "logarithmic")
    p = np.concatenate([plan_samples(m, grid, config.terms, config.strategy).p
                        for m in config.methods])
    return np.unique(p)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4]), st.floats(-2.0, 1.6), st.floats(-1.5, 1.5))
def test_matches_per_call_reference(density, log_abs_q, arg_q):
    # differential check against the per-call quadrature the cached
    # geometry replaced: same rules, kernels summed in another order
    mesh = bem.benchmark_rectangle_mesh(density)
    q = 10.0 ** log_abs_q * np.exp(1j * arg_q)
    system = bem.assemble(mesh, q)
    ref = reference_bem.assemble(mesh, q)
    assert _normwise(system.g, ref.g) < 1e-13
    assert _normwise(system.h, ref.h) < 1e-13
    solution = bem.solve_boundary(system, mesh)
    # (1/3, 1) repeats distances, (0.6, 0.9) does not
    for point in ((0.6, 0.9), (1.0 / 3.0, 1.0)):
        phi, grad, flags = bem.eval_interior(solution, mesh, point)
        ref_phi, ref_grad, ref_flags = reference_bem.eval_interior(solution, mesh, point)
        assert _normwise(phi, ref_phi) < 1e-13
        assert _normwise(grad, ref_grad) < 1e-13
        assert flags == ref_flags


@pytest.mark.parametrize("density, point", [(2, (0.6, 0.9)), (8, OBS)])
def test_interior_far_rule_matches_composite_oracle(density, point):
    # the far rule on elements beyond NEAR_FIELD_FACTOR lengths of the
    # point, against the composite rule on every element, on the same
    # boundary solution at every p that experiments A and B plan
    mesh = bem.benchmark_rectangle_mesh(density)
    p_all = np.concatenate([_planned_p("A", n_times=4),
                            _planned_p("B", t_max=1.0, terms=15)])
    worst = 0.0
    for p in p_all:
        solution = bem.solve_boundary(bem.assemble(mesh, np.sqrt(p)), mesh)
        phi, grad, flags = bem.eval_interior(solution, mesh, point)
        ref_phi, ref_grad, ref_flags = reference_bem.eval_interior_composite(
            solution, mesh, point)
        assert flags == ref_flags
        worst = max(worst, _normwise(phi, ref_phi), _normwise(grad, ref_grad))
    assert worst < 1e-9


def test_per_call_paths_do_no_q_independent_work(monkeypatch):
    # once the mesh's and the point's quadratures exist, a solve builds no
    # Gauss rule and sorts no distances
    mesh = bem.benchmark_rectangle_mesh(2)
    qs = (1.5, np.sqrt(2.0 + 4.0j))
    expected = [_solve_interior(mesh, q * q) for q in qs]

    def forbidden(*args, **kwargs):
        raise AssertionError("q-independent work in a per-call path")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", forbidden)
    monkeypatch.setattr(np, "unique", forbidden)
    for q, (phi, grad, flags) in zip(qs, expected):
        again = _solve_interior(mesh, q * q)
        assert again[0] == phi and np.array_equal(again[1], grad) and again[2] == flags


@pytest.mark.parametrize("density", [2, 8])
def test_stacked_stages_match_scalar_calls(density):
    # every row of a stack, through all three stages, has the bits and the
    # dtype of its own scalar call; a zero imaginary part of either sign
    # keeps an array real
    mesh = bem.benchmark_rectangle_mesh(density)
    p = _planned_p("A", n_times=3)
    real, other = (np.sqrt(v[np.linspace(0, v.size - 1, 5).astype(int)])
                   for v in (p[p.imag == 0].real, p[p.imag != 0]))
    real = [complex(q, -0.0) if i % 2 else q for i, q in enumerate(real)]
    n = mesh.n_elements
    for qs, dtype in ((real, np.float64), (other, np.complex128)):
        system = bem.assemble(mesh, qs)
        solution = bem.solve_boundary(system, mesh)
        phi, grad, flags = bem.eval_interior(solution, mesh, OBS)
        assert system.g.shape == (5, n, n) and phi.shape == (5,) and grad.shape == (5, 2)
        for i, q in enumerate(qs):
            one = bem.assemble(mesh, q)
            one_solution = bem.solve_boundary(one, mesh)
            one_phi, one_grad, one_flags = bem.eval_interior(one_solution, mesh, OBS)
            assert one.q == system.q[i] and one_flags == flags
            for got, want in ((system.g[i], one.g), (system.h[i], one.h),
                              (solution.phi[i], one_solution.phi),
                              (solution.flux[i], one_solution.flux),
                              (phi[i], one_phi), (grad[i], one_grad)):
                assert got.dtype == want.dtype == dtype
                assert np.array_equal(got, want)
    # a real q in a complex array is solved in complex arithmetic
    assert bem.assemble(mesh, [1.5, 1.0 + 1.0j]).g.dtype == np.complex128


def test_nonfinite_near_field_kernel_raises(monkeypatch):
    # NaN only at the distance from a midpoint to the nearest node of the
    # composite rule on its collinear neighbour, which no far-rule or
    # self-integral node shares
    mesh = bem.benchmark_rectangle_mesh(2)
    length = float(mesh.lengths[0])
    u = np.polynomial.legendre.leggauss(bem.GAUSS_ORDER)[0]
    nearest = 1.0 / bem.NEAR_FIELD_SPLIT - 1.0 + u[0] / bem.NEAR_FIELD_SPLIT
    d = length * (1.0 + 0.5 * nearest)
    q = 1.5 + 0.5j

    def k01_nan(z):
        k0, k1 = specfun.k01_values(z)
        k0[np.abs(np.abs(z) / abs(q) - d) < 1e-9 * d] = np.nan
        return k0, k1

    monkeypatch.setattr(bem, "k01_values", k01_nan)
    with pytest.raises(FloatingPointError):
        bem.assemble(mesh, q)


def _experiment_a_real_q():
    """q = sqrt(p) of experiment A's Stehfest and Schapery plans."""
    p = _planned_p("A", methods=("stehfest", "schapery"))
    assert np.all(p.imag == 0)
    return np.sqrt(p.real)


def _complex_kernels(z):
    return specfun.k01_values(np.asarray(z, dtype=complex))


def test_real_kernels_match_complex_path_and_oracle(mesh8):
    # the real K0/K1 at the q r of experiment A's real-axis plans, with r
    # the assembly distances and the interior distances at its point
    q = _experiment_a_real_q()
    interior = bem._layer_quadrature(mesh8, np.array([OBS]), np.zeros(1))
    r = mesh8._assembly_quadrature.r
    r = np.concatenate([r[::16], r[-1:], interior.r])
    z = np.outer(q, r).ravel()
    k0, k1 = specfun.k01_values(z)
    assert k0.dtype == k1.dtype == np.float64
    c0, c1 = _complex_kernels(z)
    assert np.max(np.abs(k0 - c0) / np.abs(c0)) < 1e-14
    assert np.max(np.abs(k1 - c1) / np.abs(c1)) < 1e-14
    for x in np.quantile(z, np.linspace(0.0, 1.0, 30), method="nearest"):
        r0, r1 = mp_k01(float(x))
        a0, a1 = specfun.k01_values(x)
        assert abs(a0 - r0) <= 2e-15 * abs(r0), f"K0 off at x={x}"
        assert abs(a1 - r1) <= 2e-15 * abs(r1), f"K1 off at x={x}"


@pytest.mark.parametrize("density", [2, 8])
def test_real_q_system_matches_complex_path(density, monkeypatch):
    # float64 end to end at real q, and within rounding of the same
    # solve run on complex kernels and of the per-call reference
    mesh = bem.benchmark_rectangle_mesh(density)
    q_all = _experiment_a_real_q()
    for q in np.quantile(q_all, np.linspace(0.0, 1.0, 5), method="nearest"):
        system = bem.assemble(mesh, complex(q))
        solution = bem.solve_boundary(system, mesh)
        phi, grad, _ = bem.eval_interior(solution, mesh, OBS)
        with monkeypatch.context() as m:
            m.setattr(bem, "k01_values", _complex_kernels)
            ref = bem.assemble(mesh, complex(q))
            ref_solution = bem.solve_boundary(ref, mesh)
            ref_phi, ref_grad, _ = bem.eval_interior(ref_solution, mesh, OBS)
        assert ref.g.dtype == np.complex128
        for a in (system.g, system.h, solution.phi, solution.flux, grad):
            assert a.dtype == np.float64
        assert isinstance(phi, np.float64)
        assert _normwise(system.g, ref.g) < 1e-14
        assert _normwise(system.h, ref.h) < 1e-14
        per_call = reference_bem.assemble(mesh, complex(q))
        assert _normwise(system.g, per_call.g) < 1e-14
        assert _normwise(system.h, per_call.h) < 1e-14
        assert _normwise(phi, ref_phi) < 1e-13
        assert _normwise(grad, ref_grad) < 1e-13


def test_signed_zero_imaginary_q_takes_real_path(mesh2):
    a = bem.assemble(mesh2, 1.5)
    for q in (complex(1.5, 0.0), complex(1.5, -0.0), np.sqrt(complex(2.25, -0.0))):
        b = bem.assemble(mesh2, q)
        assert b.g.dtype == np.float64 and b.q == 1.5
        assert np.array_equal(a.g, b.g) and np.array_equal(a.h, b.h)


def test_conjugate_symmetry_of_matrices(mesh4):
    q = np.sqrt(complex(2.0 + 4.0j))
    a = bem.assemble(mesh4, q)
    b = bem.assemble(mesh4, np.conj(q))
    assert np.allclose(b.h, np.conj(a.h), rtol=1e-13, atol=1e-15)
    assert np.allclose(b.g, np.conj(a.g), rtol=1e-13, atol=1e-15)


def test_constant_field_identity_small_q(mesh4):
    # interior representation of phi = 1 with zero flux approaches 1 as
    # q -> 0 (potential-theory constant-field identity)
    n = mesh4.n_elements
    solution = bem.BoundarySolution(phi=np.ones(n, dtype=complex),
                                    flux=np.zeros(n, dtype=complex), q=1e-3)
    phi, _, _ = bem.eval_interior(solution, mesh4, (1.0, 1.0))
    assert phi.real == pytest.approx(1.0, abs=1e-3)
    assert abs(phi.imag) < 1e-6


def test_reciprocity_for_parallel_elements(mesh2):
    # equal-length elements with parallel tangents see each other through
    # mirrored Gauss points, so G_ij == G_ji to rounding; perpendicular
    # pairs only agree to the element-size discretization order
    system = bem.assemble(mesh2, 1.5)
    tangents = mesh2.tangents
    n = mesh2.n_elements
    for i in range(n):
        for j in range(i + 1, n):
            if abs(abs(tangents[i] @ tangents[j]) - 1.0) < 1e-12:
                gij, gji = system.g[i, j], system.g[j, i]
                assert abs(gij - gji) <= 1e-8 * abs(gij)


# ---------------------------------------------------------------------------
# boundary solve
# ---------------------------------------------------------------------------

def test_imposed_data_kept_exactly(mesh2):
    system = bem.assemble(mesh2, 2.0)
    solution = bem.solve_boundary(system, mesh2)
    kinds = np.array(mesh2.bc_kind)
    dirichlet = kinds == bem.DIRICHLET
    assert np.array_equal(solution.phi[dirichlet], mesh2.bc_value[dirichlet])
    assert np.array_equal(solution.flux[~dirichlet], mesh2.bc_value[~dirichlet])


def test_boundary_antisymmetry(mesh4):
    system = bem.assemble(mesh4, 1.3)
    solution = bem.solve_boundary(system, mesh4)
    mirrored = np.column_stack([3.0 - mesh4.midpoints[:, 0], mesh4.midpoints[:, 1]])
    for i in range(mesh4.n_elements):
        j = int(np.argmin(np.linalg.norm(mesh4.midpoints - mirrored[i], axis=1)))
        assert solution.phi[i] == pytest.approx(-solution.phi[j], abs=1e-10)


# ---------------------------------------------------------------------------
# interior evaluation
# ---------------------------------------------------------------------------

def test_center_value_vanishes(mesh4):
    phi, _, flags = _solve_interior(mesh4, 1.0, point=(1.5, 1.0))
    assert abs(phi) < 1e-10
    assert flags == ()


def test_matches_1d_oracle_half_percent(mesh8):
    for p in (1.0, 2.0 + 4.0j, 10.0):
        phi, _, _ = _solve_interior(mesh8, p)
        ref = benchmark_laplace_1d(OBS[0], p)
        assert abs(phi - ref) / abs(ref) < 5e-3


def test_refinement_convergence():
    p = 1.0
    errs = []
    for npu in (2, 4, 8):
        mesh = bem.benchmark_rectangle_mesh(npu)
        phi, _, _ = _solve_interior(mesh, p)
        ref = benchmark_laplace_1d(OBS[0], p)
        errs.append(abs(phi - ref) / abs(ref))
    assert errs[0] > errs[1] > errs[2]


def test_gradient_matches_finite_differences(mesh4):
    p = 2.0 + 1.0j
    q = np.sqrt(complex(p))
    system = bem.assemble(mesh4, q)
    solution = bem.solve_boundary(system, mesh4)
    for point in ((0.8, 1.2), (2.2, 0.6)):
        _, grad, _ = bem.eval_interior(solution, mesh4, point)
        h = 1e-5
        for axis in (0, 1):
            lo = list(point)
            hi = list(point)
            lo[axis] -= h
            hi[axis] += h
            plo, _, _ = bem.eval_interior(solution, mesh4, tuple(lo))
            phi_, _, _ = bem.eval_interior(solution, mesh4, tuple(hi))
            fd = (phi_ - plo) / (2 * h)
            assert abs(fd - grad[axis]) <= 1e-6 * max(abs(grad[axis]), 1e-3)


def test_gradient_y_vanishes_on_midline(mesh4):
    _, grad, _ = _solve_interior(mesh4, 1.0, point=(0.7, 1.0))
    assert abs(grad[1]) < 1e-12


def test_near_boundary_and_outside_flags(mesh4):
    phi, _, flags = _solve_interior(mesh4, 1.0, point=(0.05, 1.0))
    assert bem.FLAG_NEAR_BOUNDARY in flags
    phi, _, flags = _solve_interior(mesh4, 1.0, point=(4.0, 1.0))
    assert bem.FLAG_OUTSIDE_DOMAIN in flags


def test_flags_match_per_call_reference(mesh4, rng):
    # the near-boundary flag reads the nearest point of the shared rule;
    # on equal elements that is the nearest composite-rule point, which
    # the reference reads over every element
    n = mesh4.n_elements
    solution = bem.BoundarySolution(phi=np.ones(n), flux=np.ones(n), q=1.0)
    points = np.column_stack([rng.uniform(-0.3, 3.3, 300), rng.uniform(-0.3, 2.3, 300)])
    seen = set()
    for point in points:
        flags = bem.eval_interior(solution, mesh4, point)[2]
        assert flags == reference_bem.eval_interior(solution, mesh4, point)[2]
        seen.add(flags)
    assert len(seen) == 4


def test_contains_only_strictly_interior_points(mesh2):
    # the observation point, and the benchmark's (0.6, 0.9) with its mirror images
    for point in (OBS, (0.6, 0.9), (2.4, 0.9), (0.6, 1.1), (2.4, 1.1)):
        assert mesh2.contains(point)
    # outside, on an edge, on a corner, non-finite
    for point in ((-1.0, 1.0), (3.5, 1.0), (0.0, 1.0), (1.5, 2.0), (3.0, 0.0),
                  (np.nan, 1.0), (1.0, np.inf)):
        assert not mesh2.contains(point)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.2, 20.0), st.floats(0.1, 20.0))
def test_interior_schwarz_reflection(re, im):
    # end to end: value at conj(p) equals conj of value at p
    mesh = bem.benchmark_rectangle_mesh(2)
    p = complex(re, im)
    phi_a, grad_a, _ = _solve_interior(mesh, p)
    phi_b, grad_b, _ = _solve_interior(mesh, np.conj(p))
    assert phi_b == pytest.approx(np.conj(phi_a), rel=1e-12, abs=1e-300)
    assert grad_b[0] == pytest.approx(np.conj(grad_a[0]), rel=1e-12, abs=1e-300)
