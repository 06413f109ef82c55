"""Constant-element boundary element solver for (del^2 - q^2) u = 0 in 2D.

Solves the transformed diffusion equation on a meshed closed polygon
(rectangles, for the shipped benchmark) with mixed Dirichlet/Neumann data,
one dense solve per Laplace parameter.  Kernels are the modified Bessel
functions K0 (single layer) and K1 (double layer and gradients).  A real
wavenumber q, which every real Laplace parameter p gives, keeps the
kernels, the matrices, the solve and the interior values in float64; a
complex q makes all of them complex128.  The collocation matrices and
interior values take their layer integrals from one quadrature rule,
held as q-independent sparse operators built once per mesh and per
interior point, so that a stage's layer integrals are one product each.
:func:`assemble`, :func:`solve_boundary` and :func:`eval_interior` take
one wavenumber or a 1-D array of them; an array gives stacks, one row
per wavenumber, bit for bit the values of its own scalar call, from one
K0/K1 call per stage.

Conventions
-----------
* Perimeter is traversed counterclockwise, normals point outward.
* Collocation at element midpoints; the smooth-boundary jump coefficient
  c = 1/2 then applies on every element (corners are never collocated).
* `flux` on the boundary means the outward normal derivative of u.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .specfun import EULER_GAMMA, k01_values

GAUSS_ORDER = 8
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)

#: A target (collocation midpoint or interior point) closer to an element's
#: midpoint than this multiple of the element length takes a subdivided
#: quadrature on that element, to control near-singular error.
NEAR_FIELD_FACTOR = 3.0
NEAR_FIELD_SPLIT = 4

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

FLAG_NEAR_BOUNDARY = "near-boundary"
FLAG_OUTSIDE_DOMAIN = "outside-domain"


#: The shipped benchmark: a length x height rectangle, potential -/+
#: amplitude on its short ends and insulated long sides.
BENCH_LENGTH = 3.0
BENCH_HEIGHT = 2.0
BENCH_AMPLITUDE = 2.0


class SingularSystemError(RuntimeError):
    """Dense boundary system could not be solved."""


@dataclass(frozen=True, eq=False)
class BoundaryMesh:
    """Closed counterclockwise perimeter of straight constant elements.

    Element i runs from starts[i] to starts[i + 1], the last one back to
    starts[0], and carries the condition bc_kind[i] with the spatial value
    bc_value[i].  ``ends``, ``midpoints``, unit ``tangents``, outward unit
    ``normals``, ``lengths`` and the Dirichlet mask ``is_dirichlet`` are
    derived from these fields.  Every mesh is checked when built: n >= 3
    finite 2-D starts, positive lengths, a counterclockwise traversal
    (positive shoelace area), one known kind and one value per element.

    The quadrature geometry of :func:`assemble` and :func:`eval_interior`
    is built from these arrays on first use and kept on the mesh, so the
    mesh holds read-only copies of them.  Equality and hashing go by
    identity, so a mesh can key a dict.
    """

    starts: np.ndarray
    bc_kind: tuple
    bc_value: np.ndarray

    def __post_init__(self):
        starts = np.array(self.starts, dtype=float)
        if starts.ndim != 2 or starts.shape[1] != 2 or starts.shape[0] < 3:
            raise ValueError(f"starts must have shape (n, 2) with n >= 3, not {starts.shape}")
        if not np.all(np.isfinite(starts)):
            raise ValueError("starts must be finite")
        n = starts.shape[0]
        kinds = tuple(self.bc_kind)
        values = np.array(self.bc_value, dtype=float)
        if len(kinds) != n or values.shape != (n,):
            raise ValueError(f"need one boundary condition kind and value per element "
                             f"({n}), got {len(kinds)} and shape {values.shape}")
        for k in set(kinds) - {DIRICHLET, NEUMANN}:
            raise ValueError(f"unknown boundary condition kind {k!r}")
        ends = np.roll(starts, -1, axis=0)
        seg = ends - starts
        lengths = np.linalg.norm(seg, axis=1)
        if not np.all(lengths > 0):
            raise ValueError("element lengths must be positive")
        if not np.sum(starts[:, 0] * ends[:, 1] - ends[:, 0] * starts[:, 1]) > 0:
            raise ValueError("perimeter must run counterclockwise")
        tangents = seg / lengths[:, None]
        derived = {
            "starts": starts, "bc_kind": kinds, "bc_value": values, "ends": ends,
            "midpoints": 0.5 * (starts + ends), "tangents": tangents,
            "normals": np.column_stack([tangents[:, 1], -tangents[:, 0]]),
            "lengths": lengths, "is_dirichlet": np.array([k == DIRICHLET for k in kinds]),
        }
        for name, value in derived.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # rebuild through the constructor, so a copy is checked and
        # read-only too and starts without the cached geometry
        return BoundaryMesh, (self.starts, self.bc_kind, self.bc_value)

    @property
    def n_elements(self) -> int:
        return self.lengths.size

    def contains(self, point) -> bool:
        """Whether point is finite and strictly inside the perimeter.

        The winding angle is 2 pi inside, pi on an edge, pi/2 at a corner
        of a convex perimeter and 0 outside.
        """
        pt = np.asarray(point, dtype=float)
        return bool(np.all(np.isfinite(pt))) and abs(_winding_number(self, pt)) > 1.5 * np.pi

    @functools.cached_property
    def _assembly_quadrature(self) -> "_LayerQuadrature":
        return _layer_quadrature(self, self.midpoints, self.lengths)

    @functools.cached_property
    def _interior_quadratures(self) -> dict:
        # one entry: every caller evaluates at one fixed point per mesh,
        # and a field plot over many points would otherwise fill memory
        return {}


def benchmark_rectangle_mesh(n_per_unit: int = 8) -> BoundaryMesh:
    """The BENCH_LENGTH x BENCH_HEIGHT test rectangle [0, L] x [0, H] with
    round(side length * n_per_unit) uniform elements per side: potential
    -BENCH_AMPLITUDE|+BENCH_AMPLITUDE at the short ends x = 0 and x = L,
    insulated long sides.  Any other mesh is built with
    :class:`BoundaryMesh`, which checks it."""
    if n_per_unit < 1:
        raise ValueError("n_per_unit must be >= 1")
    corners = np.array([[0.0, 0.0], [BENCH_LENGTH, 0.0],
                        [BENCH_LENGTH, BENCH_HEIGHT], [0.0, BENCH_HEIGHT]])
    # bottom, right, top and left, counterclockwise from the origin
    sides = ((NEUMANN, 0.0), (DIRICHLET, BENCH_AMPLITUDE),
             (NEUMANN, 0.0), (DIRICHLET, -BENCH_AMPLITUDE))
    starts, kinds, values = [], [], []
    for a, b, (kind, value) in zip(corners, np.roll(corners, -1, axis=0), sides):
        m = int(round(np.linalg.norm(b - a) * n_per_unit))
        fractions = np.linspace(0.0, 1.0, m + 1)
        starts.append(a[None, :] + fractions[:-1, None] * (b - a)[None, :])
        kinds.extend([kind] * m)
        values.extend([value] * m)
    return BoundaryMesh(np.vstack(starts), tuple(kinds), np.array(values))


@dataclass(frozen=True)
class HelmholtzSystem:
    """Dense collocation matrices for one wavenumber, or a stack of them.

    h includes the c = 1/2 jump term on its diagonal; g is the single
    layer.  Both are n x n for n elements, or (k, n, n) for a 1-D array
    of k wavenumbers q: float64 for a real q, complex otherwise.
    """

    h: np.ndarray
    g: np.ndarray
    q: float | complex | np.ndarray


@dataclass(frozen=True)
class BoundarySolution:
    """Element-wise potential and outward normal flux for one q, or (k, n)
    stacks for a 1-D array of k wavenumbers.

    The arrays have the dtype of the system they were solved from, float64
    for a real q.
    """

    phi: np.ndarray
    flux: np.ndarray
    q: float | complex | np.ndarray


def _gauss_points(mesh: BoundaryMesh, split: int):
    """Composite Gauss nodes and weights on every element, (n, split*g, 2)."""
    u, w = _GAUSS_NODES, _GAUSS_WEIGHTS
    if split > 1:
        centers = (2.0 * np.arange(split) + 1.0) / split - 1.0
        u = (centers[:, None] + u[None, :] / split).ravel()
        w = np.tile(w / split, split)
    pts = (mesh.midpoints[:, None, :]
           + 0.5 * mesh.lengths[:, None, None] * u[None, :, None]
           * mesh.tangents[:, None, :])
    return pts, w


@dataclass(frozen=True)
class _LayerQuadrature:
    """The q-independent part of the layer integrals from a set of targets.

    Row target * n + element of an operator holds the quadrature weights
    of that pair over the distinct distances r, each held once: the far
    rule, or the composite rule within NEAR_FIELD_FACTOR element lengths.
    The pair's G entry is g @ K0(q r) and its H entry q (h @ K1(q r)).
    A set of points also gets grad_g and grad_h: the same weights times
    the unit direction from the point, x rows and then y rows.  A target
    on an element's midpoint is that element's collocation point: its row
    is empty, and the pair is left to the self integral, which samples K0
    at the distances r[self_index[k]] on half the element.
    """

    g: sparse.csr_array
    h: sparse.csr_array
    self_index: np.ndarray
    r: np.ndarray
    grad_g: sparse.csr_array | None = None
    grad_h: sparse.csr_array | None = None


def _layer_quadrature(mesh: BoundaryMesh, targets: np.ndarray,
                      target_lengths: np.ndarray) -> _LayerQuadrature:
    """Quadrature of every (target, element) pair.

    target_lengths are the lengths of the targets' own elements, 0 for a
    point that is not a collocation point.  A pair takes the composite
    rule when the target is closer to the element's midpoint than
    NEAR_FIELD_FACTOR times the longer of the two lengths, else the far
    rule.  Only points, all of length 0, get gradient operators.
    """
    dist = np.linalg.norm(targets[:, None, :] - mesh.midpoints[None, :, :], axis=-1)
    scale = np.maximum(target_lengths[:, None], mesh.lengths[None, :])
    near = dist < NEAR_FIELD_FACTOR * scale
    own = dist == 0.0
    rows, r, g_weight, h_weight, unit = [], [], [], [], []
    for pairs, split in ((~near, 1), (near & ~own, NEAR_FIELD_SPLIT)):
        i, j = np.nonzero(pairs)
        pts, w = _gauss_points(mesh, split)
        rvec = pts[j] - targets[i][:, None, :]
        rij = np.linalg.norm(rvec, axis=-1)
        costh = np.einsum("mgd,md->mg", rvec, mesh.normals[j]) / rij
        wl = (mesh.lengths[j][:, None] / 2.0) * w[None, :] / (2.0 * np.pi)
        rows.append(np.repeat(i * mesh.n_elements + j, w.size))
        r.append(rij.ravel())
        g_weight.append(wl.ravel())
        h_weight.append(-(wl * costh).ravel())
        unit.append((rvec / rij[..., None]).reshape(-1, 2))

    # K0(qs) = R(qs) - ln(qs/2) - gamma with R smooth and R(0) = 0: the log
    # part of a self integral is integrated in closed form over the half
    # element, R by the Gauss rule on s in [0, L/2]
    half = mesh.lengths[np.nonzero(own)[1]] / 2.0
    self_s = 0.5 * half[:, None] * (_GAUSS_NODES[None, :] + 1.0)

    r_all = np.concatenate(r + [self_s.ravel()])
    r_distinct, inverse = np.unique(r_all, return_inverse=True)
    inverse = inverse.ravel()
    n_points = r_all.size - self_s.size
    rows = np.concatenate(rows)
    shape = (targets.shape[0] * mesh.n_elements, r_distinct.size)

    def operator(*weights):
        # one block of pair rows per weight; a pair's repeated distances sum
        return sparse.vstack([sparse.csr_array((w, (rows, inverse[:n_points])), shape=shape)
                              for w in weights], format="csr")

    g_weight, h_weight = np.concatenate(g_weight), np.concatenate(h_weight)
    unit = np.concatenate(unit).T
    grads = {} if target_lengths.any() else {
        "grad_g": operator(*(g_weight * unit)), "grad_h": operator(*(h_weight * unit))}
    return _LayerQuadrature(
        g=operator(g_weight), h=operator(h_weight),
        self_index=inverse[n_points:].reshape(self_s.shape), r=r_distinct, **grads)


def _apply(op: sparse.csr_array, kernel: np.ndarray) -> np.ndarray:
    """op times each row of the stack kernel, as a C-ordered stack: in
    another layout a stacked row rounds unlike its scalar call."""
    return np.ascontiguousarray((op @ kernel.T).T)


def _layer_integrals(quad: _LayerQuadrature, q: np.ndarray):
    """K0 and K1 at each distinct q r, and the G and H entry of each pair,
    for each wavenumber of the 1-D array q: one row per wavenumber, from
    one kernel call and one operator product each."""
    k0, k1 = k01_values(np.multiply.outer(q, quad.r))
    g = _apply(quad.g, k0)
    h = q[:, None] * _apply(quad.h, k1)
    bad = ~(np.isfinite(g) & np.isfinite(h)).all(axis=0)
    if bad.any():
        raise FloatingPointError(f"non-finite kernel integrals at pair rows "
                                 f"{np.flatnonzero(bad)[:3].tolist()} (target * n + element)")
    return k0, k1, g, h


def kernel_arguments(mesh: BoundaryMesh, point) -> int:
    """How many K0/K1 arguments one solve at `point` evaluates: the
    distinct distances of :func:`assemble` and :func:`eval_interior`.

    Builds the operators of both quadratures and keeps them on the mesh,
    so solves that run in other threads afterwards only read them.
    """
    interior = _interior_quadrature(mesh, np.asarray(point, dtype=float))[0]
    return mesh._assembly_quadrature.r.size + interior.r.size


def assemble(mesh: BoundaryMesh, q) -> HelmholtzSystem:
    """Collocation matrices H (double layer + 1/2 jump) and G (single layer).

    Requires a finite q with Re(q) > 0 so the kernel decays.  A q whose
    imaginary part is zero, of either sign, is taken as the real number
    Re(q): the kernels and both matrices are then float64.  Off-diagonal
    entries use Gauss-Legendre quadrature with near-field subdivision; the
    singular diagonal of G subtracts and integrates the log singularity in
    closed form, and the flat-element diagonal of H is exactly the 1/2
    jump term.  The quadrature operators are built once per mesh, and
    K0/K1 are evaluated once per distinct distance.  A 1-D array q gives
    (k, n, n) stacks, float64 only when every imaginary part is zero: a
    real q in a complex array is solved in complex arithmetic.
    """
    qs = np.atleast_1d(np.asarray(q, dtype=complex))
    if not np.all(np.isfinite(qs) & (qs.real > 0)):
        raise ValueError("assemble requires a finite q with Re(q) > 0 (principal sqrt of p)")
    if np.all(qs.imag == 0):
        qs = qs.real
    quad = mesh._assembly_quadrature
    k0, _, g, h = _layer_integrals(quad, qs)

    n = mesh.n_elements
    gmat = g.reshape(qs.size, n, n)
    hmat = h.reshape(qs.size, n, n)
    idx = np.arange(n)
    z = np.multiply.outer(qs, quad.r[quad.self_index])
    smooth = k0[:, quad.self_index] + np.log(0.5 * z) + EULER_GAMMA
    weight = 0.25 * mesh.lengths[:, None] * _GAUSS_WEIGHTS[None, :] / np.pi
    log_q = np.log(np.multiply.outer(qs, mesh.lengths) / 4.0)
    closed = mesh.lengths * (1.0 - EULER_GAMMA - log_q) / (2.0 * np.pi)
    gmat[:, idx, idx] = (smooth * weight).sum(axis=-1) + closed
    hmat[:, idx, idx] = 0.5
    if np.ndim(q) == 0:
        return HelmholtzSystem(h=hmat[0], g=gmat[0], q=qs[0].item())
    return HelmholtzSystem(h=hmat, g=gmat, q=qs)


def solve_boundary(system: HelmholtzSystem, mesh: BoundaryMesh) -> BoundarySolution:
    """Solve for the unknown boundary potential / flux densities.

    Dirichlet elements carry phi = value exactly and their flux is solved
    for; Neumann elements carry flux = value exactly and their potential
    is solved for.  The data are the spatial values of the mesh: a time
    behaviour's image fbar_t(p) multiplies the solution afterwards.  A
    stacked system is solved matrix by matrix in one call, and raises if
    any of its matrices does.
    """
    n = mesh.n_elements
    if system.h.shape[-2:] != (n, n):
        raise ValueError("system was assembled for a different mesh")
    dir_mask = mesh.is_dirichlet
    phi = np.zeros(system.g.shape[:-1], dtype=system.g.dtype)
    flux = np.zeros_like(phi)
    phi[..., dir_mask] = mesh.bc_value[dir_mask]
    flux[..., ~dir_mask] = mesh.bc_value[~dir_mask]

    a = np.where(dir_mask, -system.g, system.h)
    b = (-system.h[..., dir_mask] @ mesh.bc_value[dir_mask]
         + system.g[..., ~dir_mask] @ mesh.bc_value[~dir_mask])
    try:
        x = np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"boundary system is singular at q = {system.q!r} "
            f"(cond ~ {np.max(np.linalg.cond(a)):.3e})") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(
            f"boundary solve produced non-finite densities at q = {system.q!r} "
            f"(cond ~ {np.max(np.linalg.cond(a)):.3e})")
    flux[..., dir_mask] = x[..., dir_mask]
    phi[..., ~dir_mask] = x[..., ~dir_mask]
    return BoundarySolution(phi=phi, flux=flux, q=system.q)


def _winding_number(mesh: BoundaryMesh, point: np.ndarray) -> float:
    a = mesh.starts - point[None, :]
    b = mesh.ends - point[None, :]
    ang = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0],
                     np.einsum("ij,ij->i", a, b))
    return float(ang.sum())


def _interior_quadrature(mesh: BoundaryMesh, pt: np.ndarray) -> tuple:
    """Quadrature and flags of the interior point pt, kept on the mesh."""
    key = pt.tobytes()
    cached = mesh._interior_quadratures
    entry = cached.get(key)
    if entry is None:
        quad = _layer_quadrature(mesh, pt[None, :], np.zeros(1))
        flags = []
        if not mesh.contains(pt):
            flags.append(FLAG_OUTSIDE_DOMAIN)
        # r[0] is the nearest quadrature point
        if float(quad.r[0]) < 0.5 * float(np.max(mesh.lengths)):
            flags.append(FLAG_NEAR_BOUNDARY)
        entry = (quad, tuple(flags))
        cached.clear()
        cached[key] = entry
    return entry


def eval_interior(solution: BoundarySolution, mesh: BoundaryMesh, point):
    """Potential and gradient at an interior point from the boundary data.

    Uses the representation u(xi) = int G flux - int u dG/dn with c = 1;
    the gradient differentiates both kernels analytically (K1 terms).  The
    layer integrals take the quadrature of :func:`assemble`: the composite
    rule on elements whose midpoint lies within NEAR_FIELD_FACTOR element
    lengths of the point, the far rule on the others, as operator
    products.  Returns (phi, grad, flags), float64 for a real q and real
    boundary data, with phi of shape (k,) and grad of shape (k, 2) for a
    stacked solution; points outside or within half an element length of
    the boundary are flagged rather than rejected.  The quadrature
    operators and flags of the last point are kept on the mesh.
    """
    quad, flags = _interior_quadrature(mesh, np.asarray(point, dtype=float))
    qs = np.atleast_1d(solution.q)
    k0, k1, g, h = _layer_integrals(quad, qs)
    flux = np.atleast_2d(solution.flux)[..., None]
    phi_b = np.atleast_2d(solution.phi)[..., None]
    phi = (g[:, None, :] @ flux - h[:, None, :] @ phi_b)[:, 0, 0]

    # gradients of the kernels with respect to the evaluation point
    k1_r = k1 / quad.r
    stack = (qs.size, 2, mesh.n_elements)
    grad_g = qs[:, None, None] * _apply(quad.grad_g, k1).reshape(stack)
    grad_h = qs[:, None, None] * (
        _apply(quad.grad_h, qs[:, None] * k0 + 2.0 * k1_r).reshape(stack)
        + _apply(quad.g, k1_r)[:, None, :] * mesh.normals.T)
    grad = (grad_g @ flux - grad_h @ phi_b)[..., 0]
    if np.ndim(solution.q) == 0:
        return phi[0], grad[0], flags
    return phi, grad, flags
