"""Constant-element boundary element solver for (del^2 - q^2) u = 0 in 2D.

Solves the transformed diffusion equation on a meshed closed polygon
(rectangles, for the shipped benchmark) with mixed Dirichlet/Neumann data,
one dense solve per Laplace parameter.  Kernels are the modified Bessel
functions K0 (single layer) and K1 (double layer and gradients).  A real
wavenumber q, which every real Laplace parameter p gives, keeps the
kernels, the matrices, the solve and the interior values in float64; a
complex q makes all of them complex128.  The collocation matrices and
interior values take their layer integrals from one quadrature rule,
whose geometry is built once per mesh and per interior point.
:func:`kernel_block` evaluates the kernels of many wavenumbers in one
call, and :func:`assemble` and :func:`eval_interior` take their rows.

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

from .specfun import EULER_GAMMA, k01_values, takes_real_path

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


_SIDE_ORDER = ("bottom", "right", "top", "left")


def discretize_rectangle(width: float, height: float, n_per_unit: int,
                         bc: dict) -> BoundaryMesh:
    """Mesh the rectangle [0,w] x [0,h] with uniform elements per side.

    `bc` maps each of 'bottom', 'right', 'top', 'left' to a
    (kind, spatial value) pair with kind 'dirichlet' or 'neumann'; the
    mesh checks the kinds.
    """
    # two negative sides pass the mesh's checks, with the side names swapped
    if width <= 0 or height <= 0:
        raise ValueError("rectangle dimensions must be positive")
    if n_per_unit < 1:
        raise ValueError("n_per_unit must be >= 1")
    missing = set(_SIDE_ORDER) - set(bc)
    if missing:
        raise ValueError(f"missing boundary condition for sides: {sorted(missing)}")

    corners = {
        "bottom": (np.array([0.0, 0.0]), np.array([width, 0.0])),
        "right": (np.array([width, 0.0]), np.array([width, height])),
        "top": (np.array([width, height]), np.array([0.0, height])),
        "left": (np.array([0.0, height]), np.array([0.0, 0.0])),
    }
    starts, kinds, values = [], [], []
    for side in _SIDE_ORDER:
        kind, value = bc[side]
        a, b = corners[side]
        m = int(round(np.linalg.norm(b - a) * n_per_unit))
        if m < 1:
            raise ValueError(f"side {side!r} resolves to zero elements")
        fractions = np.linspace(0.0, 1.0, m + 1)
        starts.append(a[None, :] + fractions[:-1, None] * (b - a)[None, :])
        kinds.extend([kind] * m)
        values.extend([float(value)] * m)
    return BoundaryMesh(np.vstack(starts), tuple(kinds), np.array(values))


def benchmark_rectangle_mesh(n_per_unit: int = 8) -> BoundaryMesh:
    """The BENCH_LENGTH x BENCH_HEIGHT test rectangle: potential
    -BENCH_AMPLITUDE|+BENCH_AMPLITUDE at the short ends, insulated long
    sides."""
    return discretize_rectangle(BENCH_LENGTH, BENCH_HEIGHT, n_per_unit, {
        "left": (DIRICHLET, -BENCH_AMPLITUDE),
        "right": (DIRICHLET, BENCH_AMPLITUDE),
        "bottom": (NEUMANN, 0.0),
        "top": (NEUMANN, 0.0),
    })


@dataclass(frozen=True)
class HelmholtzSystem:
    """Dense collocation matrices for one wavenumber.

    h includes the c = 1/2 jump term on its diagonal; g is the single
    layer.  Both are n x n for n elements: float64 for a real q, complex
    otherwise.
    """

    h: np.ndarray
    g: np.ndarray
    q: float | complex


@dataclass(frozen=True)
class BoundarySolution:
    """Element-wise potential and outward normal flux for one q.

    The arrays have the dtype of the system they were solved from, float64
    for a real q.
    """

    phi: np.ndarray
    flux: np.ndarray
    q: float | complex


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

    Pair k couples target rows[k] with element cols[k].  Its G and H
    entries sum the quadrature points starts[k] up to starts[k + 1] of the
    flat point arrays: the far rule, or the composite rule within
    NEAR_FIELD_FACTOR element lengths.  Point m lies at distance
    r[index[m]] from its target, in the unit direction unit[m], and carries
    the weight of K0 in G and of q K1 in H.  A target on an element's
    midpoint is that element's collocation point: the pair is left to the
    self integral, which samples K0 at the distances r[self_index[k]] on
    half the element.  r holds each distinct distance once.
    """

    rows: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    index: np.ndarray
    g_weight: np.ndarray
    h_weight: np.ndarray
    unit: np.ndarray
    self_index: np.ndarray
    r: np.ndarray


def _layer_quadrature(mesh: BoundaryMesh, targets: np.ndarray,
                      target_lengths: np.ndarray) -> _LayerQuadrature:
    """Quadrature of every (target, element) pair.

    target_lengths are the lengths of the targets' own elements, 0 for a
    point that is not a collocation point.  A pair takes the composite
    rule when the target is closer to the element's midpoint than
    NEAR_FIELD_FACTOR times the longer of the two lengths, else the far
    rule.
    """
    dist = np.linalg.norm(targets[:, None, :] - mesh.midpoints[None, :, :], axis=-1)
    scale = np.maximum(target_lengths[:, None], mesh.lengths[None, :])
    near = dist < NEAR_FIELD_FACTOR * scale
    own = dist == 0.0
    rows, cols, r, g_weight, h_weight, unit, counts = [], [], [], [], [], [], []
    for pairs, split in ((~near, 1), (near & ~own, NEAR_FIELD_SPLIT)):
        i, j = np.nonzero(pairs)
        pts, w = _gauss_points(mesh, split)
        rvec = pts[j] - targets[i][:, None, :]
        rij = np.linalg.norm(rvec, axis=-1)
        costh = np.einsum("mgd,md->mg", rvec, mesh.normals[j]) / rij
        wl = (mesh.lengths[j][:, None] / 2.0) * w[None, :] / (2.0 * np.pi)
        rows.append(i)
        cols.append(j)
        r.append(rij.ravel())
        g_weight.append(wl.ravel())
        h_weight.append(-(wl * costh).ravel())
        unit.append((rvec / rij[..., None]).reshape(-1, 2))
        counts.append(np.full(i.size, w.size))

    # K0(qs) = R(qs) - ln(qs/2) - gamma with R smooth and R(0) = 0: the log
    # part of a self integral is integrated in closed form over the half
    # element, R by the Gauss rule on s in [0, L/2]
    half = mesh.lengths[np.nonzero(own)[1]] / 2.0
    self_s = 0.5 * half[:, None] * (_GAUSS_NODES[None, :] + 1.0)

    r_all = np.concatenate(r + [self_s.ravel()])
    r_distinct, inverse = np.unique(r_all, return_inverse=True)
    inverse = inverse.ravel()
    n_points = r_all.size - self_s.size
    counts = np.concatenate(counts)
    return _LayerQuadrature(
        rows=np.concatenate(rows), cols=np.concatenate(cols),
        starts=np.cumsum(counts) - counts, index=inverse[:n_points],
        g_weight=np.concatenate(g_weight), h_weight=np.concatenate(h_weight),
        unit=np.concatenate(unit), self_index=inverse[n_points:].reshape(self_s.shape),
        r=r_distinct)


def _layer_integrals(quad: _LayerQuadrature, q, kernels):
    """K0 and K1 at each distinct q r, and the G and H entry of each pair.

    kernels is the (K0, K1) row of :func:`kernel_block` at q for quad.r,
    or None to evaluate it here.
    """
    k0, k1 = k01_values(q * quad.r) if kernels is None else kernels
    g = np.add.reduceat(k0[quad.index] * quad.g_weight, quad.starts)
    h = q * np.add.reduceat(k1[quad.index] * quad.h_weight, quad.starts)
    bad = ~(np.isfinite(g) & np.isfinite(h))
    if bad.any():
        pairs = list(zip(quad.rows[bad][:3].tolist(), quad.cols[bad][:3].tolist()))
        raise FloatingPointError(
            f"non-finite kernel integrals at (target, element) pairs {pairs}")
    return k0, k1, g, h


def _wavenumber(q):
    """q as :func:`assemble` takes it: Re(q) when its imaginary part is
    zero, of either sign, else the complex q.  Raises ValueError unless
    Re(q) > 0."""
    q = complex(q)
    if q.real <= 0:
        raise ValueError("assemble requires Re(q) > 0 (principal sqrt of p)")
    return q.real if q.imag == 0 else q


def kernel_block(qs, r) -> list:
    """K0 and K1 at q r for every wavenumber q of qs, in at most two calls.

    Item i is the (K0, K1) row pair that ``k01_values(q * r)`` gives for
    qs[i], bit for bit: the kernels are elementwise, and each row takes
    its path from its own arguments.  The rows of a real q whose arguments
    are all positive and finite share one real-arithmetic call, the other
    rows one complex call.  A q that :func:`assemble` rejects gets None
    and stays out of both calls, so it cannot spoil the other rows.
    """
    wavenumbers = {}
    for i, q in enumerate(qs):
        try:
            wavenumbers[i] = _wavenumber(q)
        except ValueError:
            pass
    real = np.array([i for i, q in wavenumbers.items() if isinstance(q, float)], dtype=int)
    other = [i for i, q in wavenumbers.items() if not isinstance(q, float)]
    z_real = np.multiply.outer(np.array([wavenumbers[i] for i in real], dtype=float), r)
    fast = takes_real_path(z_real, axis=1)
    # a real row off the real path gets k01_values' cast of its q r
    z_other = np.concatenate([
        z_real[~fast].astype(complex),
        np.multiply.outer(np.array([wavenumbers[i] for i in other], dtype=complex), r)])
    rows = [None] * len(qs)
    for index, z in ((real[fast].tolist(), z_real[fast]),
                     (real[~fast].tolist() + other, z_other)):
        if index:
            k0, k1 = k01_values(z)
            for i, k0_row, k1_row in zip(index, k0, k1):
                rows[i] = (k0_row, k1_row)
    return rows


def solve_distances(mesh: BoundaryMesh, point) -> tuple:
    """The distinct distances at which one solve at `point` samples the
    kernels, and how many of them come first from :func:`assemble`; the
    rest are those of :func:`eval_interior`.

    Builds both quadratures and keeps them on the mesh, so solves that run
    in other threads afterwards only read them.
    """
    assembly = mesh._assembly_quadrature.r
    interior = _interior_quadrature(mesh, np.asarray(point, dtype=float))[0].r
    return np.concatenate([assembly, interior]), assembly.size


def assemble(mesh: BoundaryMesh, q: complex, kernels=None) -> HelmholtzSystem:
    """Collocation matrices H (double layer + 1/2 jump) and G (single layer).

    Requires Re(q) > 0 so the kernel decays.  A q whose imaginary part is
    zero, of either sign, is taken as the real number Re(q): the kernels
    and both matrices are then float64.  Off-diagonal entries use
    Gauss-Legendre quadrature with near-field subdivision; the singular
    diagonal of G subtracts and integrates the log singularity in closed
    form, and the flat-element diagonal of H is exactly the 1/2 jump term.
    The quadrature geometry is built once per mesh, and K0/K1 are
    evaluated once per distinct distance.  kernels, when given, is the
    :func:`kernel_block` row of q for the assembly distances, the first
    ones of :func:`solve_distances`.
    """
    q = _wavenumber(q)
    quad = mesh._assembly_quadrature
    k0, _, g_off, h_off = _layer_integrals(quad, q, kernels)

    n = mesh.n_elements
    gmat = np.empty((n, n), dtype=g_off.dtype)
    hmat = np.empty((n, n), dtype=g_off.dtype)
    gmat[quad.rows, quad.cols] = g_off
    hmat[quad.rows, quad.cols] = h_off
    idx = np.arange(n)
    z = q * quad.r[quad.self_index]
    smooth = k0[quad.self_index] + np.log(0.5 * z) + EULER_GAMMA
    weight = 0.25 * mesh.lengths[:, None] * _GAUSS_WEIGHTS[None, :] / np.pi
    closed = mesh.lengths * (1.0 - EULER_GAMMA - np.log(q * mesh.lengths / 4.0)) / (2.0 * np.pi)
    gmat[idx, idx] = (smooth * weight).sum(axis=1) + closed
    hmat[idx, idx] = 0.5
    return HelmholtzSystem(h=hmat, g=gmat, q=q)


def solve_boundary(system: HelmholtzSystem, mesh: BoundaryMesh) -> BoundarySolution:
    """Solve for the unknown boundary potential / flux densities.

    Dirichlet elements carry phi = value exactly and their flux is solved
    for; Neumann elements carry flux = value exactly and their potential
    is solved for.  The data are the spatial values of the mesh: a time
    behaviour's image fbar_t(p) multiplies the solution afterwards.
    """
    n = mesh.n_elements
    if system.h.shape != (n, n):
        raise ValueError("system was assembled for a different mesh")
    dir_mask = mesh.is_dirichlet
    phi = np.zeros(n, dtype=system.g.dtype)
    flux = np.zeros(n, dtype=system.g.dtype)
    phi[dir_mask] = mesh.bc_value[dir_mask]
    flux[~dir_mask] = mesh.bc_value[~dir_mask]

    a = np.where(dir_mask[None, :], -system.g, system.h)
    b = -system.h[:, dir_mask] @ phi[dir_mask] + system.g[:, ~dir_mask] @ flux[~dir_mask]
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"boundary system is singular at q = {system.q!r} "
            f"(cond ~ {np.linalg.cond(a):.3e})") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(
            f"boundary solve produced non-finite densities at q = {system.q!r} "
            f"(cond ~ {np.linalg.cond(a):.3e})")
    flux[dir_mask] = x[dir_mask]
    phi[~dir_mask] = x[~dir_mask]
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


def eval_interior(solution: BoundarySolution, mesh: BoundaryMesh, point, kernels=None):
    """Potential and gradient at an interior point from the boundary data.

    Uses the representation u(xi) = int G flux - int u dG/dn with c = 1;
    the gradient differentiates both kernels analytically (K1 terms).  The
    layer integrals take the quadrature of :func:`assemble`: the composite
    rule on elements whose midpoint lies within NEAR_FIELD_FACTOR element
    lengths of the point, the far rule on the others.  Returns (phi, grad,
    flags), float64 for a real q and real boundary data; points outside or
    within half an element length of the boundary are flagged rather than
    rejected.  The quadrature geometry and flags of the last point are kept
    on the mesh.  kernels, when given, is the :func:`kernel_block` row of
    solution.q for the interior distances, the last ones of
    :func:`solve_distances`.
    """
    quad, flags = _interior_quadrature(mesh, np.asarray(point, dtype=float))
    q = solution.q
    k0, k1, g_row, h_row = _layer_integrals(quad, q, kernels)
    k0 = k0[quad.index]
    k1 = k1[quad.index]
    k1_r = k1 / quad.r[quad.index]
    flux = solution.flux[quad.cols]
    phi_b = solution.phi[quad.cols]
    phi = g_row @ flux - h_row @ phi_b

    # gradients of the kernels with respect to the evaluation point
    grad_g = q * np.add.reduceat((k1 * quad.g_weight)[:, None] * quad.unit, quad.starts)
    grad_h = q * (
        np.add.reduceat(((q * k0 + 2.0 * k1_r) * quad.h_weight)[:, None] * quad.unit,
                        quad.starts)
        + np.add.reduceat(k1_r * quad.g_weight, quad.starts)[:, None] * mesh.normals[quad.cols])
    grad = grad_g.T @ flux - grad_h.T @ phi_b
    return phi, grad, flags
