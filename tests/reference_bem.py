"""Per-call boundary element quadrature: the differential oracle for invlap.bem.

Test-suite-only reference.  It rebuilds the Gauss rule, every distance,
cosine and near-field pair list on each call and evaluates K0/K1 at every
quadrature point, with the far rule first computed for all (target,
element) pairs and then overwritten by the composite rule on near-field
pairs, for the collocation matrices and for an interior point alike.
``invlap.bem`` builds the same quadrature once per mesh and per point and
evaluates the kernels once per distinct distance, so the two must agree
to rounding.  ``eval_interior_composite`` takes the composite rule on
every element: it is the accuracy oracle for the far rule at an interior
point.  Rules and
constants (GAUSS_ORDER, NEAR_FIELD_*) are read from ``invlap.bem``; the
kernels come straight from ``invlap.specfun`` so that patching
``invlap.bem.k01_values`` does not reach this module.
"""

import numpy as np

from invlap.bem import (FLAG_NEAR_BOUNDARY, FLAG_OUTSIDE_DOMAIN, GAUSS_ORDER,
                        NEAR_FIELD_FACTOR, NEAR_FIELD_SPLIT, HelmholtzSystem)
from invlap.specfun import EULER_GAMMA, k01_values


def gauss_points(mesh, split: int):
    """Composite Gauss nodes and weights on every element, (n, split*g, 2)."""
    u, w = np.polynomial.legendre.leggauss(GAUSS_ORDER)
    if split > 1:
        centers = (2.0 * np.arange(split) + 1.0) / split - 1.0
        u = (centers[:, None] + u[None, :] / split).ravel()
        w = np.tile(w / split, split)
    pts = (mesh.midpoints[:, None, :]
           + 0.5 * mesh.lengths[:, None, None] * u[None, :, None]
           * mesh.tangents[:, None, :])
    return pts, w


def layer_integrals(targets, mesh, q):
    """(G, H) of the far rule for every (target, element) pair."""
    pts, w = gauss_points(mesh, 1)
    rvec = pts[None, :, :, :] - targets[:, None, None, :]
    r = np.linalg.norm(rvec, axis=-1)
    safe_r = np.where(r == 0.0, 1.0, r)
    k0, k1 = k01_values(q * safe_r)
    costh = np.einsum("tjgd,jd->tjg", rvec, mesh.normals) / safe_r
    gmat = (mesh.lengths[None, :] / 2.0) * np.einsum("g,tjg->tj", w, k0) / (2.0 * np.pi)
    hker = -(q / (2.0 * np.pi)) * k1 * costh
    hmat = (mesh.lengths[None, :] / 2.0) * np.einsum("g,tjg->tj", w, hker)
    return gmat, hmat


def layer_integrals_paired(targets, mesh, q, element_idx, split: int):
    """(G, H) of the composite rule for matched (target, element) pairs."""
    pts, w = gauss_points(mesh, split)
    pts = pts[element_idx]
    normals = mesh.normals[element_idx]
    lengths = mesh.lengths[element_idx]
    rvec = pts - targets[:, None, :]
    r = np.linalg.norm(rvec, axis=-1)
    k0, k1 = k01_values(q * r)
    costh = np.einsum("mgd,md->mg", rvec, normals) / r
    g = (lengths / 2.0) * (k0 @ w) / (2.0 * np.pi)
    h = (lengths / 2.0) * ((-(q / (2.0 * np.pi)) * k1 * costh) @ w)
    return g, h


def diagonal_g(mesh, q):
    """Self integrals of K0 with the log singularity integrated in closed form."""
    u, w = np.polynomial.legendre.leggauss(GAUSS_ORDER)
    half = mesh.lengths / 2.0
    s = 0.5 * half[:, None] * (u[None, :] + 1.0)
    z = q * s
    k0, _ = k01_values(z)
    smooth = k0 + np.log(0.5 * z) + EULER_GAMMA
    quad = 0.5 * half * (smooth @ w)
    closed = half * (1.0 - EULER_GAMMA - np.log(q * mesh.lengths / 4.0))
    return (quad + closed) / np.pi


def assemble(mesh, q) -> HelmholtzSystem:
    """Collocation matrices H (double layer + 1/2 jump) and G (single layer)."""
    q = complex(q)
    n = mesh.n_elements
    gmat, hmat = layer_integrals(mesh.midpoints, mesh, q)
    dist = np.linalg.norm(mesh.midpoints[:, None, :] - mesh.midpoints[None, :, :], axis=-1)
    scale = np.maximum(mesh.lengths[:, None], mesh.lengths[None, :])
    near_i, near_j = np.nonzero((dist < NEAR_FIELD_FACTOR * scale) & ~np.eye(n, dtype=bool))
    if near_i.size:
        gn, hn = layer_integrals_paired(mesh.midpoints[near_i], mesh, q,
                                        near_j, NEAR_FIELD_SPLIT)
        gmat[near_i, near_j] = gn
        hmat[near_i, near_j] = hn
    idx = np.arange(n)
    gmat[idx, idx] = diagonal_g(mesh, q)
    hmat[idx, idx] = 0.5
    return HelmholtzSystem(h=hmat, g=gmat, q=q)


def winding_number(mesh, point) -> float:
    a = mesh.starts - point[None, :]
    b = mesh.ends - point[None, :]
    ang = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0],
                     np.einsum("ij,ij->i", a, b))
    return float(ang.sum())


def interior_rows(mesh, pt, q, elements, split: int):
    """(g, h, grad g, grad h) rows over `elements`, by the Gauss rule
    composed of `split` pieces per element."""
    pts, w = gauss_points(mesh, split)
    pts = pts[elements]
    normals = mesh.normals[elements]
    rvec = pts - pt[None, None, :]
    r = np.linalg.norm(rvec, axis=-1)
    k0, k1 = k01_values(q * r)
    costh = np.einsum("jgd,jd->jg", rvec, normals) / r

    wl = 0.5 * mesh.lengths[elements][:, None] * w[None, :]
    g_row = (wl * k0).sum(axis=1) / (2.0 * np.pi)
    h_row = (wl * (-(q / (2.0 * np.pi)) * k1 * costh)).sum(axis=1)

    e = rvec / r[..., None]
    grad_g_ker = (q / (2.0 * np.pi)) * k1[..., None] * e
    u_un = e * costh[..., None]
    grad_h_ker = -(q / (2.0 * np.pi)) * (
        (q * k0 + 2.0 * k1 / r)[..., None] * u_un
        - (k1 / r)[..., None] * normals[:, None, :]
    )
    grad_g_row = (wl[..., None] * grad_g_ker).sum(axis=1)
    grad_h_row = (wl[..., None] * grad_h_ker).sum(axis=1)
    return g_row, h_row, grad_g_row, grad_h_row


def _interior(solution, mesh, pt, rows):
    g_row, h_row, grad_g_row, grad_h_row = rows
    flags = []
    if abs(winding_number(mesh, pt)) < np.pi:
        flags.append(FLAG_OUTSIDE_DOMAIN)
    pts, _ = gauss_points(mesh, NEAR_FIELD_SPLIT)
    if float(np.min(np.linalg.norm(pts - pt, axis=-1))) < 0.5 * float(np.max(mesh.lengths)):
        flags.append(FLAG_NEAR_BOUNDARY)
    phi = g_row @ solution.flux - h_row @ solution.phi
    grad = grad_g_row.T @ solution.flux - grad_h_row.T @ solution.phi
    return phi, grad, tuple(flags)


def eval_interior(solution, mesh, point):
    """(phi, grad, flags) at a point from the boundary densities, by the
    rule of :func:`assemble`: the far rule on every element, overwritten by
    the composite rule on elements whose midpoint lies within
    NEAR_FIELD_FACTOR element lengths of the point."""
    pt = np.asarray(point, dtype=float)
    q = solution.q
    n = mesh.n_elements
    rows = interior_rows(mesh, pt, q, np.arange(n), 1)
    dist = np.linalg.norm(mesh.midpoints - pt[None, :], axis=-1)
    near = np.nonzero(dist < NEAR_FIELD_FACTOR * mesh.lengths)[0]
    if near.size:
        for row, composite in zip(rows, interior_rows(mesh, pt, q, near, NEAR_FIELD_SPLIT)):
            row[near] = composite
    return _interior(solution, mesh, pt, rows)


def eval_interior_composite(solution, mesh, point):
    """(phi, grad, flags) with the composite rule on every element: the
    accuracy oracle for the shared near/far rule of :func:`eval_interior`."""
    pt = np.asarray(point, dtype=float)
    rows = interior_rows(mesh, pt, solution.q, np.arange(mesh.n_elements), NEAR_FIELD_SPLIT)
    return _interior(solution, mesh, pt, rows)
