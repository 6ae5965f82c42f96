"""Metric kernel: Gromov products, four-point defects, sampled delta estimates.

Everything here works over abstract array distances, so the same
machinery runs on exact model-domain backends and synthetic metrics
alike.  The Gromov product uses the additive convention

    (x, y)_w = d(x, w) + d(w, y) - d(x, y)

with no 1/2 factor; a space is delta-hyperbolic in this normalization iff
every four-point defect is at most 2*delta.  All thresholds downstream
assume this convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

Point = Any
Quadruple = tuple[Point, Point, Point, Point]

#: absolute tolerance for metric-axiom checks
METRIC_TOL = 1e-9


@dataclass(frozen=True)
class DistanceOracle:
    """A pseudo-distance evaluator on points of one space."""

    fn: Callable[[Point, Point], float]


@dataclass(frozen=True)
class DeltaEstimate:
    """Sampled supremum of four-point defects, with the running sup at
    each decade checkpoint as (n, sup) pairs."""

    sup_defect: float
    argmax: Quadruple
    checkpoints: tuple[tuple[int, float], ...]


#: ``points(rng, m)``: m points drawn from ``rng``, as an array whose
#: first axis indexes the points
PointGenerator = Callable[[np.random.Generator, int], np.ndarray]
#: ``sampler(rng, start, size)``: quadruples ``start .. start+size-1`` of
#: the run, as a (size, 4, ...) array
Sampler = Callable[[np.random.Generator, int, int], np.ndarray]
#: ``d(xs, ys)``: distances of the pairs (xs[i], ys[i]), as an (N,) array
ArrayDistance = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: quadruples drawn and evaluated per block.  Draws always come in whole
#: blocks, so a run of n quadruples shares its first n with every longer
#: run of the same seed; the block size also sets how the disc and ball
#: generators consume the stream, so it fixes the sampled bits.
#: At 512 the largest temporary (the bidisc's 12-fold disc batch) stays
#: under 100 kB and the peak resident set does not grow over a run.  On
#: a 2-core x86-64 VM, over runs of 2e4 quadruples: at 1024 the peak grew
#: by 0.6 MB (ball) and 1.0 MB (bidisc), a ball quadruple took 13-18%
#: longer and a bidisc one 35-39%, and the disc, royal line and axis
#: saved 8-20%; at 256 the peak was the same and a quadruple took 13-43%
#: longer.
CHUNK = 512

#: the six pairs of a quadruple (p, q, x, w) in the order
#: four_point_defects evaluates them: each pair's name, and the positions
#: of its first and second points; (x, q) is named "qx"
PAIR_KEYS = ("pw", "qw", "xw", "px", "qx", "pq")
PAIR_FIRST = np.array([0, 1, 2, 0, 2, 0])
PAIR_SECOND = np.array([3, 3, 3, 2, 1, 1])


def uniform_quadruple_sampler(points: PointGenerator) -> Sampler:
    """Quadruples of four independent draws from a point generator."""

    def draw(rng: np.random.Generator, start: int, size: int) -> np.ndarray:
        pts = points(rng, 4 * size)
        return pts.reshape(size, 4, *pts.shape[1:])

    return draw


def mixed_quadruple_sampler(base: Sampler, quad: Quadruple, period: int) -> Sampler:
    """Witness-directed sampling: every ``period``-th quadruple of the run
    (index i with i % period == period - 1) is ``quad``; the rest come
    from ``base``.

    Deterministic given the rng stream: the injected slots follow the
    global draw index, not the rng state or the block size.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    injected = np.asarray(quad)

    def draw(rng: np.random.Generator, start: int, size: int) -> np.ndarray:
        quads = base(rng, start, size)
        quads[(period - 1 - start) % period::period] = injected
        return quads

    return draw


def four_point_defects(d: ArrayDistance, quads: np.ndarray) -> np.ndarray:
    """Defects min{(p,x)_w, (x,q)_w} - (p,q)_w of a (N, 4, ...) block of
    quadruples (p, q, x, w), as an (N,) array.

    The six pairs (p,w), (q,w), (x,w), (p,x), (x,q), (p,q) of every
    quadruple go to ``d`` as one batch, gathered with one ``take`` per
    side, for points of any shape: quadruple by quadruple, the six pairs
    of each in turn.  The three Gromov products share the distances.  The
    block is refused when a product lies below -2 METRIC_TOL (1 + the
    largest |product| of its quadruple), or is NaN: the oracle is then not
    a metric.  That floor is never above -2 METRIC_TOL, so the scale is
    formed only for a block with a product below -2 METRIC_TOL.
    """
    n = len(quads)
    # the positions are in range, and mode="clip" skips the bounds check
    # that nearly doubles the take's time on real points
    dist = d(quads.take(PAIR_FIRST, axis=1, mode="clip").reshape(6 * n, *quads.shape[2:]),
             quads.take(PAIR_SECOND, axis=1, mode="clip").reshape(6 * n, *quads.shape[2:]))
    d_pw, d_qw, d_xw, d_px, d_xq, d_pq = dist.reshape(n, 6).T
    gp_px = d_pw + d_xw - d_px
    gp_xq = d_xw + d_qw - d_xq
    gp_pq = d_pw + d_qw - d_pq
    near = np.minimum(gp_px, gp_xq)
    lowest = np.minimum(near, gp_pq)
    if not (lowest >= -2.0 * METRIC_TOL).all():
        scale = 1.0 + np.maximum(np.maximum(np.abs(gp_px), np.abs(gp_xq)), np.abs(gp_pq))
        ok = lowest >= -2.0 * METRIC_TOL * scale
        if not np.all(ok):
            raise ValueError(
                "negative Gromov product beyond tolerance; distance oracle "
                f"violates the triangle inequality on quadruple {int(np.argmin(ok))} "
                "of the block"
            )
    return near - gp_pq


def _decade_checkpoints(n: int) -> list[int]:
    """The sample sizes 10, 100, ... below n, then n."""
    marks = []
    k = 10
    while k < n:
        marks.append(k)
        k *= 10
    return marks + [n]


def _python_quadruple(row: np.ndarray) -> Quadruple:
    # back to the types a scalar sampler hands out: complex, float, or a
    # tuple of them per point
    return tuple(tuple(p) if isinstance(p, list) else p for p in row.tolist())


def estimate_delta(d: ArrayDistance, sampler: Sampler, n: int, seed: int = 0) -> DeltaEstimate:
    """Sampled sup of four-point defects over ``n`` quadruples.

    Quadruples are drawn in blocks of :data:`CHUNK` and evaluated by
    :func:`four_point_defects`; a running maximum carries over from block
    to block and gives the sup at n = 10, 100, ... below ``n`` and at ``n``.
    Deterministic for a fixed seed, and the first n quadruples of a longer
    run with the same seed are those of a run of n, so the sup is
    monotone in n.  ``argmax`` is the first quadruple reaching the sup.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    marks = _decade_checkpoints(n)
    checkpoints: list[tuple[int, float]] = []
    best = -math.inf
    best_quad: Quadruple | None = None
    for start in range(0, n, CHUNK):
        quads = sampler(rng, start, CHUNK)[: n - start]
        defects = four_point_defects(d, quads)
        end = start + len(defects)
        if marks[len(checkpoints)] <= end:
            running = np.maximum.accumulate(defects)
            while len(checkpoints) < len(marks) and marks[len(checkpoints)] <= end:
                ck = marks[len(checkpoints)]
                checkpoints.append((ck, max(best, float(running[ck - start - 1]))))
        i = int(np.argmax(defects))
        if defects[i] > best:
            best = float(defects[i])
            best_quad = _python_quadruple(quads[i])
    assert best_quad is not None
    return DeltaEstimate(sup_defect=best, argmax=best_quad, checkpoints=tuple(checkpoints))


def metric_axiom_violations(d: ArrayDistance, points: np.ndarray) -> list[str]:
    """Spot-check identity, symmetry and the triangle inequality on a sample
    of points (on axis 0 of the array), to within METRIC_TOL.

    Returns human-readable violation descriptions (empty list = clean):
    identities, then each pair i < j's sign and symmetry, then triangles
    (i, j, k) of the first 12 points, in index order.  One call of d on
    all ordered pairs gives the n x n distance matrix that they all read.
    """
    tol = METRIC_TOL
    points = np.asarray(points)
    n = len(points)
    first, second = np.divmod(np.arange(n * n), n)
    dist = np.reshape(d(points[first], points[second]), (n, n))
    msgs = [f"d(x,x) != 0 at index {i}" for i in np.flatnonzero(np.abs(np.diagonal(dist)) > tol)]
    # (i, j, 0) flags a negative d(i, j), (i, j, 1) an asymmetry, so
    # argwhere lists them pair by pair
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    pair_checks = np.stack((upper & (dist < -tol), upper & (np.abs(dist - dist.T) > tol)), axis=-1)
    for i, j, asym in np.argwhere(pair_checks):
        if asym:
            msgs.append(f"asymmetry at ({i},{j}): {float(dist[i, j])} vs {float(dist[j, i])}")
        else:
            msgs.append(f"negative distance at ({i},{j})")
    m = min(n, 12)
    sub = dist[:m, :m]
    # [i, j, k]: d(i, k) > d(i, j) + d(j, k) + tol
    triangle = sub[:, None, :] > sub[:, :, None] + sub[None, :, :] + tol
    msgs += [f"triangle violation at ({i},{j},{k})" for i, j, k in np.argwhere(triangle)]
    return msgs
