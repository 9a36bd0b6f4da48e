"""From-scratch reference versions of the IET continuity refinement and the
Veech tower search.

Both step every candidate midpoint from scratch with the package's one-step
maps: the refinement calls ``iet_step`` q times per piece, and the tower
search re-steps each candidate piece's midpoint at every q (a numpy loop over
the candidates for float IETs, ``iet_step`` for exact ones).  The package
carries orbits across q and steps midpoints together instead; the tests
require ``repr``-identical results.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from gordonlab.dynamics import (
    IET_TOL,
    IetContinuityPiece,
    iet_inverse_step,
    iet_step,
    iet_tables,
)
from gordonlab.repetition import TowerNotFound, VeechTower


def _merged_cuts(iet, q, tables, tol):
    cuts = list(tables.beta)
    layer = list(tables.beta[1:-1])
    for _ in range(q - 1):
        layer = [iet_inverse_step(iet, x, tables) for x in layer]
        cuts.extend(layer)
    cuts.sort()
    merged = [cuts[0]]
    for c in cuts[1:]:
        if c - merged[-1] > tol:
            merged.append(c)
    if merged[-1] != tables.total:
        merged[-1] = tables.total
    return merged


def refine_continuity_stepping(iet, q):
    tables = iet_tables(iet)
    exact = not isinstance(tables.total, float)
    tol = 0 if exact else IET_TOL * max(1.0, float(tables.total))
    cuts = _merged_cuts(iet, q, tables, tol)
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        image = mid
        for _ in range(q):
            image = iet_step(iet, image, tables)
        translation = image - mid
        if pieces and (
            pieces[-1].translation == translation
            if exact
            else abs(pieces[-1].translation - translation) <= tol
        ):
            pieces[-1] = IetContinuityPiece(pieces[-1].lo, hi, translation)
        else:
            pieces.append(IetContinuityPiece(lo, hi, translation))
    return pieces


def _insert_cut(cuts, x, tol):
    pos = bisect_left(cuts, x)
    if pos < len(cuts) and cuts[pos] - x <= tol:
        return
    if pos > 0 and x - cuts[pos - 1] <= tol:
        return
    cuts.insert(pos, x)


def veech_tower_search_stepping(iet, epsilon, q_max):
    tables = iet_tables(iet)
    total = tables.total
    exact = not isinstance(total, float)
    tol = 0 if exact else IET_TOL * max(1.0, float(total))
    best_q, best_cov, best_ovf, best_score = None, 0.0, 0.0, -1.0
    if epsilon == 0:
        return TowerNotFound(epsilon, q_max, best_q, best_cov, best_ovf)
    cuts = list(tables.beta)
    layer = list(tables.beta[1:-1])
    beta_arr = np.asarray([float(b) for b in tables.beta])
    jumps_arr = np.asarray([float(j) for j in tables.jumps])
    for q in range(1, q_max + 1):
        if q > 1:
            layer = [iet_inverse_step(iet, x, tables) for x in layer]
            for x in layer:
                _insert_cut(cuts, x, tol)
        lens = [hi - lo for lo, hi in zip(cuts, cuts[1:])]
        min_len = (1 - epsilon) * total / q
        max_len = total / q
        cand = [i for i, ln in enumerate(lens) if ln > min_len and ln <= max_len + tol]
        if not cand:
            continue
        if not exact:
            mids = np.asarray([(cuts[i] + cuts[i + 1]) / 2 for i in cand])
            clen = np.asarray([lens[i] for i in cand])
            x = mids.copy()
            alive = np.ones(len(cand), dtype=bool)
            for _ in range(1, q):
                x = x + jumps_arr[np.searchsorted(beta_arr, x, side="right") - 1]
                alive &= np.abs(x - mids) >= clen - tol
                if not alive.any():
                    break
            if not alive.any():
                continue
            x = x + jumps_arr[np.searchsorted(beta_arr, x, side="right") - 1]
            overlap = np.maximum(clen - np.abs(x - mids), 0.0)
            coverage = q * clen / float(total)
            ok = alive & (overlap > (1 - epsilon) * clen) & (coverage > 1 - epsilon)
            for j in np.flatnonzero(alive):
                score = min(float(coverage[j]), float(overlap[j] / clen[j]))
                if score > best_score:
                    best_score = score
                    best_q, best_cov = q, float(coverage[j])
                    best_ovf = float(overlap[j] / clen[j])
            if ok.any():
                j = int(np.flatnonzero(ok)[0])
                i = cand[j]
                return VeechTower(
                    q, (cuts[i], cuts[i + 1]), float(coverage[j]), float(overlap[j])
                )
            continue
        for i in cand:
            lo, hi = cuts[i], cuts[i + 1]
            ln = hi - lo
            mid = (lo + hi) / 2
            x = mid
            disjoint = True
            for _ in range(1, q):
                x = iet_step(iet, x, tables)
                if abs(x - mid) < ln:
                    disjoint = False
                    break
            if not disjoint:
                continue
            x = iet_step(iet, x, tables)
            overlap = max(ln - abs(x - mid), 0)
            coverage = q * ln / total
            score = min(float(coverage), float(overlap / ln))
            if score > best_score:
                best_score = score
                best_q, best_cov, best_ovf = q, float(coverage), float(overlap / ln)
            if overlap > (1 - epsilon) * ln and coverage > 1 - epsilon:
                return VeechTower(q, (lo, hi), float(coverage), float(overlap))
    return TowerNotFound(epsilon, q_max, best_q, best_cov, best_ovf)
