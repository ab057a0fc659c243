"""Exact integral homology of simplicial complexes and graded chain complexes.

Everything runs over arbitrary-precision Python integers.  Invariant factors
come from a sparse elimination that peels off unit pivots before falling back
to a dense Smith reduction on whatever small core remains; large simplicial
complexes are shrunk by elementary collapses first, which changes nothing
homologically.

All homology here uses the reduced convention.  The empty complex has a single
reduced homology group Z in degree -1; a point has none.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations


class BoundarySquareError(Exception):
    """A graded boundary failed d(d(x)) = 0; message names the offender."""


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(matrix):
    """Invariant factors d1 | d2 | ... | dr of an integer matrix.

    ``matrix`` is a sequence of rows.  Returns a tuple of positive integers
    forming a divisibility chain; the zero matrix yields ().
    """
    rows = {}
    cols = {}
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            if v:
                rows.setdefault(i, {})[j] = v
                cols.setdefault(j, set()).add(i)
    return _invariant_factors(rows, cols)


def _sparse_eliminate(rows, cols, pi, pj):
    """Eliminate with the unit pivot at (pi, pj); removes its row and column."""
    s = rows[pi][pj]  # +-1, its own inverse
    prow = rows.pop(pi)
    for j in prow:
        cols[j].discard(pi)
    for i in list(cols.get(pj, ())):
        row = rows[i]
        factor = row[pj] * s
        for j, v in prow.items():
            nv = row.get(j, 0) - factor * v
            if nv:
                row[j] = nv
                cols[j].add(i)
            elif j in row:
                del row[j]
                cols[j].discard(i)
        if not row:
            del rows[i]
    cols.pop(pj, None)


def _invariant_factors(rows, cols):
    unit = 0
    progress = True
    while progress:
        progress = False
        for i in list(rows):
            row = rows.get(i)
            if not row:
                rows.pop(i, None)
                continue
            best = None
            for j, v in row.items():
                if v == 1 or v == -1:
                    if best is None or len(cols[j]) < len(cols[best]):
                        best = j
            if best is not None:
                _sparse_eliminate(rows, cols, i, best)
                unit += 1
                progress = True
    factors = [1] * unit
    if rows:
        col_index = {j: k for k, j in enumerate(sorted(cols))}
        dense = []
        for i in sorted(rows):
            r = [0] * len(col_index)
            for j, v in rows[i].items():
                r[col_index[j]] = v
            dense.append(r)
        factors.extend(_dense_snf(dense))
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0, "invariant factors must form a divisibility chain"
    return tuple(factors)


def _dense_snf(m):
    """Smith reduction of a dense integer matrix; returns positive factors."""
    if not m or not m[0]:
        return []
    nr, nc = len(m), len(m[0])
    factors = []
    t = 0
    while t < min(nr, nc):
        piv = None
        for i in range(t, nr):
            row = m[i]
            for j in range(t, nc):
                v = row[j]
                if v and (piv is None or abs(v) < piv[0]):
                    piv = (abs(v), i, j)
        if piv is None:
            break
        _, i0, j0 = piv
        if i0 != t:
            m[t], m[i0] = m[i0], m[t]
        if j0 != t:
            for row in m:
                row[t], row[j0] = row[j0], row[t]
        p = m[t][t]
        clean = True
        for i in range(t + 1, nr):
            if m[i][t]:
                q = m[i][t] // p
                if q:
                    mt, mi = m[t], m[i]
                    for j in range(t, nc):
                        mi[j] -= q * mt[j]
                if m[i][t]:
                    clean = False
        for j in range(t + 1, nc):
            if m[t][j]:
                q = m[t][j] // p
                if q:
                    for i in range(t, nr):
                        m[i][j] -= q * m[i][t]
                if m[t][j]:
                    clean = False
        if not clean:
            continue
        p = abs(m[t][t])
        offender = None
        for i in range(t + 1, nr):
            row = m[i]
            for j in range(t + 1, nc):
                if row[j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            mt, mo = m[t], m[offender]
            for j in range(t, nc):
                mt[j] += mo[j]
            continue
        factors.append(p)
        t += 1
    return factors


# ---------------------------------------------------------------------------
# Homology results


@dataclass(frozen=True)
class HomologyResult:
    """Reduced integral homology: per degree a Betti number and torsion factors."""

    groups: tuple  # sorted tuple of (degree, betti, torsion-tuple), all nontrivial
    reduced: bool = True

    @staticmethod
    def of(groups):
        """Normalize a {degree: (betti, torsion)} mapping, dropping trivial rows."""
        norm = []
        for q in sorted(groups):
            betti, torsion = groups[q]
            torsion = tuple(int(x) for x in torsion if x > 1)
            if betti or torsion:
                norm.append((q, int(betti), torsion))
        return HomologyResult(tuple(norm))

    def betti(self, q):
        for degree, betti, _ in self.groups:
            if degree == q:
                return betti
        return 0

    def torsion(self, q):
        for degree, _, torsion in self.groups:
            if degree == q:
                return torsion
        return ()

    @property
    def is_zero(self):
        return not self.groups

    def shifted(self, k):
        return HomologyResult(
            tuple((q + k, b, t) for q, b, t in self.groups), self.reduced
        )

    def to_json(self):
        return json.dumps(
            {
                "reduced": self.reduced,
                "groups": [
                    {"degree": q, "betti": b, "torsion": list(t)}
                    for q, b, t in self.groups
                ],
            }
        )

    def __str__(self):
        if not self.groups:
            return "0"
        parts = []
        for q, b, t in self.groups:
            summands = (["Z^%d" % b if b > 1 else "Z"] if b else []) + [
                "Z/%d" % m for m in t
            ]
            parts.append("H_%d = %s" % (q, " + ".join(summands)))
        return "; ".join(parts)


def sphere_homology(d):
    """Reduced homology of S^d; d = -1 is the empty complex."""
    return HomologyResult.of({d: (1, ())})


def suspension_shift(result, k):
    """Push every homology group up by k degrees (k-fold suspension)."""
    if not result.reduced:
        raise ValueError("suspension shift is defined on reduced results")
    return result.shifted(k)


# ---------------------------------------------------------------------------
# Chain complexes


class ChainComplex:
    """Graded free Z-complex: per-degree generator labels and boundary columns.

    ``boundaries[q]`` maps the index of a degree-q generator to a dict
    {index in degree q-1: coefficient}.  d(d(x)) = 0 is asserted on
    construction.
    """

    def __init__(self, generators, boundaries):
        self.generators = {q: tuple(gens) for q, gens in generators.items() if gens}
        self.boundaries = {
            q: {c: dict(col) for c, col in cols.items() if col}
            for q, cols in boundaries.items()
        }
        for q, cols in self.boundaries.items():
            if q not in self.generators:
                raise ValueError("boundary in degree %d without generators" % q)
            nlow = len(self.generators.get(q - 1, ()))
            for c, col in cols.items():
                if c >= len(self.generators[q]):
                    raise ValueError("boundary column %d out of range" % c)
                if any(r >= nlow or r < 0 for r in col):
                    raise ValueError("boundary row out of range in degree %d" % q)
        self._check_squares_to_zero()

    def degrees(self):
        return sorted(self.generators)

    def _check_squares_to_zero(self):
        for q, cols in self.boundaries.items():
            lower = self.boundaries.get(q - 1, {})
            if not lower:
                continue
            for c, col in cols.items():
                acc = {}
                for r, v in col.items():
                    for r2, v2 in lower.get(r, {}).items():
                        acc[r2] = acc.get(r2, 0) + v * v2
                bad = {r: v for r, v in acc.items() if v}
                if bad:
                    label = self.generators[q][c]
                    surv = {
                        self.generators[q - 2][r]: v for r, v in bad.items()
                    }
                    raise BoundarySquareError(
                        "d(d(%r)) = %r is nonzero" % (label, surv)
                    )

    def boundary_matrix_sparse(self, q):
        """(rows, cols) dict-of-dicts view of the degree-q boundary."""
        rows, cols = {}, {}
        for c, col in self.boundaries.get(q, {}).items():
            for r, v in col.items():
                rows.setdefault(r, {})[c] = v
                cols.setdefault(c, set()).add(r)
        return rows, cols


def chain_homology(complex_):
    """Exact homology of a ChainComplex, degree by degree.

    Betti_q = dim ker d_q - rank d_{q+1}; torsion_q = invariant factors of
    d_{q+1} exceeding 1.  The Euler characteristics of generators and of the
    answer are cross-checked.
    """
    factors = {}
    for q in complex_.degrees():
        rows, cols = complex_.boundary_matrix_sparse(q)
        factors[q] = _invariant_factors(rows, cols)
    groups = {}
    for q in complex_.degrees():
        n_q = len(complex_.generators[q])
        rank_q = len(factors.get(q, ()))
        rank_up = len(factors.get(q + 1, ()))
        betti = n_q - rank_q - rank_up
        torsion = tuple(d for d in factors.get(q + 1, ()) if d > 1)
        groups[q] = (betti, torsion)
    result = HomologyResult.of(groups)
    sign = lambda q: -1 if q % 2 else 1
    euler_cells = sum(
        sign(q) * len(gens) for q, gens in complex_.generators.items()
    )
    euler_betti = sum(sign(q) * b for q, (b, _) in groups.items())
    assert euler_cells == euler_betti, "Euler characteristic mismatch"
    return result


# ---------------------------------------------------------------------------
# Simplicial complexes


@dataclass(frozen=True)
class SimplicialComplex:
    """Finite abstract simplicial complex on an indexed vertex set.

    Faces are nonempty sorted tuples of vertex indices, closed under taking
    nonempty subsets.  The empty complex (no faces) is allowed.
    """

    vertices: tuple
    faces: frozenset

    def __post_init__(self):
        n = len(self.vertices)
        for face in self.faces:
            if not face or tuple(sorted(set(face))) != face:
                raise ValueError("face %r is not a sorted duplicate-free tuple" % (face,))
            if face[0] < 0 or face[-1] >= n:
                raise ValueError("face %r has out-of-range vertices" % (face,))
            if len(face) > 1:
                for sub in combinations(face, len(face) - 1):
                    if sub not in self.faces:
                        raise ValueError(
                            "not downward closed: %r present, %r missing"
                            % (face, sub)
                        )

    @staticmethod
    def generated(vertices, facets):
        """Downward closure of the given faces (vertex-index collections)."""
        faces = set()
        for facet in facets:
            top = tuple(sorted(set(facet)))
            for k in range(1, len(top) + 1):
                faces.update(combinations(top, k))
        return SimplicialComplex(tuple(vertices), frozenset(faces))

    @property
    def dimension(self):
        return max((len(f) for f in self.faces), default=0) - 1

    def faces_by_dim(self):
        by_dim = {}
        for face in self.faces:
            by_dim.setdefault(len(face) - 1, []).append(face)
        return {d: sorted(fs) for d, fs in by_dim.items()}

    def facets(self):
        """Faces maximal under inclusion."""
        face_sets = [set(f) for f in self.faces]
        out = []
        for f in self.faces:
            fs = set(f)
            if not any(fs < g for g in face_sets):
                out.append(f)
        return sorted(out)

    def euler_characteristic(self):
        return sum((-1) ** (len(f) - 1) for f in self.faces)


def _collapse(faces):
    """Greedy elementary collapses; returns a homotopy-equivalent face set."""
    faces = set(faces)
    cofaces = {}
    for f in faces:
        if len(f) > 1:
            for sub in combinations(f, len(f) - 1):
                cofaces.setdefault(sub, set()).add(f)
    queue = [f for f in faces if len(cofaces.get(f, ())) == 1]
    while queue:
        sigma = queue.pop()
        if sigma not in faces:
            continue
        up = cofaces.get(sigma)
        if not up or len(up) != 1:
            continue
        (tau,) = up
        if cofaces.get(tau):
            continue  # tau is not a facet
        faces.discard(sigma)
        faces.discard(tau)
        for f in (sigma, tau):
            if len(f) > 1:
                for sub in combinations(f, len(f) - 1):
                    cs = cofaces.get(sub)
                    if cs is not None:
                        cs.discard(f)
                        if len(cs) == 1 and sub in faces:
                            queue.append(sub)
        cofaces.pop(sigma, None)
        cofaces.pop(tau, None)
    return faces


def simplicial_homology(complex_, precollapse=True):
    """Reduced integral homology via the augmented simplicial chain complex.

    Elementary collapses shrink large complexes first; they preserve the
    homotopy type, hence the answer.
    """
    faces = complex_.faces
    if precollapse and len(faces) > 64:
        faces = _collapse(faces)
    by_dim = {}
    for face in faces:
        by_dim.setdefault(len(face) - 1, []).append(face)
    by_dim = {d: sorted(fs) for d, fs in by_dim.items()}
    index = {
        d: {f: i for i, f in enumerate(fs)} for d, fs in by_dim.items()
    }
    generators = {-1: ("*",)}
    boundaries = {}
    for d, fs in by_dim.items():
        generators[d] = tuple(fs)
    if 0 in by_dim:
        boundaries[0] = {i: {0: 1} for i in range(len(by_dim[0]))}
    for d, fs in by_dim.items():
        if d < 1:
            continue
        cols = {}
        lower = index[d - 1]
        for c, face in enumerate(fs):
            col = {}
            for k in range(len(face)):
                sub = face[:k] + face[k + 1 :]
                col[lower[sub]] = (-1) ** k
            cols[c] = col
        boundaries[d] = cols
    return chain_homology(ChainComplex(generators, boundaries))
