"""Cellular chain complexes for closures of root-multiplicity strata.

A cell is a composition of some weight m tagged with an ambient degree n of
the same parity; it has dimension t + (n - m) for t parts (t real-root
coordinates plus (n - m)/2 conjugate pairs).  The closure of the cells of a
fixed type is generated by two moves: merging adjacent parts, and inserting
a new part equal to 2 while weight + 2 <= n (a conjugate pair colliding on
the real axis).

Inside a closure a cell is keyed by one int, its boundary set: bit b is set
iff b is 0, a partial sum or the weight m, so the empty cell is 1, m is the
highest bit and t is one less than the number of bits.  A merge clears an
inner bit; inserting a 2 at boundary b keeps the bits up to b and shifts the
rest up by 2.  ``StratumCell`` labels a cell, its parts read off the key by
``compositions._parts``; a chain complex builds labels only when read.

A closure is walked once, one dimension at a time from the type's cells:
every move drops the dimension by exactly one, so the targets of one level's
moves are the whole next level, each of whose keys is checked to have that
dimension.  A cell's moves are three lists of targets, by coefficient +1, -1
and 0.  The levels' keys are the closure cells, their +1 and -1 lists the
boundary columns, already split by sign as the d(d(x)) = 0 check reads them,
and all three lists the covers of the closure poset.

The boundary operator combines the alternating merge signs with a sign for
each insertion that depends on the run of 2's the new part lands in: the
coefficient vanishes when the run has even length and equals (-1)^(j1-1)
for a run starting at part j1 of odd length.  The even/odd convention is the
one under which d(d(x)) = 0 holds; the other parity is kept behind a flag
for regression tests (see boundary()).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from . import compositions as comps
from .compositions import _mask_order, _parts
from .homology import ChainComplex, HomologyResult, InvariantError, chain_homology
from .posets import Poset


class StratumError(Exception):
    pass


@dataclass(frozen=True, order=True)
class StratumCell:
    """A composition together with its ambient polynomial degree."""

    parts: tuple
    ambient: int

    def __post_init__(self):
        object.__setattr__(self, "parts", comps.as_composition(self.parts))
        m = sum(self.parts)
        if m > self.ambient:
            raise StratumError("weight %d exceeds ambient degree %d" % (m, self.ambient))
        if (self.ambient - m) % 2:
            raise StratumError("ambient minus weight must be even")

    @property
    def weight(self):
        return sum(self.parts)

    @property
    def dimension(self):
        return len(self.parts) + (self.ambient - self.weight)

    def __str__(self):
        return "(%s)@%d" % (",".join(map(str, self.parts)), self.ambient)


def _key(parts):
    """The boundary set of a composition."""
    return 1 | comps.partial_sums(parts) << 1 | 1 << sum(parts)


def _dimension(key, n):
    return key.bit_count() + n - key.bit_length()


def _faces(key, n, literal_parity=False):
    """Every move out of a cell, once each, walking the set bits of ``key``:
    its target keys with coefficient +1, -1 and 0, as three lists.

    Inserting a 2 just before a part 2 gives the same target as inserting it
    after that part, so only the last slot of each run is used; the new 2
    then ends a run of L + 1 twos, L being the 2-parts that end at the bit.
    """
    insert = key.bit_length() < n  # weight + 2 <= n
    out = [], [], []  # coefficient +1, -1 (odd k, or odd k - twos), 0 (even span)
    rest = key
    below = k = twos = 0  # k boundaries lie below ``bit``
    while rest:
        bit = rest & -rest
        rest ^= bit
        twos = twos + 1 if below << 2 == bit else 0
        if k and rest:
            out[k & 1].append(key ^ bit)
        if insert and key & 7 * bit != 5 * bit:  # 5: a part 2 starts here
            span = twos if literal_parity else twos + 1  # j2 - j1, or the run length
            target = (key & (2 * bit - 1)) | (key & -bit) << 2
            out[(k - twos) & 1 if span & 1 else 2].append(target)
        below = bit
        k += 1
    return out


def _closure(partition, n):
    """The closure of the type's cells in degree n, one level per dimension.

    A list of (keys, moves) pairs, highest dimension first: the level's cell
    keys in ``_mask_order`` and, for each, its moves as the three lists of
    targets, by coefficient +1, -1 and 0, that ``_faces`` returns.  The next
    level is the union of all three.  Each key below the top level is checked
    to have its level's dimension, an offender named by the first source of a
    move to it.
    """
    partition = comps.as_partition(partition)
    l = sum(partition)
    if l > n:
        raise StratumError("partition weight %d exceeds ambient degree %d" % (l, n))
    if (n - l) % 2:
        raise StratumError("ambient minus weight must be even")
    keys = sorted(map(_key, comps.compositions_of_type(partition)), key=_mask_order)
    levels = []
    low = len(partition) - l  # the level's dimension minus n
    while keys:
        moves = [_faces(key, n) for key in keys]
        levels.append((keys, moves))
        targets = set()
        for m in moves:
            targets.update(*m)
        keys = sorted(targets, key=_mask_order)
        low -= 1
        for target in keys:
            if target.bit_count() - target.bit_length() != low:
                source = next(k for k, m in zip(*levels[-1]) if target in sum(m, []))
                raise InvariantError(
                    "move from %s leaves the dimension-%d closure cells"
                    % (StratumCell(_parts(source), n), low + n)
                )
    return levels


def closure_cells(partition, n):
    """All cells in the closure of the type's cells in ambient degree n.

    Closure under merging adjacent parts and inserting a part 2; each move
    drops the dimension by exactly one.
    """
    levels = _closure(partition, n)
    return frozenset(StratumCell(_parts(key), n) for keys, _ in levels for key in keys)


def boundary(cell, literal_parity=False):
    """Formal integer boundary of a cell, as a {cell: coefficient} dict.

    With ``literal_parity`` the insertion coefficient vanishes for runs with
    j2 - j1 even instead of runs of even length; that variant fails
    d(d(x)) = 0 and exists only for regression diagnostics.
    """
    n = cell.ambient
    plus, minus, _ = _faces(_key(cell.parts), n, literal_parity)
    return {StratumCell(_parts(t), n): v for ts, v in ((plus, 1), (minus, -1)) for t in ts}


def boundary_of_chain(chain, literal_parity=False):
    """Boundary of a formal sum {cell: coefficient}."""
    out = {}
    for cell, coeff in chain.items():
        for target, v in boundary(cell, literal_parity).items():
            out[target] = out.get(target, 0) + coeff * v
    return {c: v for c, v in out.items() if v}


class _Cells(Sequence):
    """One degree's generators: cell keys, labelled as ``StratumCell`` when read."""

    def __init__(self, keys, n):
        self._keys = keys
        self._n = n

    def __len__(self):
        return len(self._keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [StratumCell(_parts(key), self._n) for key in self._keys[i]]
        return StratumCell(_parts(self._keys[i]), self._n)


def pol_chain_complex(partition, n):
    """Chain complex on the closure cells, graded by cell dimension.

    The closure's levels, lowest first, number the cells of the complex,
    each level in composition order: a cell's +1 and -1 move targets are
    looked up among the level below, its zero moves skipped, and a level's
    moves are dropped once read.  ``ChainComplex._numbered`` builds the cell
    table from those two lists and checks d(d(x)) = 0 on them, from the top
    cells down.  A ``StratumCell`` label is built only when read.
    """
    levels = _closure(partition, n)
    generators, plus, minus, starts, below = {}, [], [], [], {}
    while levels:
        keys, moves = levels.pop()
        generators[_dimension(keys[0], n)] = _Cells(keys, n)
        starts.append(len(plus))
        get = below.__getitem__
        for p, m, _ in moves:
            plus.append(list(map(get, p)))
            minus.append(list(map(get, m)))
        below = dict(zip(keys, range(starts[-1], len(plus))))
    order = range(len(plus) - 1, -1, -1)
    return ChainComplex._numbered(generators, (plus, minus), starts, order)


def pol_homology(partition, n):
    """Reduced homology of the one-point compactified closure, by cell degree."""
    return chain_homology(pol_chain_complex(partition, n))


def closure_poset(partition, n):
    """The closure cells ordered by boundary containment (for export), in
    level order: by dimension descending, then in composition order."""
    levels = _closure(partition, n)
    keys = [key for level, _ in levels for key in level]
    index = dict(zip(keys, range(len(keys))))
    pairs = ((key, m) for level, moves in levels for key, m in zip(level, moves))
    covers = {(index[t], index[key]) for key, m in pairs for ts in m for t in ts}
    return Poset([StratumCell(_parts(key), n) for key in keys], covers)


def fills_space(partition, n):
    """Whether the closure of the type's cells is the whole degree-n space.

    Only the closure of (1^n) holds the top cell (1^n)@n, and it misses the
    cells of weight below n, which exist once n >= 2: so only (1^n) for
    n <= 1 fills its space, and only there is the complement empty.
    """
    return 0 <= n <= 1 and comps.as_partition(partition) == (1,) * n


def complement_cohomology(partition, n):
    """Reduced cohomology table of the complement of the closed stratum.

    Duality inside the n-sphere: degree q of the complement reads off degree
    n - q - 1 of the compactified closure, with torsion shifted one degree
    down by universal coefficients.  Rejects closures filling the whole
    coefficient space, where the complement is empty.
    """
    if fills_space(partition, n):
        raise StratumError(
            "closure of %r fills the whole degree-%d space" % (tuple(partition), n)
        )
    h = pol_homology(partition, n)
    return HomologyResult.of(
        {q: (h.betti(n - q - 1), h.torsion(n - q - 2)) for q in range(n)}
    )


@dataclass(frozen=True)
class StabilizationReport:
    partition: tuple
    ambients: tuple
    tables: tuple  # HomologyResult per ambient
    first_unstable: tuple  # per consecutive pair: lowest differing degree or None

    def to_csv(self):
        rows = ["n,degree,betti,torsion"]
        for n, table in zip(self.ambients, self.tables):
            rows += ["%d,%s" % (n, row) for row in table.to_csv().splitlines()[1:]]
        return "\n".join(rows) + "\n"

    def to_text(self):
        lines = ["lambda = %s" % (self.partition,)]
        lines += ["  n = %d: %s" % row for row in zip(self.ambients, self.tables)]
        for a, b, q in zip(self.ambients, self.ambients[1:], self.first_unstable):
            if q is None:
                lines.append("  n=%d vs n=%d: tables agree everywhere" % (a, b))
            else:
                lines.append("  n=%d vs n=%d: first difference in degree %d" % (a, b, q))
        return "\n".join(lines)


def stabilization_report(partition, n_min, n_max):
    """Complement tables for ambient degrees n_min, n_min+2, ..., side by side.

    ``n_min`` None is the lowest degree whose complement is nonempty: the
    weight, or the weight + 2 where the closure fills its space.
    Consecutive tables of a type with t parts and weight l agree, Betti
    numbers and torsion, in every degree q < (c - 1) + e, where c = l - t is
    the codimension and e = (n - l)/2 counts the elliptic factors at the
    smaller degree n; the range is sharp, e.g. (3) at n = 3 vs 5 in degree 1.
    """
    partition = comps.as_partition(partition)
    l = sum(partition)
    if n_min is None:
        n_min = l + 2 if fills_space(partition, l) else l
    if n_min < l or (n_min - l) % 2:
        raise StratumError("n_min must be weight + 2k")
    ambients = tuple(range(n_min, n_max + 1, 2))
    if not ambients:
        raise StratumError("empty ambient range")
    tables = tuple(complement_cohomology(partition, n) for n in ambients)
    unstable = tuple(
        min((q for q, _, _ in set(t1.groups) ^ set(t2.groups)), default=None)
        for t1, t2 in zip(tables, tables[1:])
    )
    return StabilizationReport(partition, ambients, tables, unstable)
