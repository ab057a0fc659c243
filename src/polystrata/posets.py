"""Generic finite posets: order complexes, face posets, quotients, products, closures.

A Poset stores an indexed tuple of hashable element keys and an irredundant
cover relation on indices; the strict order is derived on construction as
int index masks (bit j of ``_above[i]`` is set iff element i < element j).
Orders given as relations reach their covers through one transitive
reduction, ``Poset._from_below``, a walk over each down-set's covers in a
linear extension.  Cover indices pass through
``operator.index``, so a float is a TypeError, not truncated.  A quotient
takes a key function, not a group: its elements are the key's fibres.  All
values are immutable.  ``order_complex`` hands ``homology`` the up-sets,
from which it grows the face table.

An isomorphism is certified only as a given map: ``check_isomorphism`` tests
that it is a bijection carrying covers exactly onto covers.  Nothing here
searches for one.
"""

from __future__ import annotations

import json
import operator
from itertools import product

from .homology import SimplicialComplex


class PosetError(Exception):
    pass


class CycleError(PosetError):
    """The transitive closure of the proposed covers contains a cycle."""


class ClosureLawError(PosetError):
    """A map failed one of the closure-operator laws; message holds a witness."""

    def __init__(self, law, witness):
        self.law = law
        self.witness = witness
        super().__init__("closure law violated (%s): witness %r" % (law, witness))


def _bits(mask):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _covers(below):
    """The covers of a strict order with down-sets ``below`` in a linear
    extension, walked from each down-set's top; None if the walk fails."""
    if any(down >> i for i, down in enumerate(below)):
        return None
    covers = []
    for i, down in enumerate(below):
        rest = down
        while rest:
            j = rest.bit_length() - 1
            under = below[j]
            if under & ~down:
                return None
            covers.append((j, i))
            rest &= ~(under | 1 << j)
    return covers


def _refuse(elements, below):
    """Name the first element whose down-set is not a strict order's."""
    for i, down in enumerate(below):
        for j in _bits(down):
            if below[j] >> i & 1:
                message = "relation is not antisymmetric: %r and %r"
                raise CycleError(message % (elements[i], elements[j]))
        beyond = [k for j in _bits(down) for k in _bits(below[j] & ~down)]
        if beyond:
            message = "relation is not transitive: %r is below %r only through others"
            raise PosetError(message % (elements[min(beyond)], elements[i]))


class Poset:
    __slots__ = ("elements", "covers", "_index", "_up", "_above")

    def __init__(self, elements, covers):
        self.elements = tuple(elements)
        n = len(self.elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != n:
            raise PosetError("duplicate element keys")
        covers = frozenset((operator.index(a), operator.index(b)) for a, b in covers)
        self._up = up = [[] for _ in range(n)]
        for a, b in covers:
            if not (0 <= a < n and 0 <= b < n):
                raise PosetError("cover index out of range")
            if a == b:
                raise PosetError("reflexive cover (%d, %d)" % (a, b))
            up[a].append(b)
        for u in up:
            u.sort()
        self.covers = covers
        above = [0] * n
        for a in reversed(self._topological_order()):
            covered = implied = 0
            for j in self._up[a]:
                covered |= 1 << j
                implied |= above[j]
            # irredundancy: no cover implied by a path through another cover
            if covered & implied:
                b = next(_bits(covered & implied))
                raise PosetError(
                    "redundant cover (%r, %r)" % (self.elements[a], self.elements[b])
                )
            above[a] = covered | implied
        self._above = above

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _from_below(elements, below):
        """The one transitive reduction, from strict down-sets as index masks.

        Each down-set is walked from its top in a linear extension (Aho,
        Garey and Ullman 1972): the highest member left is a cover, its own
        down-set must lie inside, and both are dropped.  By induction this
        checks transitivity, reading one down-set per cover.  The extension
        is index order for composition, face and Young-orbit posets; C_lambda,d
        (sorted by positions) and ``from_le`` may need the down-sets
        renumbered by size.  A cycle raises CycleError, a non-transitive
        relation PosetError.
        """
        covers = _covers(below)
        if covers is None:
            order = sorted(range(len(below)), key=lambda i: below[i].bit_count())
            rank = sorted(range(len(order)), key=order.__getitem__)
            ranked = [sum(1 << rank[j] for j in _bits(below[i])) for i in order]
            covers = _covers(ranked)
            if covers is None:
                _refuse(elements, below)
            covers = [(order[a], order[b]) for a, b in covers]
        return Poset(elements, covers)

    @staticmethod
    def from_le(elements, le):
        """Build from a reflexive order test ``le(x, y)``, called on every pair."""
        elements = tuple(elements)
        below = [
            sum(1 << j for j, y in enumerate(elements) if j != i and le(y, x))
            for i, x in enumerate(elements)
        ]
        return Poset._from_below(elements, below)

    @staticmethod
    def chain(keys):
        keys = tuple(keys)
        return Poset(keys, {(i, i + 1) for i in range(len(keys) - 1)})

    # -- basic queries -------------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def index(self, key):
        return self._index[key]

    def _topological_order(self):
        n = len(self.elements)
        indeg = [0] * n
        for _, b in self.covers:
            indeg[b] += 1
        stack = [i for i in range(n) if indeg[i] == 0]
        order = []
        while stack:
            i = stack.pop()
            order.append(i)
            for j in self._up[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    stack.append(j)
        if len(order) != n:
            raise CycleError("cover relation contains a directed cycle")
        return order

    def lt(self, x, y):
        return bool(self._above[self._index[x]] >> self._index[y] & 1)

    def leq(self, x, y):
        return x == y or self.lt(x, y)

    def heights(self):
        """Length of the longest chain below each element (by index)."""
        h = [0] * len(self.elements)
        for i in self._topological_order():
            for j in self._up[i]:
                h[j] = max(h[j], h[i] + 1)
        return h

    def dual(self):
        return Poset(self.elements, {(b, a) for a, b in self.covers})

    def subposet(self, keys):
        keep = set(keys)
        keys = [k for k in self.elements if k in keep]
        return Poset.from_le(keys, self.leq)

    # -- exports -------------------------------------------------------------

    def to_json(self):
        return json.dumps(
            {
                "elements": [str(e) for e in self.elements],
                "covers": [[a, b] for a, up in enumerate(self._up) for b in up],
            }
        )

    def to_dot(self, name="poset"):
        lines = ["digraph %s {" % name, "  rankdir=BT;", "  node [shape=box];"]
        for i, e in enumerate(self.elements):
            lines.append('  n%d [label="%s"];' % (i, str(e).replace('"', "'")))
        by_height = {}
        for i, h in enumerate(self.heights()):
            by_height.setdefault(h, []).append(i)
        for h in sorted(by_height):
            lines.append(
                "  { rank=same; %s }" % " ".join("n%d;" % i for i in by_height[h])
            )
        lines += ["  n%d -> n%d;" % (a, b) for a, up in enumerate(self._up) for b in up]
        lines.append("}")
        return "\n".join(lines) + "\n"


def order_complex(poset):
    """Complex of all nonempty chains; vertex i is element i of the poset.

    Its face table is grown from the up-sets by
    ``SimplicialComplex._of_chains``, so no chain tuple is built or hashed
    until the faces are read.  That needs every chain to be a sorted tuple,
    which holds when index order is a linear extension, as for C_λ,
    coarsening and face posets.  Otherwise (a dual C_λ, say) the chains are
    decoded, sorted and checked as given faces.
    """
    up = [tuple(_bits(mask)) for mask in poset._above]
    complex_ = SimplicialComplex._of_chains(poset.elements, up)
    if any(mask & ((1 << i) - 1) for i, mask in enumerate(poset._above)):
        faces = frozenset(map(tuple, map(sorted, complex_.faces)))
        return SimplicialComplex(poset.elements, faces)
    return complex_


def inclusion_poset(keys, masks):
    """Keys ordered by inclusion of their distinct int masks, ``masks[i]`` for key i.

    Below mask m lie the elements with no bit outside m: all elements but the
    OR, over the bits outside m, of the index masks of those having that bit.
    Those index masks are the columns of the masks' binary strings, read with
    one transpose: last element first, so that element i is bit i.
    """
    width = max(masks, default=0).bit_length()
    rows = [bin(m)[2:].zfill(width) for m in reversed(masks)] if width else ()
    having = [int("".join(col), 2) for col in zip(*rows)][::-1]
    every = (1 << len(masks)) - 1
    below = []
    for i, m in enumerate(masks):
        outside = 1 << i
        for b in _bits(((1 << width) - 1) & ~m):
            outside |= having[b]
        below.append(every & ~outside)
    return Poset._from_below(keys, below)


def face_poset(complex_):
    """Faces of a simplicial complex ordered by inclusion, smallest first."""
    faces = sorted(complex_.faces, key=lambda f: (len(f), f))
    return inclusion_poset(faces, [sum(1 << v for v in f) for f in faces])


def quotient_poset(poset, key):
    """Poset of the fibres of ``key``; X <= Y iff some member of X is below one of Y.

    A fibre is the tuple of its members in index order, and fibres are
    ordered by least member.  The fibre relation is checked, not assumed: a
    fibre with one member below another, or a cycle of fibres, raises
    CycleError; a relation that is not transitive raises PosetError.
    """
    by_key = {}
    for i, x in enumerate(poset.elements):
        by_key.setdefault(key(x), []).append(i)
    fibres = list(by_key.values())
    fibre_of = {x: k for k, fibre in enumerate(fibres) for x in fibre}
    keys = [tuple(poset.elements[i] for i in fibre) for fibre in fibres]
    below = [0] * len(fibres)
    for k, fibre in enumerate(fibres):
        up = members = 0
        for x in fibre:
            up |= poset._above[x]
            members |= 1 << x
        if up & members:
            x = next(x for x in fibre if poset._above[x] & members)
            y = next(_bits(poset._above[x] & members))
            raise CycleError(
                "fibre %r has %r below %r"
                % (keys[k], poset.elements[x], poset.elements[y])
            )
        for y in _bits(up):
            below[fibre_of[y]] |= 1 << k
    return Poset._from_below(keys, below)


def product_of_chains(k, m):
    """Componentwise order on k chains of m elements each; m**k elements."""
    if k < 0 or m < 1:
        raise PosetError("need k >= 0 and m >= 1")
    elements = list(product(range(m), repeat=k))  # in lexicographic order, so
    steps = [m**pos for pos in reversed(range(k))]  # raising coordinate pos adds steps[pos]
    covers = [
        (i, i + step)
        for i, e in enumerate(elements)
        for x, step in zip(e, steps)
        if x + 1 < m
    ]
    return Poset(elements, covers)


def closure_image(poset, f):
    """Induced subposet on the image of a verified closure operator.

    ``f`` maps element keys to element keys and must be order-preserving,
    inflationary and idempotent; the first violated law raises
    ClosureLawError with a witness.
    """
    mapping = {x: f(x) for x in poset.elements}
    for x, y in mapping.items():
        if y not in poset._index:
            raise ClosureLawError("totality", (x, y))
    for x, y in mapping.items():
        if not poset.leq(x, y):
            raise ClosureLawError("inflationary", (x, y))
    for a, b in poset.covers:
        x, y = poset.elements[a], poset.elements[b]
        if not poset.leq(mapping[x], mapping[y]):
            raise ClosureLawError("order-preserving", (x, y))
    for x, y in mapping.items():
        if mapping[y] != y:
            raise ClosureLawError("idempotent", (x, y))
    image = sorted(set(mapping.values()), key=poset.index)
    return poset.subposet(image)


# ---------------------------------------------------------------------------
# Isomorphism certificates


def check_isomorphism(p, q, mapping):
    """True iff ``mapping`` (P-key -> Q-key) preserves and reflects covers."""
    if len(p.elements) != len(q.elements):
        return False
    if set(mapping) != set(p.elements) or set(mapping.values()) != set(q.elements):
        return False
    image = [q.index(mapping[x]) for x in p.elements]
    return {(image[a], image[b]) for a, b in p.covers} == q.covers

