import json
import random
import re
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polystrata import homology
from polystrata.cli import EXPORTS
from polystrata.compositions import c_lambda_poset, coarsening_poset
from polystrata.homology import (
    HomologyResult,
    SimplicialComplex,
    _chain_table,
    _face_table,
    _faces,
    simplicial_homology,
    sphere_homology,
)
from polystrata.permutahedron import permutahedron_face_poset, young_orbit_key
from polystrata.posets import (
    ClosureLawError,
    CycleError,
    Poset,
    PosetError,
    _bits,
    check_isomorphism,
    closure_image,
    face_poset,
    inclusion_poset,
    order_complex,
    product_of_chains,
    quotient_poset,
)
from polystrata.verify import partitions_of


def divisor_poset(n):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return Poset.from_le(divisors, lambda x, y: y % x == 0)


class TestPosetConstruction:
    def test_duplicate_keys_rejected(self):
        with pytest.raises(PosetError):
            Poset(("a", "a"), set())

    def test_reflexive_cover_rejected(self):
        with pytest.raises(PosetError):
            Poset(("a", "b"), {(0, 0)})

    def test_redundant_cover_rejected(self):
        with pytest.raises(PosetError, match=re.escape("redundant cover ('a', 'c')")):
            Poset("abc", {(0, 1), (1, 2), (0, 2)})
        # implied only through a longer path, above a least element
        covers = {(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)}
        with pytest.raises(PosetError, match=re.escape("redundant cover ('a', 'd')")):
            Poset("xabcd", covers)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Poset("abc", [(0.9, 1.7)]),
            lambda: Poset("ab", [(0, 1.0)]),
        ],
        ids=["cover", "integral-float-cover"],
    )
    def test_non_integer_index_refused(self, build):
        # operator.index, not int(): (0.9, 1.7) must not become the cover (0, 1)
        with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
            build()

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            Poset("ab", {(0, 1), (1, 0)})

    def test_from_le_transitive_reduction(self):
        poset = divisor_poset(12)
        assert sorted(poset.covers) == sorted(
            {
                (poset.index(a), poset.index(b))
                for a, b in [(1, 2), (1, 3), (2, 4), (2, 6), (3, 6), (4, 12), (6, 12)]
            }
        )

    def test_from_le_rejects_non_transitive_relation(self):
        # a <= b and b <= c, but not a <= c
        pairs = {("a", "b"), ("b", "c")}
        with pytest.raises(PosetError, match="not transitive"):
            Poset.from_le("abc", lambda x, y: x == y or (x, y) in pairs)

    def test_from_le_rejects_non_antisymmetric_relation(self):
        with pytest.raises(CycleError):
            Poset.from_le("abc", lambda x, y: x == y or {x, y} == {"a", "b"})

    @given(st.lists(st.integers(0, 255), max_size=40, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_inclusion_poset_matches_from_le(self, masks):
        keys = ["k%d" % m for m in masks]
        m = dict(zip(keys, masks))
        reference = Poset.from_le(keys, lambda x, y: not m[x] & ~m[y])
        assert inclusion_poset(keys, masks).covers == reference.covers

    @given(st.lists(st.integers(0, 127), max_size=24, unique=True), st.booleans())
    @example([], False)
    @example([0], False)
    @example([1, 0], False)
    @example([0b10, 0b1, 0, 0b11], False)
    @settings(max_examples=80, deadline=None)
    def test_inclusion_poset_covers_are_the_hasse_diagram(self, masks, by_positions):
        # the positions-lex order of c_lambda_d_poset, not by size: 0b100
        # comes after the larger 0b011
        if by_positions:
            masks.sort(key=lambda m: [b for b in range(7) if m >> b & 1])

        def below(a, b):
            return a != b and not a & ~b

        hasse = {
            (i, j)
            for i, a in enumerate(masks)
            for j, b in enumerate(masks)
            if below(a, b) and not any(below(a, c) and below(c, b) for c in masks)
        }
        assert inclusion_poset(masks, masks).covers == hasse

    def test_chain_and_antichain(self):
        chain = Poset.chain("abc")
        assert chain.lt("a", "c")
        anti = Poset("abc", ())
        assert not anti.covers


class TestPosetQueries:
    def test_order_queries(self):
        poset = divisor_poset(12)
        assert poset.leq(2, 2)
        assert poset.lt(2, 12)
        assert not poset.lt(4, 6)
        assert {y for y in poset.elements if poset.lt(4, y)} == {12}

    def test_extremes_and_heights(self):
        poset = divisor_poset(12)
        elements = poset.elements
        assert [x for x in elements if not any(poset.lt(y, x) for y in elements)] == [1]
        assert [x for x in elements if not any(poset.lt(x, y) for y in elements)] == [12]
        heights = dict(zip(poset.elements, poset.heights()))
        assert heights[1] == 0 and heights[12] == 3

    def test_dual_and_subposet(self):
        poset = divisor_poset(12)
        dual = poset.dual()
        assert dual.lt(12, 1)
        sub = poset.subposet([1, 4, 12])
        assert sub.covers == {(sub.index(1), sub.index(4)), (sub.index(4), sub.index(12))}

    def test_exports(self):
        import json

        poset = Poset.chain("ab")
        data = json.loads(poset.to_json())
        assert data["covers"] == [[0, 1]]
        dot = poset.to_dot()
        assert "n0 -> n1;" in dot and dot.startswith("digraph")


class TestOrderComplex:
    def test_chain_gives_full_simplex(self):
        complex_ = order_complex(Poset.chain("abc"))
        assert max(len(f) for f in complex_.faces) == 3
        assert simplicial_homology(complex_) == HomologyResult.of({})

    def test_antichain_gives_points(self):
        complex_ = order_complex(Poset("ab", ()))
        assert simplicial_homology(complex_) == sphere_homology(0)

    def test_boolean_lattice_minus_bounds_is_sphere(self):
        # proper part of the subset lattice of [k]: order complex is S^(k-2)
        for k in (2, 3, 4):
            subsets = [
                frozenset(s)
                for s in _powerset(range(k))
                if 0 < len(s) < k
            ]
            poset = Poset.from_le(subsets, lambda x, y: x <= y)
            assert simplicial_homology(order_complex(poset)) == sphere_homology(k - 2)


def comparable_subsets(poset):
    """Oracle: every nonempty set of pairwise comparable elements, as sorted
    index tuples, grown one element at a time by comparing every pair."""
    keys = poset.elements
    comparable = [[poset.leq(x, y) or poset.leq(y, x) for y in keys] for x in keys]
    found = set()
    level = [(i,) for i in range(len(keys))]
    while level:
        found.update(level)
        level = [
            s + (j,)
            for s in level
            for j in range(s[-1] + 1, len(keys))
            if all(comparable[i][j] for i in s)
        ]
    return found


def is_linear_extension(poset):
    """True iff element i < element j implies i < j."""
    keys = poset.elements
    return not any(poset.lt(y, x) for i, x in enumerate(keys) for y in keys[i + 1 :])


class TestOrderComplexOracle:
    def test_random_small_posets(self):
        rng = random.Random(13)
        for _ in range(80):
            poset = random_poset(rng, rng.randint(0, 9), rng.random())
            for p in (poset, relabeled(rng, poset), poset.dual()):
                assert order_complex(p).faces == comparable_subsets(p)

    @pytest.mark.parametrize("n", range(7))
    def test_chains_and_antichains(self, n):
        chain, antichain = Poset.chain(range(n)), Poset(range(n), ())
        assert order_complex(chain).faces == comparable_subsets(chain)
        assert len(order_complex(chain).faces) == 2**n - 1
        assert order_complex(antichain).faces == {(i,) for i in range(n)}

    def test_dual_c_lambda_posets(self):
        # reversing C_lambda's covers leaves index order no linear extension,
        # so its chains take the sorting path
        unsorted = 0
        for weight in range(1, 7):
            for partition in partitions_of(weight):
                dual = c_lambda_poset(partition).dual()
                unsorted += not is_linear_extension(dual)
                assert order_complex(dual).faces == comparable_subsets(dual)
        assert unsorted


# RP^2 with six vertices: the antipodal quotient of the icosahedron
RP2_FACETS = [
    (0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
    (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5),
]


def table_posets():
    """Named posets of every kind whose order complex the package builds."""
    rp2 = SimplicialComplex.generated(range(6), RP2_FACETS)
    once = face_poset(rp2)  # its order complex: the barycentric subdivision
    posets = {
        "chain": Poset.chain(range(5)),
        "antichain": Poset(range(4), ()),
        "empty": Poset((), ()),
        "rp2-faces": once,
        "rp2-once-faces": face_poset(order_complex(once)),
        "dual-c-lambda": c_lambda_poset((1, 2, 2)).dual(),
    }
    for partition in [(1,), (1, 1), (1, 2), (1, 1, 2), (1, 2, 3), (1, 1, 2, 2)]:
        name = ",".join(map(str, partition))
        posets["c-lambda-" + name] = c_lambda_poset(partition)
        posets["coarsening-" + name] = coarsening_poset(partition)
    return posets


class TestOrderComplexTable:
    @pytest.mark.parametrize("name", table_posets())
    def test_table_matches_given_faces(self, name):
        # the table grown from the chains against the one built from the same
        # faces handed over from outside
        poset = table_posets()[name]
        grown = order_complex(poset)
        given = SimplicialComplex(grown.vertices, grown.faces)
        for complex_ in (grown, given):
            last, facets, starts = complex_._table
            cells = _faces(complex_._table)
            assert cells[0] == () and facets[0] == ()
            assert last[1:] == [cell[-1] for cell in cells[1:]]
            assert starts == [0] + [
                sum(len(cell) < size for cell in cells) for size in range(1, len(starts))
            ]
            assert set(cells[1:]) == grown.faces and len(cells) == len(grown.faces) + 1
            for c, fs in enumerate(facets):
                assert [cells[f] for f in fs] == [
                    cells[c][:k] + cells[c][k + 1 :] for k in range(len(cells[c]))
                ]
        # both list each level by parent cell, then last vertex
        assert grown._table == given._table
        assert simplicial_homology(grown) == simplicial_homology(given)
        assert is_linear_extension(poset) == (name != "dual-c-lambda")


def chain_levels(up):
    """Oracle: the chains of a poset with strict up-sets ``up``, level by level,
    each a tuple in chain order, listed by parent chain, then new last element."""
    level = [(j,) for j in range(len(up))]
    while level:
        yield level
        level = [c + (k,) for c in level for k in up[c[-1]]]


@st.composite
def drawn_posets(draw):
    """A random poset: empty, an antichain, a chain or between, in index order,
    relabeled or reversed (the last two mostly no linear extension)."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(0, 8))
    poset = random_poset(rng, n, draw(st.sampled_from((0.0, 0.3, 0.6, 1.0))))
    shape = draw(st.sampled_from(("index", "relabeled", "dual")))
    return {"index": poset, "relabeled": relabeled(rng, poset), "dual": poset.dual()}[shape]


class TestChainTable:
    @example(Poset((), ()))
    @example(Poset(range(3), ()))
    @example(Poset.chain(range(4)))
    @example(Poset.chain(range(4)).dual())
    @given(drawn_posets())
    @settings(max_examples=150, deadline=None)
    def test_matches_chains_fed_to_face_table(self, poset):
        up = [tuple(_bits(mask)) for mask in poset._above]
        assert _chain_table(up) == _face_table(len(up), chain_levels(up))

    @pytest.mark.parametrize(
        "up, present, missing",
        [
            ([(1,), (2,), ()], (0, 1, 2), (0, 2)),
            ([(1, 2), (2, 3), (3,), ()], (0, 1, 3), (0, 3)),
            ([(1, 2, 3), (2, 3), (3, 4), (4,), ()], (0, 2, 4), (0, 4)),
        ],
    )
    def test_non_transitive_up_sets_refused(self, up, present, missing):
        message = "not downward closed: %r present, %r missing" % (present, missing)
        with pytest.raises(ValueError, match=re.escape(message)):
            _chain_table(up)
        with pytest.raises(ValueError, match=re.escape(message)):
            _face_table(len(up), chain_levels(up))

    @given(st.lists(st.integers(0, 2**7 - 1), min_size=1, max_size=7))
    @settings(max_examples=100, deadline=None)
    def test_any_up_sets_refused_or_built_as_fed(self, masks):
        # each element i gets a random set of later ones, closed or not
        n = len(masks)
        up = [tuple(j for j in range(i + 1, n) if m >> j & 1) for i, m in enumerate(masks)]
        try:
            expected = _face_table(len(up), chain_levels(up))
        except ValueError as error:
            with pytest.raises(ValueError, match=re.escape(str(error))):
                _chain_table(up)
        else:
            assert _chain_table(up) == expected

    def test_critical_cells_of_c_lambda_12345(self, monkeypatch):
        seen = []
        coreduce = homology._coreduce
        monkeypatch.setattr(
            homology, "_coreduce", lambda *a: seen.append(coreduce(*a)) or seen[-1]
        )
        simplicial_homology(order_complex(c_lambda_poset((1, 2, 3, 4, 5))))
        (boundary,) = seen
        assert len(boundary) == 12

    def test_one_object_per_cell_number(self):
        # facet entries are items of one list of cell numbers, not a fresh
        # int per entry
        _, facets, _ = order_complex(c_lambda_poset((1, 1, 1, 2, 2, 2)))._table
        assert len({id(x) for row in facets for x in row}) <= len(facets)


def _powerset(items):
    from itertools import chain, combinations

    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


class TestQuotient:
    def test_quotient_by_trivial_action_is_isomorphic(self):
        # the identity key's fibres are the trivial action's orbits
        poset = divisor_poset(12)
        quotient = quotient_poset(poset, lambda x: x)
        orbit_to_element = {(x,): x for x in poset.elements}
        assert check_isomorphism(quotient, poset, orbit_to_element)

    def test_diamond_quotient_is_chain(self):
        # subsets of [2] ordered by inclusion, keyed by size
        subsets = [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]
        poset = Poset.from_le(subsets, lambda x, y: x <= y)
        quotient = quotient_poset(poset, len)
        assert quotient.elements == ((subsets[0],), tuple(subsets[1:3]), (subsets[3],))
        by_size = {fibre: "abc"[len(fibre[0])] for fibre in quotient.elements}
        assert check_isomorphism(quotient, Poset.chain("abc"), by_size)

    @pytest.mark.parametrize("t", [3, 4])
    def test_young_quotient_matches_from_le(self, t):
        # fibre X <= Y iff some member of X is <= some member of Y, brute force
        faces = permutahedron_face_poset(t)
        for partition in combinations_with_replacement(range(1, t + 1), t):
            quotient = quotient_poset(faces, young_orbit_key(partition))
            reference = Poset.from_le(
                quotient.elements,
                lambda xs, ys: any(faces.leq(x, y) for x in xs for y in ys),
            )
            assert quotient.covers == reference.covers, partition

    @given(st.integers(2, 30))
    @settings(max_examples=15, deadline=None)
    def test_trivial_quotient_property(self, n):
        poset = divisor_poset(n)
        quotient = quotient_poset(poset, lambda x: x)
        assert len(quotient) == len(poset)
        assert check_isomorphism(quotient, poset, {(x,): x for x in poset.elements})

    def test_fibre_below_itself_refused(self):
        # a < b < c with a and c in one fibre: named once, with both members
        key = {"a": 0, "b": 1, "c": 0}.get
        message = "fibre ('a', 'c') has 'a' below 'c'"
        with pytest.raises(CycleError, match=re.escape(message)):
            quotient_poset(Poset.chain("abc"), key)

    def test_two_fibre_cycle_refused(self):
        # a < b and c < d, keyed {a, d} and {b, c}: each fibre below the other
        key = {"a": 0, "b": 1, "c": 1, "d": 0}.get
        message = "relation is not antisymmetric: ('a', 'd') and ('b', 'c')"
        with pytest.raises(CycleError, match=re.escape(message)):
            quotient_poset(Poset("abcd", {(0, 1), (2, 3)}), key)

    def test_non_transitive_fibre_relation_refused(self):
        # a < {b, c} < d, but no member of {a} is below a member of {d}
        key = {"a": 0, "b": 1, "c": 1, "d": 2}.get
        with pytest.raises(PosetError, match="relation is not transitive"):
            quotient_poset(Poset("abcd", {(0, 1), (2, 3)}), key)


class TestProductOfChains:
    def test_sizes(self):
        assert len(product_of_chains(0, 3)) == 1
        assert len(product_of_chains(3, 2)) == 8

    def test_cover_count(self):
        poset = product_of_chains(2, 3)
        # covers: for each element, one per coordinate that can still grow
        assert len(poset.covers) == 2 * 3 * 2

    def test_boolean_case_matches_subset_lattice(self):
        cube = product_of_chains(3, 2)
        subsets = [frozenset(s) for s in _powerset(range(3))]
        lattice = Poset.from_le(subsets, lambda x, y: x <= y)
        ones = {e: frozenset(i for i, c in enumerate(e) if c) for e in cube.elements}
        assert check_isomorphism(cube, lattice, ones)

    @pytest.mark.parametrize("k, m", product(range(5), range(1, 5)))
    def test_matches_componentwise_order(self, k, m):
        poset = product_of_chains(k, m)
        elements = sorted(product(range(m), repeat=k))
        brute = Poset.from_le(elements, lambda x, y: all(map(int.__le__, x, y)))
        assert poset.elements == brute.elements and poset.covers == brute.covers

    def test_invalid_arguments(self):
        with pytest.raises(PosetError):
            product_of_chains(-1, 2)
        with pytest.raises(PosetError):
            product_of_chains(2, 0)


class TestClosureImage:
    def test_valid_closure(self):
        from math import lcm

        poset = divisor_poset(12)
        image = closure_image(poset, lambda x: lcm(x, 2))
        assert set(image.elements) == {2, 4, 6, 12}

    def test_identity_closure(self):
        poset = divisor_poset(12)
        image = closure_image(poset, lambda x: x)
        assert image.elements == poset.elements
        assert image.covers == poset.covers

    def test_non_inflationary_rejected(self):
        poset = Poset.chain((1, 2))
        with pytest.raises(ClosureLawError) as info:
            closure_image(poset, lambda x: 1)
        assert info.value.law == "inflationary"

    def test_non_idempotent_rejected(self):
        poset = Poset.chain((1, 2, 3))
        with pytest.raises(ClosureLawError) as info:
            closure_image(poset, lambda x: min(x + 1, 3))
        assert info.value.law == "idempotent"

    def test_closure_homotopy_equivalence(self):
        # the image of a closure operator carries the same order-complex homology
        subsets = [frozenset(s) for s in _powerset(range(3)) if s]
        poset = Poset.from_le(subsets, lambda x, y: x <= y)

        def add_zero(s):
            return s | {0}

        image = closure_image(poset, add_zero)
        assert simplicial_homology(order_complex(image)) == simplicial_homology(
            order_complex(poset)
        )


class TestIsomorphism:
    def test_non_isomorphic_same_size(self):
        chain = Poset.chain("abc")
        vee = Poset("xyz", {(0, 1), (0, 2)})
        assert not any(
            check_isomorphism(chain, vee, dict(zip("abc", images)))
            for images in permutations("xyz")
        )

    def test_check_isomorphism_rejects_bad_map(self):
        chain = Poset.chain("ab")
        other = Poset.chain("xy")
        assert not check_isomorphism(chain, other, {"a": "y", "b": "x"})
        assert check_isomorphism(chain, other, {"a": "x", "b": "y"})

    def test_divisors_of_30_onto_subsets(self):
        p = divisor_poset(30)
        subsets = [frozenset(s) for s in _powerset((2, 3, 5))]
        q = Poset.from_le(subsets, lambda x, y: x <= y)
        primes = {d: frozenset(x for x in (2, 3, 5) if d % x == 0) for d in p.elements}
        assert check_isomorphism(p, q, primes)

    @given(st.permutations(list(range(9))))
    @settings(max_examples=25, deadline=None)
    def test_relabeling_is_isomorphic(self, perm):
        # the same order with its elements stored in another index order
        p = product_of_chains(2, 3)
        at = {i: k for k, i in enumerate(perm)}
        q = Poset([p.elements[i] for i in perm], {(at[a], at[b]) for a, b in p.covers})
        assert check_isomorphism(p, q, {e: e for e in p.elements})


def random_poset(rng, n, density):
    """A random order on n elements: a random DAG, closed transitively."""
    below = [0] * n
    for i in range(n):
        for j in range(i):
            if rng.random() < density:
                below[i] |= 1 << j | below[j]
    return Poset._from_below(tuple(range(n)), below)


def relabeling(rng, poset):
    """A copy of ``poset`` on shuffled indices, and the map onto it."""
    perm = list(range(len(poset)))
    rng.shuffle(perm)
    q = Poset(tuple(range(len(poset))), {(perm[a], perm[b]) for a, b in poset.covers})
    return q, {poset.elements[i]: perm[i] for i in range(len(poset))}


def relabeled(rng, poset):
    return relabeling(rng, poset)[0]


def isomorphic_by(p, q, m):
    """Oracle: ``m`` is a bijection onto Q's keys matching the strict orders on all pairs."""
    return (
        set(m) == set(p.elements)
        and len(p) == len(q)
        and set(m.values()) == set(q.elements)
        and all(p.lt(x, y) == q.lt(m[x], m[y]) for x in p.elements for y in p.elements)
    )


MAP_KINDS = ("relabel", "swap", "merge", "missing", "extra", "other", "size")


@st.composite
def poset_maps(draw):
    """A random poset P, a poset Q and a key map P -> Q of one of ``MAP_KINDS``."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(MAP_KINDS))
    n = draw(st.integers({"swap": 2, "merge": 2, "missing": 1}.get(kind, 0), 7))
    density = draw(st.sampled_from((0.2, 0.35, 0.5)))
    p = random_poset(rng, n, density)
    if kind == "size":
        return kind, p, random_poset(rng, n + 1, density), {x: x for x in p.elements}
    q, m = relabeling(rng, random_poset(rng, n, density) if kind == "other" else p)
    if kind == "swap":
        x, y = rng.sample(range(n), 2)
        m[x], m[y] = m[y], m[x]
    elif kind == "merge":
        x, y = rng.sample(range(n), 2)
        m[x] = m[y]
    elif kind == "missing":
        del m[rng.randrange(n)]
    elif kind == "extra":
        m[n] = rng.randrange(n) if n else 0
    return kind, p, q, m


PAIR, CHAIN, POINT = Poset((0, 1), ()), Poset.chain((0, 1)), Poset((0,), ())


class TestIsomorphismOracle:
    """``check_isomorphism``, which compares covers, against the strict order on every pair."""

    # maps under which no cover tells the fault: each fails only through its keys
    @example(("merge", PAIR, PAIR, {0: 1, 1: 1}))
    @example(("extra", PAIR, PAIR, {0: 0, 1: 1, 2: 0}))
    @example(("size", PAIR, POINT, {0: 0, 1: 0}))
    @example(("size", POINT, PAIR, {0: 0}))
    # covers mapped into Q's covers but not onto them
    @example(("other", PAIR, CHAIN, {0: 0, 1: 1}))
    @given(poset_maps())
    @settings(max_examples=300, deadline=None)
    def test_random_small_posets(self, case):
        kind, p, q, m = case
        verdict = check_isomorphism(p, q, m)
        assert verdict == isomorphic_by(p, q, m)
        # a swap may hit an automorphism and another poset may be isomorphic
        if kind not in ("swap", "other"):
            assert verdict == (kind == "relabel")


def scan_from_below(elements, below):
    """Oracle: the full-scan transitive reduction, which ORs the down-set of
    every member of every down-set."""
    covers = []
    for i, down in enumerate(below):
        implied = 0
        for j in _bits(down):
            implied |= below[j]
        if implied >> i & 1:
            j = next(j for j in _bits(down) if below[j] >> i & 1)
            raise CycleError(
                "relation is not antisymmetric: %r and %r" % (elements[i], elements[j])
            )
        if implied & ~down:
            k = next(_bits(implied & ~down))
            raise PosetError(
                "relation is not transitive: %r is below %r only through others"
                % (elements[k], elements[i])
            )
        covers.extend((j, i) for j in _bits(down & ~implied))
    return Poset(elements, covers)


@st.composite
def relations(draw):
    """Strict down-sets as index masks: an order, an antichain, a chain or no
    element at all, in shuffled index order, perhaps with one pair flipped."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(("order", "antichain", "chain", "empty")))
    n = 0 if kind == "empty" else draw(st.integers(1, 9))
    density = {"antichain": 0.0, "chain": 1.0}.get(kind, 0.0)
    if kind == "order":
        density = draw(st.sampled_from((0.2, 0.4, 0.7)))
    order = random_poset(rng, n, density)
    perm = list(range(n))
    rng.shuffle(perm)
    below = [0] * n
    for i, mask in enumerate(order._above):
        for j in _bits(mask):
            below[perm[j]] |= 1 << perm[i]
    if n and draw(st.booleans()):
        below[rng.randrange(n)] ^= 1 << rng.randrange(n)
    return below


class CountingList(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


class TestReductionOracle:
    """``Poset._from_below``'s cover walk against the full scan."""

    @example([])
    @example([0b1])  # reflexive
    @example([0b10, 0b1])  # a 2-cycle
    @example([0, 0b1, 0b10])  # 0 < 1 < 2 without 0 < 2
    @example([0b110, 0, 0b10])  # the chain 1 < 2 < 0
    @example([0b100, 0b1, 0b10])  # a 3-cycle
    @given(relations())
    @settings(max_examples=400, deadline=None)
    def test_walk_matches_scan(self, below):
        elements = tuple("e%d" % i for i in range(len(below)))
        try:
            expected = scan_from_below(elements, below)
        except PosetError as error:
            with pytest.raises(PosetError) as raised:
                Poset._from_below(elements, below)
            assert type(raised.value) is type(error)
            assert str(raised.value) == str(error)
        else:
            poset = Poset._from_below(elements, below)
            assert poset.covers == expected.covers
            assert poset._above == expected._above

    def test_one_down_set_read_per_cover(self):
        poset = coarsening_poset((1, 1, 2, 3, 3, 4))
        below = [0] * len(poset)
        for i, mask in enumerate(poset._above):
            for j in _bits(mask):
                below[j] |= 1 << i
        counted = CountingList(below)
        assert Poset._from_below(poset.elements, counted).covers == poset.covers
        # one read per cover, where the full scan makes one per comparable pair
        # (12,436) and a renumbering of this extension two per element (1,822)
        assert counted.reads == len(poset.covers) == 3356


def sorted_pairs_json(poset):
    """Oracle: the JSON export with the cover pairs sorted."""
    return json.dumps(
        {
            "elements": [str(e) for e in poset.elements],
            "covers": sorted([a, b] for a, b in poset.covers),
        }
    )


def sorted_pairs_dot(poset, name="poset"):
    """Oracle: the DOT export with the cover pairs sorted."""
    lines = ["digraph %s {" % name, "  rankdir=BT;", "  node [shape=box];"]
    for i, e in enumerate(poset.elements):
        lines.append('  n%d [label="%s"];' % (i, str(e).replace('"', "'")))
    by_height = {}
    for i, h in enumerate(poset.heights()):
        by_height.setdefault(h, []).append(i)
    for h in sorted(by_height):
        lines.append("  { rank=same; %s }" % " ".join("n%d;" % i for i in by_height[h]))
    for a, b in sorted(poset.covers):
        lines.append("  n%d -> n%d;" % (a, b))
    lines.append("}")
    return "\n".join(lines) + "\n"


class TestOnePassConstruction:
    @example(Poset((), ()), random.Random(0))
    @example(Poset.chain(range(4)).dual(), random.Random(0))
    @given(drawn_posets(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_cover_containers_agree(self, poset, rng):
        pairs = list(poset.covers)
        with_duplicates = pairs + pairs[: len(pairs) // 2]
        rng.shuffle(with_duplicates)
        groups = [[] for _ in poset.elements]
        for a, b in sorted(poset.covers):
            groups[a].append(b)
        for covers in (with_duplicates, set(pairs), (pair for pair in pairs)):
            rebuilt = Poset(poset.elements, covers)
            assert rebuilt.covers == poset.covers
            assert rebuilt._up == groups
            assert rebuilt._above == poset._above

    @pytest.mark.parametrize(
        "covers, message",
        [
            ([(0, 0), (0, 5)], "cover index out of range"),
            ([(0, 5), (0, 0)], "cover index out of range"),
            ([(1, 1), (0, 3)], "reflexive cover (1, 1)"),
            ([(0, 3), (1, 1)], "reflexive cover (1, 1)"),
        ],
    )
    def test_out_of_range_and_reflexive_cover(self, covers, message):
        with pytest.raises(PosetError, match="^%s$" % re.escape(message)):
            Poset("abc", covers)

    @given(drawn_posets())
    @settings(max_examples=100, deadline=None)
    def test_exports_match_sorted_pairs(self, poset):
        assert poset.to_json() == sorted_pairs_json(poset)
        assert poset.to_dot("drawn") == sorted_pairs_dot(poset, "drawn")

    @pytest.mark.parametrize(
        "obj, options",
        [
            ("clambda", dict(parts="1,2,2,3")),
            ("clambda", dict(parts="1,1,2,5", d=2)),
            ("delta", dict(parts="1,2,2,3")),
            ("closure-poset", dict(parts="1,2", n=5)),
            ("permutahedron", dict(t=4)),
            ("iterated", dict(n=4, d=2)),
        ],
    )
    def test_cli_exports_match_sorted_pairs(self, obj, options):
        built = EXPORTS[obj][2](**{"parts": None, "n": None, "d": None, "t": None, **options})
        if obj == "delta":  # its JSON lists faces, and its DOT is its face poset's
            assert built.to_dot(obj) == sorted_pairs_dot(face_poset(built.complex), obj)
        else:
            assert built.to_json() == sorted_pairs_json(built)
            assert built.to_dot(obj) == sorted_pairs_dot(built, obj)
