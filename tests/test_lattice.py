"""Lattice graphs, hypercubic generators, twists, dangling boundaries."""

import itertools
import random
import re
import tracemalloc
from collections import deque
from fractions import Fraction
from types import SimpleNamespace

import pytest

from gaugecount import (
    BadDims,
    BadParams,
    GroupEndomorphism,
    LatticeGraph,
    NotAHomomorphism,
    ParseError,
    PureGauge,
    TwistSpec,
    conjugacy_classes,
    count,
    cyclic_group,
    dangling_boundary_extension,
    emit_edge_list,
    identity_endo,
    inversion_endo,
    lattice_chain,
    lattice_hypercubic,
    make_twist,
    parse_edge_list,
    twist_on_wrap_edges,
)
from gaugecount.lattice import component_labels


def test_lattice_chain():
    L = lattice_chain(3)
    assert (L.site_count, L.edge_count) == (3, 2)
    assert L.edges == ((0, 1), (1, 2))
    P = lattice_chain(3, periodic=True)
    assert (P.site_count, P.edge_count) == (3, 3)
    assert P.edges[2] == (2, 0)
    assert P.wrap_edges == ((2,),)


def test_hypercubic_open_and_periodic():
    open22 = lattice_hypercubic((2, 2), periodic=False)
    assert (open22.site_count, open22.edge_count) == (4, 4)
    torus22 = lattice_hypercubic((2, 2), periodic=True)
    assert (torus22.site_count, torus22.edge_count) == (4, 8)
    assert len(torus22.wrap_edges) == 2
    assert all(len(w) == 2 for w in torus22.wrap_edges)
    mixed = lattice_hypercubic((2, 3), periodic=(True, False))
    assert mixed.edge_count == 3 * 2 + 2 * 2  # wraps in dim 0 only
    assert len(mixed.wrap_edges[0]) == 3 and len(mixed.wrap_edges[1]) == 0


def test_hypercubic_extent_one_gives_self_loops():
    L = lattice_hypercubic((1, 1), periodic=True)
    assert (L.site_count, L.edge_count) == (1, 2)
    assert all(e == (0, 0) for e in L.edges)


def test_hypercubic_errors():
    with pytest.raises(BadDims):
        lattice_hypercubic((0, 2))
    with pytest.raises(BadDims):
        lattice_hypercubic(())
    with pytest.raises(BadDims):
        lattice_hypercubic((2, 2), periodic=(True,))


def test_lattice_graph_validation():
    with pytest.raises(BadParams):
        LatticeGraph(2, ((0, 2),))
    with pytest.raises(BadParams):
        LatticeGraph(-1, ())


@pytest.mark.parametrize("bad", [1.0, Fraction(1), "1", None])
def test_lattice_graph_rejects_non_integer_endpoints(bad):
    for edges, i in ((((0, 1), (bad, 2)), 1), (((0, 1), (1, 2), (2, bad)), 2)):
        with pytest.raises(BadParams, match=rf"^link {i} endpoint is not an integer: "):
            LatticeGraph(3, edges)
    with pytest.raises(BadParams, match=r"^link 1 endpoint out of range: \(-1, 0\)$"):
        LatticeGraph(3, ((0, 1), (-1, 0)))


@pytest.mark.parametrize("bad", [5, (0, 1, 2), (1,), None])
def test_lattice_graph_refuses_links_that_are_not_pairs(bad):
    for edges, i in (((bad,), 0), (((0, 1), (1, 2), bad), 2), (((0, 1), bad, bad), 1)):
        with pytest.raises(BadParams, match=rf"^link {i} is not a pair: "):
            LatticeGraph(3, edges)


def test_connected_components():
    assert component_labels(5, [(0, 1), (3, 4)]) == ([0, 0, 1, 2, 2], [0, 2, 3])
    for L, n in ((lattice_chain(4), 1), (LatticeGraph(3, ((0, 1),)), 2),
                 (LatticeGraph(1, ()), 1), (LatticeGraph(0, ()), 0)):
        assert len(component_labels(L.site_count, L.edges)[1]) == n
        assert L.components == tuple(map(tuple, component_labels(L.site_count, L.edges)))


def _hypercubic_reference(dims, periodic):
    """Links site by site from each site's coordinates, as the spec reads."""
    d, volume = len(dims), 1
    for n in dims:
        volume *= n
    strides = [1] * d
    for k in range(d - 2, -1, -1):
        strides[k] = strides[k + 1] * dims[k + 1]
    edges, wraps = [], [[] for _ in dims]
    for site in range(volume):
        coord = [site // strides[k] % dims[k] for k in range(d)]
        for k in range(d):
            if coord[k] + 1 < dims[k]:
                edges.append((site, site + strides[k]))
            elif periodic[k]:
                wraps[k].append(len(edges))
                edges.append((site, site - coord[k] * strides[k]))
    tags = "".join("p" if p else "o" for p in periodic)
    name = f"hyper{'x'.join(map(str, dims))}_{tags}"
    return tuple(edges), tuple(map(tuple, wraps)), name


def _hypercubic_grid(max_d=4):
    """Every (dims, periodic) with up to max_d dimensions of extent 1, 2, 3 or 5."""
    for d in range(1, max_d + 1):
        for dims in itertools.product((1, 2, 3, 5), repeat=d):
            for periodic in itertools.product((False, True), repeat=d):
                yield dims, periodic


def test_hypercubic_matches_per_site_reference():
    for dims, periodic in _hypercubic_grid():
        L = lattice_hypercubic(dims, periodic)
        edges, wraps, name = _hypercubic_reference(dims, periodic)
        assert (L.edges, L.wrap_edges, L.name) == (edges, wraps, name), (dims, periodic)


def test_shape_kept_lattice_equals_its_explicit_links():
    """Counts and components come from the shape alone; the links, built on
    first read, give a lattice equal to the one built from the reference pairs."""
    for dims, periodic in _hypercubic_grid():
        L = lattice_hypercubic(dims, periodic)
        edges, wraps, name = _hypercubic_reference(dims, periodic)
        P = LatticeGraph(L.site_count, edges)
        assert (L.site_count, L.edge_count) == (P.site_count, P.edge_count), (dims, periodic)
        assert L.components == tuple(map(tuple, component_labels(P.site_count, edges)))
        assert not {"tails", "heads", "wrap_edges"} & L.__dict__.keys()
        assert L == P and hash(L) == hash(P)
        assert (L.edge_count, L.wrap_edges, L.name) == (len(edges), wraps, name)
        assert repr(L) == repr(LatticeGraph(L.site_count, edges, name, wraps))


def test_shape_kept_links_are_checked_when_built(monkeypatch):
    L = lattice_hypercubic((2,), periodic=False)
    monkeypatch.setattr("gaugecount.lattice._hypercubic_links",
                        lambda dims, periodic: ((0,), (2,), ((),)))
    with pytest.raises(BadParams, match=r"^link 0 endpoint out of range: \(0, 2\)$"):
        L.heads
    assert "heads" not in L.__dict__


def _components_reference(site_count, edges):
    """Members by breadth-first search, ordered by the root that the union
    rule (the head's root joins under the tail's) leaves each component."""
    adj = [[] for _ in range(site_count)]
    for t, h in edges:
        adj[t].append(h)
        adj[h].append(t)
    parent = list(range(site_count))

    def root(x):
        return x if parent[x] == x else root(parent[x])

    for t, h in edges:
        parent[root(h)] = root(t)
    seen, comps = set(), []
    for s in range(site_count):
        if s not in seen:
            seen.add(s)
            queue, members = deque([s]), []
            while queue:
                x = queue.popleft()
                members.append(x)
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            comps.append(tuple(sorted(members)))
    return tuple(sorted(comps, key=lambda c: root(c[0])))


def test_components_match_bfs_reference_on_random_multigraphs():
    rng = random.Random(20261019)
    for _ in range(400):
        V = rng.choice((0, 1, 2, 5, 12, 40))
        edges = []
        for _ in range(rng.randint(0, 2 * V) if V else 0):
            t = rng.randrange(V)
            h = rng.choice((t, rng.randrange(V), min(t + 1, V - 1)))  # loops, chains
            edges += [(t, h)] * rng.choice((1, 1, 2))  # parallel links
        comps = _components_reference(V, edges)
        labels, roots = component_labels(V, edges)
        assert len(roots) == len(comps)
        for k, members in enumerate(comps):
            assert roots[k] in members and all(labels[x] == k for x in members)


def test_make_twist_validation():
    G = cyclic_group(4)
    L = lattice_chain(2, periodic=True)
    tw = make_twist(L, inversion_endo(G), [1])
    assert tw.maps == {1: inversion_endo(G)}
    with pytest.raises(BadParams):
        make_twist(L, inversion_endo(G), [5])
    bogus = GroupEndomorphism(G, (0, 2, 1, 3))
    with pytest.raises(NotAHomomorphism):
        make_twist(L, bogus, [0])


def test_twist_spec_checks_its_maps():
    G = cyclic_group(4)
    L = lattice_chain(2, periodic=True)
    bogus = GroupEndomorphism(G, (0, 2, 1, 3))
    with pytest.raises(NotAHomomorphism):
        TwistSpec({1: bogus})
    # the extension builds its own TwistSpec from whatever maps it is given
    with pytest.raises(NotAHomomorphism):
        dangling_boundary_extension(L, (0,), G, SimpleNamespace(maps={1: bogus}))


def test_wrap_edges_come_from_the_shape():
    """Wraparound indices read before the links match the reference, and
    leave the link tuples unbuilt until they are read."""
    for dims, periodic in _hypercubic_grid(3):
        L = lattice_hypercubic(dims, periodic)
        edges, wraps, _ = _hypercubic_reference(dims, periodic)
        assert L.wrap_edges == wraps, (dims, periodic)
        assert not {"tails", "heads"} & L.__dict__.keys()
        assert L.edges == edges and L.wrap_edges == wraps


def test_twist_on_wrap_edges():
    G = cyclic_group(3)
    torus = lattice_hypercubic((2, 2), periodic=True)
    tw = twist_on_wrap_edges(torus, inversion_endo(G), 0)
    assert set(tw.maps) == set(torus.wrap_edges[0])
    # an open dimension has no wraparound links: twisting them is refused
    cylinder = lattice_hypercubic((3, 3), (False, True))
    with pytest.raises(BadParams, match="^dimension 0 is open: it has no wraparound links"):
        twist_on_wrap_edges(cylinder, inversion_endo(G), 0)
    assert set(twist_on_wrap_edges(cylinder, inversion_endo(G), 1).maps) == {5, 11, 14}
    with pytest.raises(BadParams):
        twist_on_wrap_edges(torus, inversion_endo(G), 5)
    bare = LatticeGraph(2, ((0, 1),))
    with pytest.raises(BadParams):
        twist_on_wrap_edges(bare, identity_endo(G), 0)


def test_dangling_boundary_extension():
    G = cyclic_group(3)
    L = lattice_chain(2)
    L2, tw = dangling_boundary_extension(L, (0, 1), G)
    assert L2.site_count == 3
    assert L2.edges == ((0, 1), (0, 2), (1, 2))
    assert sorted(tw.maps) == [1, 2]
    assert all(endo.image == (G.identity,) * G.order for endo in tw.maps.values())
    same, empty = dangling_boundary_extension(L, (), G)
    assert same is L and not empty.maps
    with pytest.raises(BadParams):
        dangling_boundary_extension(L, (5,), G)
    # a twist on L keeps its maps; the sink links join them
    inv = inversion_endo(G)
    L3, tw3 = dangling_boundary_extension(L, (1,), G, make_twist(L, inv, [0]))
    assert L3.edges == ((0, 1), (1, 2))
    assert tw3.maps[0] is inv and tw3.maps[1].image == (G.identity,) * G.order
    # a twist naming a link beyond L (a sink link of the extension) is refused
    with pytest.raises(BadParams):
        dangling_boundary_extension(L, (1,), G, tw)


def test_shape_kept_extension_equals_the_one_from_ends():
    """A lattice kept as its shape extends to one kept as its shape: equal, in
    hash and repr too, to the extension of a copy built from pairs."""
    rng = random.Random(20261020)
    G = cyclic_group(2)
    for dims, periodic in _hypercubic_grid(3):
        L = lattice_hypercubic(dims, periodic)
        attach = rng.choices(range(L.site_count), k=rng.randint(1, L.site_count + 2))
        S, sinks = dangling_boundary_extension(L, attach, G)
        P = LatticeGraph(L.site_count, _hypercubic_reference(dims, periodic)[0], L.name,
                         L.wrap_edges)
        R, ref_sinks = dangling_boundary_extension(P, attach, G)
        assert "_shape" in S.__dict__ and "_shape" not in R.__dict__
        assert (S.site_count, S.edge_count, S.name) == (R.site_count, R.edge_count, R.name)
        assert S.components == R.components and sinks == ref_sinks
        assert not {"tails", "heads", "wrap_edges"} & S.__dict__.keys()
        assert S == R and hash(S) == hash(R) and repr(S) == repr(R)
        assert (S.tails, S.heads) == (R.tails, R.heads) == (
            L.tails + tuple(attach), L.heads + (L.site_count,) * len(attach))


def test_shape_kept_extension_reuses_the_wraparound_tables(monkeypatch):
    """An extension of a lattice that has read its wraparound tables holds the same
    tables and works none out again; one whose lattice has not works them out itself."""
    from gaugecount import lattice

    calls = []
    plain = lattice._hypercubic_wraps

    def spy(dims, periodic):
        calls.append(dims)
        return plain(dims, periodic)
    monkeypatch.setattr(lattice, "_hypercubic_wraps", spy)
    G = cyclic_group(2)
    for dims, periodic in (((4, 4), True), ((3, 5), (False, True)), ((2, 3, 4), True)):
        L = lattice_hypercubic(dims, periodic)
        tw = twist_on_wrap_edges(L, inversion_endo(G), len(dims) - 1)  # reads them
        assert calls == [dims]
        S, _ = dangling_boundary_extension(L, (0, 1, 1), G, tw)
        assert S.wrap_edges is L.wrap_edges and S._wrap_ends is L._wrap_ends
        # a count with a wrap twist and a dangling row pays for them once
        count(G, L, PureGauge(), twist=tw, dangling_attach=(0, 1, 1))
        assert calls == [dims] and not {"tails", "heads"} & S.__dict__.keys()
        fresh, _ = dangling_boundary_extension(lattice_hypercubic(dims, periodic), (0,), G)
        assert fresh.wrap_edges == L.wrap_edges and calls == [dims, dims]
        calls.clear()


@pytest.mark.parametrize("bad, message", [(9, "attach site 9 out of range"),
                                          (-1, "attach site -1 out of range"),
                                          ("1", "attach site '1' is not an integer"),
                                          (1.0, "attach site 1.0 is not an integer")])
def test_bad_attach_site_is_named(bad, message, monkeypatch):
    """Each attach site is checked on its own; the links copied from the
    lattice, checked when it was built, are not checked again."""
    G = cyclic_group(3)
    checks = []
    monkeypatch.setattr("gaugecount.lattice._check_links",
                        lambda n, links: checks.append(len(list(links))))
    for L in (lattice_hypercubic((3, 3)), LatticeGraph._from_ends(9, (0, 5), (4, 8))):
        with pytest.raises(BadParams, match=f"^{re.escape(message)}$"):
            dangling_boundary_extension(L, (0, bad), G)
        L2, _ = dangling_boundary_extension(L, (0, 8), G)
        assert L2.edge_count == L.edge_count + 2
    assert checks == [2]  # the link pairs given to _from_ends, and no others


@pytest.mark.parametrize("bad", ["1", 1.0])
def test_non_integer_attach_site_is_refused(bad):
    G = cyclic_group(3)
    with pytest.raises(BadParams, match=rf"^attach site {bad!r} is not an integer$"):
        count(G, lattice_chain(3), PureGauge(), dangling_attach=(bad,))


def test_edge_list_roundtrip():
    L = lattice_hypercubic((2, 2), periodic=True)
    text = emit_edge_list(L, twisted=frozenset({1, 3}))
    back, marked = parse_edge_list(text)
    assert back.site_count == L.site_count
    assert back.edges == L.edges
    assert marked == frozenset({1, 3})


def test_edge_list_parse_errors():
    with pytest.raises(ParseError) as e:
        parse_edge_list("")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        parse_edge_list("graph 2\n0 1\n")
    with pytest.raises(ParseError) as e:
        parse_edge_list("lattice 2\n0 1\n0 x\n")
    assert e.value.line == 3
    with pytest.raises(ParseError):
        parse_edge_list("lattice 2\n0 3\n")
    with pytest.raises(ParseError):
        parse_edge_list("lattice 2\n0 1 backwards\n")


def test_edge_list_tolerates_blank_lines():
    back, marked = parse_edge_list("lattice 2\n\n0 1 twisted\n\n")
    assert back.edges == ((0, 1),)
    assert marked == frozenset({0})


# ---------------------------------------------------------------------------
# the two ways in: pairs, checked link by link, and the builders' end tuples

def _assert_pairs_agree(L):
    P = LatticeGraph(L.site_count, L.edges)
    assert P == L and hash(P) == hash(L)
    assert (P.tails, P.heads) == (L.tails, L.heads) == (
        tuple(t for t, _ in L.edges), tuple(h for _, h in L.edges))


def test_both_constructors_agree():
    rng = random.Random(20261019)
    for _ in range(200):
        V = rng.choice((0, 1, 2, 5, 12))
        edges = [(rng.randrange(V), rng.randrange(V)) for _ in range(rng.randint(0, 3 * V))]
        L = LatticeGraph._from_ends(V, [t for t, _ in edges], [h for _, h in edges])
        assert L.edges == tuple(edges) and L.edge_count == len(edges)
        _assert_pairs_agree(L)
    G = cyclic_group(2)
    for dims, periodic in _hypercubic_grid():
        L = lattice_hypercubic(dims, periodic)
        _assert_pairs_agree(L)
        if len(dims) == 4:  # the extension and the text round trip up to 125 sites
            continue
        attach = rng.sample(range(L.site_count), rng.randint(1, L.site_count))
        L2, _ = dangling_boundary_extension(L, attach, G)
        assert L2.edges == L.edges + tuple((a, L.site_count) for a in attach)
        _assert_pairs_agree(L2)
        marks = frozenset(rng.sample(range(L2.edge_count), min(3, L2.edge_count)))
        back, marked = parse_edge_list(emit_edge_list(L2, marks))
        assert (back, hash(back), marked) == (L2, hash(L2), marks)
    with pytest.raises(BadParams, match="^negative site count -1$"):
        LatticeGraph._from_ends(-1, (), ())


@pytest.mark.parametrize("tails, heads", [
    ((0, 1.0), (1, 2)), ((0, 1), (1, "2")), ((0, None), (1, 2)), ((0, 1), (3, 0)),
    ((0, -1), (1, 0)), ((0, 1, 2), (1, 2)), ((0, 1), (1, 2, 0)),
])
def test_end_constructor_names_the_link_the_pair_constructor_names(tails, heads):
    with pytest.raises(BadParams) as pairs:
        LatticeGraph(3, itertools.zip_longest(tails, heads))
    with pytest.raises(BadParams, match="^link ") as ends:
        LatticeGraph._from_ends(3, tails, heads)
    assert str(ends.value) == str(pairs.value)


def test_square_lattice_holds_two_end_tuples():
    """128x128 periodic: 32768 links as two tuples of shared ints, against
    4.13 MB live and a 5.04 MB build+count peak for pairs of fresh ints."""
    G = cyclic_group(2)
    classes = conjugacy_classes(G)
    tracemalloc.start()
    try:
        L = lattice_hypercubic((128, 128))
        live = tracemalloc.get_traced_memory()[0]
        del L
        tracemalloc.reset_peak()
        count(G, lattice_hypercubic((128, 128)), PureGauge(), classes=classes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert live <= 1.5e6
    assert peak <= 2.5e6
