"""Lattice graphs, hypercubic generators, twists, dangling boundaries."""

import itertools
import random
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
    TwistSpec,
    connected_components,
    constant_identity_endo,
    cyclic_group,
    dangling_boundary_extension,
    emit_edge_list,
    identity_endo,
    inversion_endo,
    is_connected,
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


def test_connected_components():
    comps = connected_components(5, [(0, 1), (3, 4)])
    assert comps == ((0, 1), (2,), (3, 4))
    assert is_connected(lattice_chain(4))
    assert not is_connected(LatticeGraph(3, ((0, 1),)))
    assert is_connected(LatticeGraph(1, ()))
    assert is_connected(LatticeGraph(0, ()))


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


def test_hypercubic_matches_per_site_reference():
    for d in range(1, 5):
        for dims in itertools.product((1, 2, 3, 5), repeat=d):
            for periodic in itertools.product((False, True), repeat=d):
                L = lattice_hypercubic(dims, periodic)
                edges, wraps, name = _hypercubic_reference(dims, periodic)
                assert (L.edges, L.wrap_edges, L.name) == (edges, wraps, name), (dims, periodic)


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
        comps = connected_components(V, edges)
        assert comps == _components_reference(V, edges)
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


def test_twist_on_wrap_edges():
    G = cyclic_group(3)
    torus = lattice_hypercubic((2, 2), periodic=True)
    tw = twist_on_wrap_edges(torus, inversion_endo(G), 0)
    assert set(tw.maps) == set(torus.wrap_edges[0])
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
    assert all(endo.is_constant_identity() for endo in tw.maps.values())
    same, empty = dangling_boundary_extension(L, (), G)
    assert same is L and not empty.maps
    with pytest.raises(BadParams):
        dangling_boundary_extension(L, (5,), G)
    # a twist on L keeps its maps; the sink links join them
    inv = inversion_endo(G)
    L3, tw3 = dangling_boundary_extension(L, (1,), G, make_twist(L, inv, [0]))
    assert L3.edges == ((0, 1), (1, 2))
    assert tw3.maps[0] is inv and tw3.maps[1].is_constant_identity()
    # a twist naming a link beyond L (a sink link of the extension) is refused
    with pytest.raises(BadParams):
        dangling_boundary_extension(L, (1,), G, tw)


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
