"""Lattice graphs, hypercubic generators, twists, dangling boundaries."""

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


def test_connected_components():
    comps = connected_components(5, [(0, 1), (3, 4)])
    assert comps == ((0, 1), (2,), (3, 4))
    assert is_connected(lattice_chain(4))
    assert not is_connected(LatticeGraph(3, ((0, 1),)))
    assert is_connected(LatticeGraph(1, ()))
    assert is_connected(LatticeGraph(0, ()))


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
