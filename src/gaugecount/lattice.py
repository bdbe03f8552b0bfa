"""Lattice graphs: sites, directed links, twists, and dangling boundaries.

A lattice is an arbitrary multigraph.  Each link is a directed pair
(tail, head); a gauge transformation acts on the link variable as
g -> g_tail . g . g_head^-1, with the head factor routed through the twist
endomorphism on twisted links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby, repeat
from typing import Iterable, Mapping, Optional, Sequence

from .autos import GroupEndomorphism, constant_identity_endo, is_endomorphism
from .errors import BadDims, BadParams, NotAHomomorphism, ParseError
from .groups import FiniteGroup
from .textio import read_ints, read_records, write_records

Edge = tuple[int, int]


@dataclass(frozen=True)
class LatticeGraph:
    """Sites 0..site_count-1 and directed links; parallel links and loops allowed."""

    site_count: int
    edges: tuple[Edge, ...]
    name: str = field(default="", compare=False)
    # per-dimension wraparound link indices for hypercubic lattices
    wrap_edges: tuple[tuple[int, ...], ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.site_count < 0:
            raise BadParams(f"negative site count {self.site_count}")
        n = self.site_count
        for t, h in self.edges:
            try:  # t | h < 0 iff an endpoint is; TypeError unless both are integers
                if 0 <= t | h and t < n and h < n:
                    continue
                bad = "out of range"
            except TypeError:
                bad = "is not an integer"
            i = list(map(tuple, self.edges)).index((t, h))
            raise BadParams(f"link {i} endpoint {bad}: ({t}, {h})")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def lattice_chain(n_sites: int, periodic: bool = False) -> LatticeGraph:
    """A 1-dim chain; the periodic variant appends the wraparound link."""
    return lattice_hypercubic((n_sites,), (periodic,))


def lattice_hypercubic(dims: Sequence[int],
                       periodic: Sequence[bool] | bool = True) -> LatticeGraph:
    """Row-major hypercubic lattice with per-dimension periodicity.

    Periodic dimensions of extent 1 contribute self-loop links, keeping the
    link count at d*V for a fully periodic lattice.
    """
    dims = tuple(dims)
    if not dims or any(d < 1 for d in dims):
        raise BadDims(f"dimensions must be positive, got {dims}")
    d = len(dims)
    if isinstance(periodic, bool):
        periodic = (periodic,) * d
    periodic = tuple(periodic)
    if len(periodic) != d:
        raise BadDims(f"{len(periodic)} periodicity flags for {d} dimensions")
    volume = math.prod(dims)
    strides = [math.prod(dims[k + 1:]) for k in range(d)]
    # slot x*d + k: site x's link along dimension k (None past an open end);
    # per block of s*n sites, all but the last s step s forward, those wrap
    slots: list = [None] * (d * volume)
    for k, (s, n) in enumerate(zip(strides, dims)):
        column: list = []
        for b in range(0, volume, s * n):
            last, top = b + s * (n - 1), b + s * n
            column += zip(range(b, last), range(b + s, top))
            column += zip(range(last, top), range(b, b + s)) if periodic[k] else repeat(None, s)
        slots[k::d] = column

    def link_index(x: int, k: int) -> int:
        # slot x*d + k less the None slots before it: per open dimension j,
        # the sites below y on j's last layer, y counting x itself when j < k
        return x * d + k - sum(y // (s * n) * s + max(0, y % (s * n) - s * (n - 1))
                               for j, (s, n) in enumerate(zip(strides, dims))
                               if not periodic[j] for y in (x + (j < k),))
    wraps = tuple(tuple(link_index(x, k) for b in range(s * (n - 1), volume, s * n)
                        for x in range(b, b + s)) if periodic[k] else ()
                  for k, (s, n) in enumerate(zip(strides, dims)))
    name = "x".join(map(str, dims))
    tags = "".join("p" if p else "o" for p in periodic)
    return LatticeGraph(volume, tuple(filter(None, slots)), name=f"hyper{name}_{tags}",
                        wrap_edges=wraps)


def component_labels(site_count: int, edges: Iterable[Edge]) -> tuple[list[int], list[int]]:
    """Union-find over the undirected links: each site's component, numbered
    in increasing root order, and each component's root."""
    parent = list(range(site_count))
    for t, h in edges:
        t, h = parent[t], parent[h]  # one step up, then path halving to the roots
        while parent[t] != t:
            parent[t] = t = parent[parent[t]]
        while parent[h] != h:
            parent[h] = h = parent[parent[h]]
        parent[h] = t
    # pointer jumping until every site points at its root
    while (up := list(map(parent.__getitem__, parent))) != parent:
        parent = up
    number = {r: k for k, r in enumerate(sorted(set(parent)))}  # root -> component
    return list(map(number.__getitem__, parent)), list(number)


def connected_components(site_count: int, edges: Iterable[Edge]) -> tuple[tuple[int, ...], ...]:
    """Components of the underlying undirected graph, each sorted, in the
    order of their union-find roots."""
    label = component_labels(site_count, edges)[0].__getitem__
    by_label = sorted(range(site_count), key=label)  # stable: each component in order
    return tuple(tuple(g) for _, g in groupby(by_label, key=label))


def is_connected(L: LatticeGraph) -> bool:
    return len(component_labels(L.site_count, L.edges)[1]) <= 1


# ---------------------------------------------------------------------------
# twists

@dataclass(frozen=True)
class TwistSpec:
    """Per-link boundary maps: link index -> the endomorphism applied to that
    link's head factor.  Links not listed are untwisted; a constant map makes
    a sink link.  Every map must be an endomorphism (NotAHomomorphism)."""

    maps: Mapping[int, GroupEndomorphism]

    def __post_init__(self):
        for phi in {id(phi): phi for phi in self.maps.values()}.values():
            if not is_endomorphism(phi.group, phi.image):
                raise NotAHomomorphism("twist map is not an endomorphism")


def make_twist(L: LatticeGraph, phi: GroupEndomorphism,
               edges: Iterable[int]) -> TwistSpec:
    idx = sorted(set(edges))
    for i in idx:
        if not 0 <= i < L.edge_count:
            raise BadParams(f"twisted link index {i} out of range")
    return TwistSpec(dict.fromkeys(idx, phi))


def twist_on_wrap_edges(L: LatticeGraph, phi: GroupEndomorphism,
                        dim: int) -> TwistSpec:
    """Twist every wraparound link of one hypercubic dimension."""
    if not L.wrap_edges or not 0 <= dim < len(L.wrap_edges):
        raise BadParams(f"lattice carries no wraparound data for dimension {dim}")
    return make_twist(L, phi, L.wrap_edges[dim])


def dangling_boundary_extension(L: LatticeGraph, attach_sites: Sequence[int],
                                G: FiniteGroup, twist: Optional[TwistSpec] = None
                                ) -> tuple[LatticeGraph, TwistSpec]:
    """Attach each listed site to one shared virtual site by a sink link.

    Sink links carry the constant-identity map, which freezes their tail
    transformations and leaves the virtual head site unconstrained.  They are
    added to the maps of `twist`, whose links must lie in L.  An empty attach
    list returns the lattice unchanged with `twist` (empty when None).
    """
    maps = dict(twist.maps) if twist is not None else {}
    if any(not 0 <= i < L.edge_count for i in maps):
        raise BadParams("twist names a link outside the lattice being extended")
    if not attach_sites:
        return L, TwistSpec(maps)
    for s in attach_sites:
        if not 0 <= s < L.site_count:
            raise BadParams(f"attach site {s} out of range")
    virtual = L.site_count
    new_edges = L.edges + tuple((s, virtual) for s in attach_sites)
    L2 = LatticeGraph(L.site_count + 1, new_edges,
                      name=(L.name + "_dangling") if L.name else "dangling",
                      wrap_edges=L.wrap_edges)
    maps.update(dict.fromkeys(range(L.edge_count, len(new_edges)), constant_identity_endo(G)))
    return L2, TwistSpec(maps)


# ---------------------------------------------------------------------------
# text format (line grammar in textio)

def emit_edge_list(L: LatticeGraph, twisted: frozenset[int] = frozenset()) -> str:
    return write_records("lattice", (L.site_count,),
                         ((t, h, "twisted") if i in twisted else (t, h)
                          for i, (t, h) in enumerate(L.edges)))


def parse_edge_list(text: str) -> tuple[LatticeGraph, frozenset[int]]:
    head, (n,), records = read_records(text, "lattice", 1)
    if n < 0:
        raise ParseError(f"negative site count {n}", head)
    edges: list[Edge] = []
    twisted: set[int] = set()
    for line, ln in records:
        parts = ln.split()
        if len(parts) < 2 or parts[2:] not in ([], ["twisted"]):
            raise ParseError("expected '<tail> <head> [twisted]'", line)
        t, h = read_ints(parts[:2], line, "link endpoint", bound=n)
        if len(parts) == 3:
            twisted.add(len(edges))
        edges.append((t, h))
    return LatticeGraph(n, tuple(edges)), frozenset(twisted)
