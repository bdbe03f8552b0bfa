"""Lattice graphs: sites, directed links, twists, and dangling boundaries.

A lattice is an arbitrary multigraph.  Link i is directed from tails[i] to
heads[i]; a gauge transformation acts on the link variable as
g -> g_tail . g . g_head^-1, with the head factor routed through the twist
endomorphism on twisted links.  `edges` zips the two tuples into pairs on first use.
"""

from __future__ import annotations

import functools
import math
import sys
from itertools import compress, repeat, zip_longest
from operator import is_not, itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from ._values import field, frozen
from .autos import GroupEndomorphism, constant_identity_endo, is_endomorphism
from .errors import BadDims, BadParams, NotAHomomorphism, ParseError
from .groups import FiniteGroup
from .textio import read_ints, read_records, write_records

Edge = tuple[int, int]


def _check_links(n: int, links: Iterable) -> None:
    """Raise BadParams naming the first link that is not a pair of sites 0..n-1."""
    if n < 0:
        raise BadParams(f"negative site count {n}")
    for i, link in enumerate(links):
        try:  # t | h < 0 iff an endpoint is; an error unless link is an integer pair
            t, h = link
            if 0 <= t | h and t < n and h < n:
                continue
            bad = "endpoint out of range"
        except (TypeError, ValueError):
            bad = ("endpoint is not an integer"
                   if isinstance(link, Sequence) and len(link) == 2 else "is not a pair")
        raise BadParams(f"link {i} {bad}: {link!r}")


@frozen
class LatticeGraph:
    """Sites 0..site_count-1 and directed links, link i from tails[i] to heads[i];
    parallel links and loops allowed.  Built from (tail, head) pairs, each checked."""

    site_count: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    name: str = field(default="", compare=False)
    # per-dimension wraparound link indices for hypercubic lattices
    wrap_edges: tuple[tuple[int, ...], ...] = field(default=(), compare=False)

    def __init__(self, site_count: int, edges: Iterable[Edge] = (), name: str = "",
                 wrap_edges: tuple[tuple[int, ...], ...] = ()):
        edges = tuple(edges)
        _check_links(site_count, edges)
        self.__dict__.update(site_count=site_count, tails=tuple(map(itemgetter(0), edges)),
                             heads=tuple(map(itemgetter(1), edges)), name=name,
                             wrap_edges=wrap_edges)

    @classmethod
    def _from_ends(cls, n: int, tails: Sequence[int], heads: Sequence[int], name: str = "",
                   wrap_edges=()) -> LatticeGraph:
        """Link i from tails[i] to heads[i], checked as the pair constructor checks
        them, without keeping the pairs."""
        _check_links(n, zip_longest(tails, heads))
        L = cls(n, (), name, wrap_edges)
        L.__dict__.update(tails=tuple(tails), heads=tuple(heads))
        return L

    @functools.cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(zip(self.tails, self.heads))

    @property
    def edge_count(self) -> int:
        return len(self.tails)


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
    if d * volume > sys.maxsize:  # refused before anything is allocated
        raise BadDims(f"a lattice of {volume} sites is too large to index")
    strides = [math.prod(dims[k + 1:]) for k in range(d)]
    open_dims = [(j, s, n) for j, (s, n) in enumerate(zip(strides, dims)) if not periodic[j]]
    # slot x*d + k: site x's link along dimension k, its head None past an
    # open end; per block of s*n sites, all but the last s step s forward,
    # those wrap.  Every end is taken from `site`, so equal ends share one int
    site = list(range(volume))
    tails, heads = [None] * (d * volume), [None] * (d * volume)
    for k, (s, n) in enumerate(zip(strides, dims)):
        column: list = []
        for b in range(0, volume, s * n):
            column += site[b + s:b + s * n]
            column += site[b:b + s] if periodic[k] else repeat(None, s)
        tails[k::d] = site
        heads[k::d] = column
    if not all(periodic):
        keep = list(map(is_not, heads, repeat(None)))
        tails, heads = compress(tails, keep), compress(heads, keep)

    def link_index(x: int, k: int) -> int:
        # slot x*d + k less the None slots before it: per open dimension j,
        # the sites below y on j's last layer, y counting x itself when j < k
        return x * d + k - sum(y // (s * n) * s + max(0, y % (s * n) - s * (n - 1))
                               for j, s, n in open_dims for y in (x + (j < k),))
    wraps = tuple(tuple(link_index(x, k) for b in range(s * (n - 1), volume, s * n)
                        for x in range(b, b + s)) if periodic[k] else ()
                  for k, (s, n) in enumerate(zip(strides, dims)))
    name = "x".join(map(str, dims))
    tags = "".join("p" if p else "o" for p in periodic)
    return LatticeGraph._from_ends(volume, tuple(tails), tuple(heads),
                                   f"hyper{name}_{tags}", wraps)


def component_labels(site_count: int, edges: Iterable[Edge]) -> tuple[list[int], list[int]]:
    """Union-find over the undirected links: each site's component, numbered
    in increasing root order, and each component's root."""
    parent, joined, root = list(range(site_count)), 0, 0  # unions made, the last one's root
    for t, h in edges:
        t, h = parent[t], parent[h]  # one step up, then path halving to the roots
        if t == h:  # already joined: skipping the link loses no union
            continue
        while parent[t] != t:
            parent[t] = t = parent[parent[t]]
        while parent[h] != h:
            parent[h] = h = parent[parent[h]]
        if t != h:
            parent[h], joined, root = t, joined + 1, t
    if joined == site_count - 1:  # connected: one label, and no pointer jumping
        return [0] * site_count, [root]
    # pointer jumping until every site points at its root
    while (up := list(map(parent.__getitem__, parent))) != parent:
        parent = up
    number = {r: k for k, r in enumerate(sorted(set(parent)))}  # root -> component
    return list(map(number.__getitem__, parent)), list(number)


# ---------------------------------------------------------------------------
# twists

@frozen
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
        if not isinstance(s, int):
            raise BadParams(f"attach site {s!r} is not an integer")
        if not 0 <= s < L.site_count:
            raise BadParams(f"attach site {s} out of range")
    virtual, E = L.site_count, L.edge_count
    L2 = LatticeGraph._from_ends(
        virtual + 1, L.tails + tuple(attach_sites), L.heads + (virtual,) * len(attach_sites),
        (L.name + "_dangling") if L.name else "dangling", L.wrap_edges)
    maps.update(dict.fromkeys(range(E, L2.edge_count), constant_identity_endo(G)))
    return L2, TwistSpec(maps)


# ---------------------------------------------------------------------------
# text format (line grammar in textio)

def emit_edge_list(L: LatticeGraph, twisted: frozenset[int] = frozenset()) -> str:
    return write_records("lattice", (L.site_count,),
                         ((t, h, "twisted") if i in twisted else (t, h)
                          for i, (t, h) in enumerate(zip(L.tails, L.heads))))


def parse_edge_list(text: str) -> tuple[LatticeGraph, frozenset[int]]:
    head, (n,), records = read_records(text, "lattice", 1)
    if n < 0:
        raise ParseError(f"negative site count {n}", head)
    tails, heads, twisted = [], [], set()
    for line, ln in records:
        parts = ln.split()
        if len(parts) < 2 or parts[2:] not in ([], ["twisted"]):
            raise ParseError("expected '<tail> <head> [twisted]'", line)
        t, h = read_ints(parts[:2], line, "link endpoint", bound=n)
        if len(parts) == 3:
            twisted.add(len(tails))
        tails.append(t)
        heads.append(h)
    return LatticeGraph._from_ends(n, tails, heads), frozenset(twisted)
