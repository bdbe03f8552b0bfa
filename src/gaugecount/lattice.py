"""Lattice graphs: sites, directed links, twists, and dangling boundaries.

A lattice is an arbitrary multigraph.  Link i is directed from tails[i] to
heads[i]; a gauge transformation acts on the link variable as
g -> g_tail . g . g_head^-1, with the head factor routed through the twist
endomorphism on twisted links.  `edges` zips the two tuples into pairs on first use.
A hypercubic lattice, and its dangling extension, is kept as its shape: its
site and link counts, its wraparound indices and the ends of its wraparound
and dangling links are arithmetic, its link tuples are built and checked on
first read, and its one component is known without reading a link.
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
    parallel links and loops allowed.  Built from (tail, head) pairs, each checked, or
    by `lattice_hypercubic` (and its dangling extension) from its shape, whose links
    are built on first read."""

    site_count: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    name: str = field(default="", compare=False)
    # per-dimension wraparound link indices for hypercubic lattices
    wrap_edges: tuple[tuple[int, ...], ...] = field(compare=False)

    def __init__(self, site_count: int, edges: Iterable[Edge] = (), name: str = "",
                 wrap_edges: tuple[tuple[int, ...], ...] = ()):
        edges = tuple(edges)
        _check_links(site_count, edges)
        self.__dict__.update(site_count=site_count, tails=tuple(map(itemgetter(0), edges)),
                             heads=tuple(map(itemgetter(1), edges)), name=name,
                             wrap_edges=wrap_edges, edge_count=len(edges))

    @classmethod
    def _from_ends(cls, n: int, tails: Sequence[int], heads: Sequence[int], name: str = "",
                   wrap_edges=()) -> LatticeGraph:
        """Link i from tails[i] to heads[i], checked as the pair constructor checks
        them, without keeping the pairs."""
        _check_links(n, zip_longest(tails, heads))
        return _made(site_count=n, tails=tuple(tails), heads=tuple(heads), name=name,
                     wrap_edges=wrap_edges, edge_count=len(tails))

    def __getattr__(self, name: str):
        # called for an attribute the instance lacks: on a lattice kept as its shape the
        # wraparound indices are arithmetic; the first read of a link tuple builds and checks both
        shape = self.__dict__.get("_shape")
        if shape is None or name not in ("tails", "heads", "wrap_edges", "_wrap_ends"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        dims, periodic, attach = shape
        if name in ("wrap_edges", "_wrap_ends"):  # and each wraparound link's ends
            wraps = _hypercubic_wraps(dims, periodic)
            self.__dict__.update(wrap_edges=tuple(map(tuple, wraps)),
                                 _wrap_ends={i: ends for w in wraps for i, ends in w.items()})
            return self.__dict__[name]
        tails, heads, wraps = _hypercubic_links(dims, periodic)
        tails, heads = tails + attach, heads + (self.site_count - 1,) * len(attach)
        _check_links(self.site_count, zip_longest(tails, heads))
        self.__dict__.update(tails=tails, heads=heads)
        self.__dict__.setdefault("wrap_edges", wraps)
        return self.__dict__[name]

    def _shape_ends(self, links: Iterable[int]):
        """From the shape: each of `links` -> (tail, head), and the virtual site if they hold
        every dangling link; None unless each is a wraparound or dangling link of the shape."""
        shape = self.__dict__.get("_shape")
        if shape is None:
            return None
        attach, wraps = shape[2], self._wrap_ends
        first, virtual = self.edge_count - len(attach), self.site_count - 1  # first dangling link
        ends = {i: (attach[i - first], virtual) if i >= first else wraps.get(i) for i in links}
        if None in ends.values():
            return None
        return ends, virtual if attach and sum(i >= first for i in ends) == len(attach) else None

    @functools.cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(zip(self.tails, self.heads))

    @functools.cached_property
    def components(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """`component_labels` over the links, run on first use, as tuples, since
        every caller shares them.  A hypercubic lattice's grid links join every
        site to site 0, and its dangling links the virtual site, so it reads none."""
        if "_shape" in self.__dict__:
            return (0,) * self.site_count, (0,)
        return tuple(map(tuple, component_labels(self.site_count, zip(self.tails, self.heads))))


def lattice_chain(n_sites: int, periodic: bool = False) -> LatticeGraph:
    """A 1-dim chain; the periodic variant appends the wraparound link."""
    return lattice_hypercubic((n_sites,), (periodic,))


def lattice_hypercubic(dims: Sequence[int],
                       periodic: Sequence[bool] | bool = True) -> LatticeGraph:
    """Row-major hypercubic lattice with per-dimension periodicity, kept as its
    shape until its links are read.

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
    name = "x".join(map(str, dims))
    tags = "".join("p" if p else "o" for p in periodic)
    # d*V links, less one layer of V/n for each open dimension of extent n; no dangling row
    return _made(site_count=volume, name=f"hyper{name}_{tags}", _shape=(dims, periodic, ()),
                 edge_count=d * volume - sum(volume // n for n, p in zip(dims, periodic)
                                             if not p))


def _made(**fields) -> LatticeGraph:
    """A lattice of the given fields, none of them checked here."""
    L = LatticeGraph.__new__(LatticeGraph)
    L.__dict__.update(fields)
    return L


def _hypercubic_links(dims: tuple[int, ...], periodic: tuple[bool, ...]):
    """The tails, heads and per-dimension wraparound link indices of a hypercubic lattice."""
    d, volume = len(dims), math.prod(dims)
    strides = [math.prod(dims[k + 1:]) for k in range(d)]
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
    return tuple(tails), tuple(heads), tuple(map(tuple, _hypercubic_wraps(dims, periodic)))


def _hypercubic_wraps(dims: tuple[int, ...], periodic: tuple[bool, ...]) -> list[dict[int, Edge]]:
    """Per dimension, each wraparound link's index -> (tail, head), in link
    order, from the shape alone: the last layer's sites step back to the first."""
    d, volume = len(dims), math.prod(dims)
    strides = [math.prod(dims[k + 1:]) for k in range(d)]
    open_dims = [(j, s, n) for j, (s, n) in enumerate(zip(strides, dims)) if not periodic[j]]

    def link_index(x: int, k: int) -> int:
        # slot x*d + k less the slots past an open end before it: per open dimension j,
        # the sites below y on j's last layer, y counting x itself when j < k
        return x * d + k - sum(y // (s * n) * s + max(0, y % (s * n) - s * (n - 1))
                               for j, s, n in open_dims for y in (x + (j < k),))
    return [{link_index(x, k) if open_dims else x * d + k: (x, x - s * (n - 1))
             for b in range(s * (n - 1), volume, s * n) for x in range(b, b + s)}
            if periodic[k] else {} for k, (s, n) in enumerate(zip(strides, dims))]


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
    """Twist every wraparound link of one hypercubic dimension, which must be periodic."""
    if not L.wrap_edges or not 0 <= dim < len(L.wrap_edges):
        raise BadParams(f"lattice carries no wraparound data for dimension {dim}")
    if not L.wrap_edges[dim]:
        raise BadParams(f"dimension {dim} is open: it has no wraparound links to twist")
    return make_twist(L, phi, L.wrap_edges[dim])


def dangling_boundary_extension(L: LatticeGraph, attach_sites: Sequence[int],
                                G: FiniteGroup, twist: Optional[TwistSpec] = None
                                ) -> tuple[LatticeGraph, TwistSpec]:
    """Attach each listed site to one shared virtual site by a sink link.

    Sink links carry the constant-identity map, which freezes their tail
    transformations and leaves the virtual head site unconstrained.  They are
    added to the maps of `twist`, whose links must lie in L.  An empty attach
    list returns the lattice unchanged with `twist` (empty when None).  A lattice
    kept as its shape gives an extension kept as its shape and the attach sites.
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
    attach, virtual, E = tuple(attach_sites), L.site_count, L.edge_count
    ext = dict(site_count=virtual + 1, edge_count=E + len(attach),
               name=(L.name + "_dangling") if L.name else "dangling")
    shape = L.__dict__.get("_shape")
    if shape is not None and not shape[2]:  # its links and the sink row built on first read,
        # its wraparound tables L's, if L has them
        L2 = _made(**ext, _shape=(*shape[:2], attach),
                   **{k: L.__dict__[k] for k in ("wrap_edges", "_wrap_ends") if k in L.__dict__})
    else:  # L's links were checked when it was built, and each attach site above
        L2 = _made(**ext, tails=L.tails + attach, heads=L.heads + (virtual,) * len(attach),
                   wrap_edges=L.wrap_edges)
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
