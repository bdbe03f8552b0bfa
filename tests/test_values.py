"""The package's frozen value classes behave as `dataclasses` would build them.

Each case pairs a value class with a reference class that `dataclasses`
builds here from the same fields and options, and checks that both sides
agree on construction, equality, hash, repr, freezing and `__post_init__`.
"""

import dataclasses

import pytest

from gaugecount._values import field, frozen

from gaugecount import (
    BadParams,
    CountReport,
    FermionMatter,
    FiniteGroup,
    GroupEndomorphism,
    LatticeGraph,
    PureGauge,
    TwistSpec,
    count,
    cyclic_group,
    identity_endo,
    lattice_chain,
    quaternion_group,
    su2_fundamental_rep,
)

NO = dataclasses.MISSING


def _reference(cls, fields, **namespace):
    """A frozen dataclass named like cls, with fields (name, default, compare, repr)."""
    ref = dataclasses.make_dataclass(
        cls.__name__, [(n, object, dataclasses.field(default=d, compare=c, repr=r))
                       for n, d, c, r in fields], frozen=True, namespace=namespace)
    ref.__qualname__ = cls.__qualname__
    return ref


def _group_case():
    G = quaternion_group()
    fields = [(n, NO, True, True) for n in
              ("order", "mul_table", "inv_table", "identity", "labels", "generators")]
    fields += [("name", "G", True, True), ("matrices", None, False, False)]
    values = tuple(getattr(G, n) for n, *_ in fields)
    # changed matrices are ignored; a changed name is not
    return (FiniteGroup, _reference(FiniteGroup, fields, __repr__=FiniteGroup.__repr__),
            fields, values, {"matrices": ()}, {"name": "H"})


def _lattice_case():
    fields = [("site_count", NO, True, True), ("tails", NO, True, True),
              ("heads", NO, True, True), ("name", "", False, True),
              ("wrap_edges", (), False, True)]
    values = (3, (0, 1), (1, 2), "chain", ((1,),))
    return LatticeGraph, _reference(LatticeGraph, fields), fields, values, \
        {"name": "other", "wrap_edges": ()}, {"heads": (1, 0)}


def _report_case():
    report = count(cyclic_group(4), lattice_chain(3, periodic=True), PureGauge())
    fields = [(f, NO, True, True) for f in CountReport.__annotations__]
    values = tuple(getattr(report, n) for n, *_ in fields)
    return CountReport, _reference(CountReport, fields), fields, values, {}, \
        {"total": report.total + 1}


def _fermion_case():
    fields = [("flavours", NO, True, True), ("spinor_count", 1, True, True),
              ("vacuum", "trivial", True, True)]
    values = ((su2_fundamental_rep(quaternion_group()),), 2, "staggered")
    return FermionMatter, _reference(FermionMatter, fields,
                                     __post_init__=FermionMatter.__post_init__), \
        fields, values, {}, {"spinor_count": 3}


def _endo_case():
    G = cyclic_group(3)
    fields = [("group", NO, True, True), ("image", NO, True, True)]
    return GroupEndomorphism, _reference(GroupEndomorphism, fields), fields, \
        (G, (0, 2, 1)), {}, {"image": (0, 1, 2)}


def _hash(obj):
    """hash(obj), or TypeError when a field is unhashable (a Cyclotomic, a dict)."""
    try:
        return hash(obj)
    except TypeError:
        return TypeError


def _build(cls, values):
    """cls from its field values; LatticeGraph's own __init__ takes link pairs."""
    if cls is LatticeGraph:
        n, tails, heads, *rest = values
        return LatticeGraph(n, tuple(zip(tails, heads)), *rest)
    return cls(*values)


@pytest.mark.parametrize("case", [_group_case, _lattice_case, _report_case, _fermion_case,
                                  _endo_case],
                         ids=["FiniteGroup", "LatticeGraph", "CountReport", "FermionMatter",
                              "GroupEndomorphism"])
def test_value_classes_agree_with_a_dataclass_reference(case):
    cls, ref, fields, values, ignored, compared = case()
    names = [n for n, *_ in fields]
    ours, theirs = _build(cls, values), ref(*values)
    assert [getattr(ours, n) for n in names] == [getattr(theirs, n) for n in names]
    assert repr(ours) == repr(theirs)
    assert _hash(ours) == _hash(theirs)
    assert ours == _build(cls, values) and theirs == ref(*values)
    # equal fields in instances of different classes are unequal, both ways
    assert ours != theirs and theirs != ours
    assert ours.__eq__(theirs) is NotImplemented and theirs.__eq__(ours) is NotImplemented
    for changes, equal in ((ignored, True), (compared, False)):
        moved = tuple(changes.get(n, v) for n, v in zip(names, values))
        assert (_build(cls, moved) == ours) is (ref(*moved) == theirs) is equal
        assert (_hash(_build(cls, moved)) == _hash(ours)) is (_hash(ref(*moved)) == _hash(theirs))
    for obj in (ours, theirs):
        for name in (names[0], "unknown"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    if cls is LatticeGraph:  # its own __init__ wins, with its own signature
        return
    kw = dict(zip(names, values))
    assert cls(**kw) == ours and ref(**kw) == theirs
    assert cls(*values[:1], **dict(list(kw.items())[1:])) == ours
    required = [v for (n, d, *_), v in zip(fields, values) if d is NO]
    assert repr(cls(*required)) == repr(ref(*required))
    for args, kwargs in (((), {}), (values + (None,), {}), (values, {names[0]: values[0]}),
                         (values, {"unknown": 1})):
        for make in (cls, ref):
            with pytest.raises(TypeError):
                make(*args, **kwargs)


@pytest.mark.parametrize("changes", [{"spinor_count": 0}, {"flavours": ()},
                                     {"vacuum": "none"}, {"spinor_count": 10 ** 30}])
def test_post_init_refusals_agree_with_a_dataclass_reference(changes):
    cls, ref, fields, values, *_ = _fermion_case()
    moved = tuple(changes.get(n, v) for (n, *_), v in zip(fields, values))
    for make in (cls, ref):
        with pytest.raises(BadParams):
            make(*moved)


def test_a_value_class_holding_a_dict_stays_unhashable():
    ref = _reference(TwistSpec, [("maps", NO, True, True)])
    phi = identity_endo(cyclic_group(2))
    assert _hash(TwistSpec({0: phi})) is _hash(ref({0: phi})) is TypeError
    assert repr(TwistSpec({0: phi})) == repr(ref({0: phi}))


def test_a_field_without_a_default_leaves_no_class_attribute():
    @frozen
    class Pair:
        first: int
        second: int = field(compare=False)

    assert "second" not in Pair.__dict__ and not hasattr(Pair, "second")
    assert Pair(1, 2) == Pair(1, 3) and Pair(1, 2) != Pair(2, 2)
    assert repr(Pair(second=2, first=1)).endswith("Pair(first=1, second=2)")
    with pytest.raises(TypeError):
        Pair(1)
