"""Frozen value classes without `dataclasses`, whose generated code every cold process pays for."""

_MISSING = object()


class field:  # spelled as the dataclasses.field it replaces
    """A field default, if any, left out of equality and hash unless `compare`."""

    def __init__(self, default=_MISSING, *, compare: bool = True):
        self.default, self.compare = default, compare


def _refuse(self, name, *value):
    raise AttributeError(f"cannot set or delete field {name!r} of frozen {type(self).__name__}")


def frozen(cls):
    """`cls` as `dataclass(frozen=True)` makes it, from closures, not generated source;
    methods the class defines win, and instances keep a `__dict__` for cached properties."""
    names = tuple(cls.__annotations__)
    fields = {n: cls.__dict__.get(n, _MISSING) for n in names}
    fields = {n: f if isinstance(f, field) else field(f) for n, f in fields.items()}
    defaults = {n: f.default for n, f in fields.items() if f.default is not _MISSING}
    compared = [n for n, f in fields.items() if f.compare]
    post_init = cls.__dict__.get("__post_init__", lambda self: None)

    def key(self):
        return tuple([getattr(self, n) for n in compared])

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            given = {**defaults, **dict(zip(names, args)), **kwargs}
            if (len(args) > len(names) or kwargs.keys() - names[len(args):]
                    or len(given) < len(names)):
                raise TypeError(f"bad arguments for {cls.__name__}{names}")
            args = map(given.__getitem__, names)
        self.__dict__.update(zip(names, args))
        post_init(self)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    for n, f in fields.items():  # a field(...) default becomes the class attribute
        if f.default is not _MISSING:
            setattr(cls, n, f.default)
        elif n in cls.__dict__:  # a field(...) without one leaves none
            delattr(cls, n)
    for name, method in (("__init__", __init__), ("__eq__", __eq__), ("__repr__", __repr__),
                         ("__hash__", lambda self: hash(key(self))),
                         ("__setattr__", _refuse), ("__delattr__", _refuse)):
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls
