"""Component declarations and the one walker over them.

Each concrete kernel, inducing variable, likelihood, mean function and the
variational posterior declares its fields once, in a ``schema`` class
attribute; its constructor takes one keyword per field, named after the
field's attribute.  From the declarations come parameter-store slots and a
rebuild closure (:func:`compile_slots`), model-file specs (:func:`to_spec`)
and components from file or config specs (:func:`from_spec`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DuplicateRegistration, UnsupportedCombination
from .numerics import cholesky

REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """A trained field, named ``key`` in slots, files and the object."""

    key: str
    transform: str = "identity"  # identity | positive | tril
    scalar: bool = False  # a float rather than an array
    default: object = REQUIRED  # a value, or a function of the spec
    factored: bool = False  # a covariance whose Cholesky factor <key>_sqrt trains
    from_data: object = None  # (x, kernel) -> rows; from_data = M takes M of them

    @property
    def attr(self):
        return self.key


@dataclass(frozen=True)
class Child:
    """A component of the same family (``many``: a list of them)."""

    key: str
    attr: str
    many: bool = False


@dataclass(frozen=True)
class Static:
    """An untrained field.  With no key it is kept by the rebuild but never
    filed, and saving a value that the file would not restore is an error."""

    key: str | None
    attr: str


class Schema:
    """A file tag (None: the fields sit in the parent's document) and fields."""

    def __init__(self, tag, *fields):
        self.tag = tag
        self.fields = fields


def as_list(a):
    return np.asarray(a, dtype=float).tolist()


def compile_slots(obj, prefix, store):
    """Add ``obj``'s slots to ``store`` under ``prefix``; return ``build(s)``.

    The declarations are walked once, here; ``build`` only reads slots and
    calls constructors.  A component with no slot below it is reused as is.
    """
    schema = getattr(type(obj), "schema", None)
    if schema is None:
        raise UnsupportedCombination(f"no parameterization for {type(obj).__name__}")
    readers, fixed = [], {}
    for f in schema.fields:
        value = getattr(obj, f.attr)
        if isinstance(f, Static):
            fixed[f.attr] = value
        elif isinstance(f, Param):
            readers.append((f.attr, _slot_reader(f, value, prefix + f.key, store)))
        elif f.many:
            parts = [
                compile_slots(c, f"{prefix}{f.key}.{i}.", store)
                for i, c in enumerate(value)
            ]
            readers.append((f.attr, lambda s, parts=parts: [b(s) for b in parts]))
        else:
            readers.append((f.attr, compile_slots(value, f"{prefix}{f.key}.", store)))
    if not readers:
        return lambda s: obj
    cls = type(obj)

    def build(s):
        kwargs = fixed.copy()
        for attr, read in readers:
            kwargs[attr] = read(s)
        return cls(**kwargs)

    return build


def _slot_reader(f, value, name, store):
    if value is None:
        raise UnsupportedCombination(f"training needs an explicit {f.key}")
    if isinstance(value, tuple):  # blocks: slots <key>.<i>, file {"blocks": [...]}
        names = [f"{name}.{i}" for i in range(len(value))]
        for n, block in zip(names, value):
            store.add(n, block, f.transform)
        return lambda s: tuple(s.get(n) for n in names)
    if f.factored:
        name += "_sqrt"
        value = cholesky(value, jitter=0.0)
    store.add(name, value, f.transform)
    if f.factored:
        return lambda s: s.get(name) @ s.get(name).T
    if f.scalar:
        return lambda s: float(s.get(name))
    return lambda s: s.get(name)


def to_spec(obj) -> dict:
    """The file representation of a component that declares itself."""
    schema = type(obj).__dict__.get("schema")
    if schema is None:
        raise ConfigError(f"{type(obj).__name__} has no file representation")
    spec = {} if schema.tag is None else {"tag": schema.tag}
    for f in schema.fields:
        value = getattr(obj, f.attr)
        if isinstance(f, Param):
            if value is None:
                raise ConfigError(f"model files need an explicit {f.key}")
            if isinstance(value, tuple):
                spec[f.key] = {"blocks": [as_list(b) for b in value]}
            else:
                spec[f.key] = float(value) if f.scalar else as_list(value)
        elif isinstance(f, Child):
            spec[f.key] = [to_spec(c) for c in value] if f.many else to_spec(value)
        elif f.key is not None:
            spec[f.key] = list(value) if isinstance(value, tuple) else value
    unfiled = [f.attr for f in schema.fields if f.key is None]
    restored = construct(type(obj), spec) if unfiled else None
    for attr in unfiled:
        kept, loads = getattr(obj, attr), getattr(restored, attr)
        if kept != loads:
            raise ConfigError(
                f"{type(obj).__name__}.{attr} = {kept!r} cannot be saved; "
                f"the file would load {loads!r}"
            )
    return spec


def _tags(family) -> dict:
    """Tag -> class for every subclass of ``family`` that declares itself."""
    found, pending = {}, [family]
    while pending:
        cls = pending.pop()
        pending += cls.__subclasses__()
        schema = cls.__dict__.get("schema")
        if schema is not None and found.setdefault(schema.tag, cls) is not cls:
            raise DuplicateRegistration(f"tag {schema.tag!r} is declared twice")
    return found


def from_spec(spec, family, data=None):
    """A component of ``family`` from a tag or a dict with a tag.

    Keys that the class does not declare are an error.  ``data`` is
    (inputs, kernel) for config specs, which alone may carry ``from_data``.
    """
    if isinstance(spec, str):
        spec = {"tag": spec}
    known = _tags(family)
    if not isinstance(spec, dict) or spec.get("tag") not in known:
        raise ConfigError(
            f"{family.__name__} spec {spec!r} has none of the tags "
            + ", ".join(sorted(known))
        )
    cls = known[spec["tag"]]
    allowed = {"tag"} | {f.key for f in cls.schema.fields} - {None}
    pools = [f for f in cls.schema.fields if getattr(f, "from_data", None)]
    if data is not None and pools:
        allowed.add("from_data")
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ConfigError(
            f"{spec['tag']} has no key {unknown[0]!r}; allowed keys: "
            + ", ".join(sorted(allowed))
        )
    if "from_data" in spec:
        spec = dict(spec)
        m = int(spec.pop("from_data"))
        for f in pools:
            rows = f.from_data(*data)
            if not 1 <= m <= rows.shape[0]:
                raise ConfigError(f"from_data = {m} is not in [1, {rows.shape[0]}]")
            spec[f.key] = rows[:m]
    return construct(cls, spec, family, data)


def construct(cls, spec, family=None, data=None):
    """``cls`` from the declared keys of ``spec``, defaults filling the rest."""
    kwargs = {}
    for f in cls.schema.fields:
        if f.key is None:
            continue
        value = spec.get(f.key, getattr(f, "default", REQUIRED))
        if value is REQUIRED:
            raise ConfigError(f"{cls.schema.tag or cls.__name__} needs {f.key!r}")
        if isinstance(f, Child) and f.many:
            if not isinstance(value, list):
                raise ConfigError(f"{f.key} must be a list, got {value!r}")
            value = [from_spec(v, family, data) for v in value]
        elif isinstance(f, Child):
            value = from_spec(value, family, data)
        elif f.key not in spec:  # a declared default
            value = value(spec) if callable(value) else value
        elif isinstance(f, Param) and isinstance(value, dict):
            value = tuple(np.asarray(b, float) for b in value["blocks"])
        elif isinstance(f, Param) and not f.scalar:
            value = np.asarray(value, float)
        kwargs[f.attr] = value
    try:
        return cls(**kwargs)
    except ValueError as err:  # a constructor's range check on a filed value
        raise ConfigError(f"{cls.schema.tag or cls.__name__}: {err}") from err
