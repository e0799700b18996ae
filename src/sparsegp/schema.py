"""Declarations and the one walker over them.

Each concrete kernel, inducing variable, likelihood, mean function, the
variational posterior and each model kind declares its fields once, in a
``schema`` class attribute; its constructor takes one keyword per field,
named after the field's attribute.  From the declarations come
parameter-store slots and a rebuild closure (:func:`compile_slots`), file
specs (:func:`to_spec`; a whole model file is :func:`to_document`) and
objects from file or config specs (:func:`from_spec`,
:func:`from_document`).  An untrained field is a :class:`Setting`, and so
is each key of a config block, which :func:`read_settings` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    DuplicateRegistration,
    UnsupportedCombination,
)
from .numerics import cholesky

REQUIRED = object()
SCHEMA_VERSION = 1  # of model files


@dataclass(frozen=True)
class Param:
    """A trained field, named ``key`` in files and the object and ``slot``
    (default: ``key``) in the parameter store."""

    key: str
    transform: str = "identity"  # identity | positive | tril
    scalar: bool = False  # a float rather than an array
    default: object = REQUIRED  # a value, or a function of the spec
    factored: bool = False  # a covariance whose Cholesky factor <key>_sqrt trains
    from_data: object = None  # (x, kernel) -> rows; from_data = M takes M of them
    slot: str | None = None

    @property
    def attr(self):
        return self.key


@dataclass(frozen=True)
class Child:
    """A nested component (``many``: a list of them).

    ``family`` holds the classes its spec may name (default: the parent's
    family).  ``key`` is its file key and ``slot`` its slot prefix (default:
    ``key``); an empty one puts the child's entries in the parent's document
    or prefix.  A ``document`` child is filed as a whole model document.
    ``item_data(data, i)`` gives the i-th of ``many`` children its own
    (inputs, kernel) for ``from_data`` (default: the parent's).
    """

    key: str
    attr: str
    many: bool = False
    family: type | None = None
    slot: str | None = None
    default: object = REQUIRED
    document: bool = False
    item_data: object = None

    def prefix(self, prefix: str) -> str:
        name = self.key if self.slot is None else self.slot
        return f"{prefix}{name}." if name else prefix


_TYPE_TEXT = {
    bool: "true or false",
    int: "an integer",
    float: "a number",
    list: "a name or a list of names",
}


@dataclass(frozen=True)
class Setting:
    """An untrained field, or a config key: its type, default and range
    (such as ``"> 0"``), and the attribute it sets (default: ``key``).

    ``type`` is bool, int, float, list (a name or a list of names, read as
    a tuple), the family of a component spec, which is passed on as
    written for ``from_spec`` to read, or None for a value copied as is.
    A filed or configured value of another type or out of range is a
    ``ConfigError``.
    """

    key: str
    type: type | None = None
    default: object = REQUIRED
    range: str = ""
    attr: str | None = None

    def __post_init__(self):
        if self.attr is None:
            object.__setattr__(self, "attr", self.key)

    def coerce(self, value, context=None):
        """``value`` as the declared type, or a ``ConfigError`` naming the key."""
        t = self.type
        if t not in _TYPE_TEXT:
            return value
        if t is list:
            names = [value] if isinstance(value, str) else value
            if isinstance(names, list) and all(isinstance(v, str) for v in names):
                return tuple(names)
        elif t is bool:
            if isinstance(value, bool):
                return value
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                number = float(value)
            except OverflowError:  # an integer beyond the float range
                number = math.nan
            op, bound = (self.range or ">= -inf").split()
            within = number > float(bound) if op == ">" else number >= float(bound)
            whole = t is float or number.is_integer()
            if math.isfinite(number) and within and whole:
                return t(value)
        where = f"{context}: " if context else ""
        expected = f"{_TYPE_TEXT[t]} {self.range}".rstrip()
        raise ConfigError(f"{where}{self.key} must be {expected}, got {value!r}")


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
        if isinstance(f, Setting):
            fixed[f.attr] = value
        elif isinstance(f, Param):
            name = prefix + (f.slot or f.key)
            readers.append((f.attr, _slot_reader(f, value, name, store)))
        elif f.many:
            parts = [
                compile_slots(c, f"{f.prefix(prefix)}{i}.", store)
                for i, c in enumerate(value)
            ]
            readers.append((f.attr, lambda s, parts=parts: [b(s) for b in parts]))
        else:
            readers.append((f.attr, compile_slots(value, f.prefix(prefix), store)))
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
        value = cholesky(value)
    store.add(name, value, f.transform)
    if f.factored:
        return lambda s: s.get(name) @ s.get(name).T
    if f.scalar:
        return lambda s: float(s.get(name))
    return lambda s: s.get(name)


def to_spec(obj) -> dict:
    """The file representation of an object that declares itself."""
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
            filed = to_document if f.document else to_spec
            if f.many:
                spec[f.key] = [filed(c) for c in value]
            elif f.key:
                spec[f.key] = filed(value)
            else:
                spec.update(filed(value))
        else:
            if isinstance(value, np.ndarray):
                value = as_list(value)
            spec[f.key] = list(value) if isinstance(value, tuple) else value
    return spec


def to_document(model, metadata: dict | None = None) -> dict:
    """A model's file document: its spec with the tag as ``kind``, the file
    schema version and ``metadata``."""
    doc = to_spec(model)
    doc["kind"] = doc.pop("tag")
    doc.update(schema_version=SCHEMA_VERSION, metadata=metadata or {})
    return doc


def tags(family) -> dict:
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
    """An object of ``family`` from a tag or a dict with a tag.

    Keys that the class does not declare are an error.  ``data`` is
    (inputs, kernel) for config specs, which alone may carry ``from_data``.
    A family with an untagged declaration reads its fields from ``spec``.
    """
    own = family.__dict__.get("schema")
    if own is not None and own.tag is None:
        return construct(family, spec, family, data)
    if isinstance(spec, str):
        spec = {"tag": spec}
    known = tags(family)
    if not isinstance(spec, dict) or spec.get("tag") not in known:
        raise ConfigError(
            f"{family.__name__} spec {spec!r} has none of the tags "
            + ", ".join(sorted(known))
        )
    cls = known[spec["tag"]]
    allowed = {"tag"} | {f.key for f in cls.schema.fields}
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
        m = Setting("from_data", int).coerce(spec.pop("from_data"), spec["tag"])
        for f in pools:
            rows = f.from_data(*data)
            if not 1 <= m <= rows.shape[0]:
                raise ConfigError(f"from_data = {m} is not in [1, {rows.shape[0]}]")
            spec[f.key] = rows[:m]
    return construct(cls, spec, family, data)


def from_document(doc, family):
    """The model a file document describes; ``family`` holds its kinds."""
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported model file schema: {version!r}")
    kind = doc.get("kind")
    cls = tags(family).get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown model kind {kind!r}")
    return construct(cls, doc, family)


def construct(cls, spec, family=None, data=None):
    """``cls`` from the declared keys of ``spec``, defaults filling the rest."""
    tag = cls.schema.tag or cls.__name__
    kwargs = {}
    for f in cls.schema.fields:
        value = spec.get(f.key, f.default) if f.key else spec
        if value is REQUIRED:
            raise ConfigError(f"{tag} needs {f.key!r}")
        if isinstance(f, Child):
            kind = f.family or family
            if f.document:
                value = from_document(value, kind)
            elif not f.many:
                value = from_spec(value, kind, data)
            elif isinstance(value, list):
                per_item = data is not None and f.item_data is not None
                value = [
                    from_spec(v, kind, f.item_data(data, i) if per_item else data)
                    for i, v in enumerate(value)
                ]
            else:
                raise ConfigError(f"{f.key} must be a list, got {value!r}")
        elif f.key not in spec:  # a declared default
            value = value(spec) if callable(value) else value
        elif isinstance(f, Param):
            value = _param_value(f, value, tag)
        elif value is not None or f.default is not None:
            value = f.coerce(value, tag)
        kwargs[f.attr] = value
    try:
        return cls(**kwargs)
    # a constructor's check on a value, its shape included
    except (TypeError, ValueError, DimensionMismatch) as err:
        raise ConfigError(f"{tag}: {err}") from err


def _param_value(f, value, tag):
    """A filed or configured Param value as the number or arrays it holds,
    every entry finite."""
    try:
        if f.scalar:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError
            out = float(value)  # as the constructors read it
        elif isinstance(value, dict):
            out = tuple(np.asarray(b, float) for b in value["blocks"])
        else:
            out = np.asarray(value, float)
    except (KeyError, TypeError, ValueError):
        expected = "a number" if f.scalar else "numeric"
        raise ConfigError(f"{tag}: {f.key} must be {expected}, got {value!r}") from None
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    parts = out if isinstance(out, tuple) else (out,)
    if not all(np.isfinite(part).all() for part in parts):
        raise ConfigError(f"{tag}: {f.key} must be finite, got {value!r}")
    return out


# ---------------------------------------------------------------------------
# Config settings


def check_keys(node, keys, context):
    """Reject a key of a config block that is not among ``keys``."""
    unknown = sorted(set(node) - set(keys) - {"tag"})  # "tag": the block's name
    if unknown:
        raise ConfigError(
            f"{context} has no key {unknown[0]!r}; allowed keys: "
            + ", ".join(sorted(keys))
        )


def read_settings(node, settings, context) -> dict:
    """Key -> value for each declared setting of a config block, each value
    coerced to its type and absent ones set to their defaults."""
    values = {}
    for s in settings:
        if s.key in node:
            values[s.key] = s.coerce(node[s.key])
        elif s.default is REQUIRED:
            raise ConfigError(f"{context} is missing the {s.key!r} entry")
        else:
            values[s.key] = s.default
    return values
