"""Type-pair dispatch registry with nearest-ancestor resolution.

The covariances, shape and conditional of an (inducing variable, kernel)
pair are selected by the pair's runtime types, from one registry
(``covariances.PAIRS``).  Implementations register against a pair of
classes; resolution walks the class hierarchies of the query and picks the
registered pair whose classes are the nearest ancestors, with an exact match
always winning.  Third parties extend the library by registering new pairs,
without touching core modules.

Registries are populated at import time and read-only afterwards, so
resolution is thread-safe.
"""

from __future__ import annotations

from .errors import AmbiguityDetected, DuplicateRegistration, NoImplementation


class DispatchRegistry:
    def __init__(self, name: str):
        self.name = name
        self._table: dict[tuple[type, type], callable] = {}
        self._cache: dict[tuple[type, type], callable] = {}

    def register(self, iv_type: type, kernel_type: type, impl=None):
        """Register ``impl`` for the pair; usable as a decorator."""

        def decorator(fn):
            key = (iv_type, kernel_type)
            if key in self._table:
                raise DuplicateRegistration(
                    f"{self.name} already has an entry for "
                    f"({iv_type.__name__}, {kernel_type.__name__})"
                )
            self._table[key] = fn
            self._cache.clear()
            return fn

        return decorator if impl is None else decorator(impl)

    def resolve(self, iv_type: type, kernel_type: type):
        """Implementation for the nearest registered ancestor pair."""
        key = (iv_type, kernel_type)
        hit = self._cache.get(key)
        if hit is not None:
            return hit

        candidates = []  # (iv distance, kernel distance, registered pair, impl)
        for (reg_iv, reg_k), impl in self._table.items():
            if issubclass(iv_type, reg_iv) and issubclass(kernel_type, reg_k):
                candidates.append(
                    (
                        iv_type.__mro__.index(reg_iv),
                        kernel_type.__mro__.index(reg_k),
                        (reg_iv, reg_k),
                        impl,
                    )
                )
        if not candidates:
            raise NoImplementation(
                f"{self.name} has no entry covering "
                f"({iv_type.__name__}, {kernel_type.__name__})"
            )

        def dominated(c, other):
            return (
                other[0] <= c[0]
                and other[1] <= c[1]
                and (other[0] < c[0] or other[1] < c[1])
            )

        minimal = [
            c for c in candidates if not any(dominated(c, o) for o in candidates)
        ]
        if len(minimal) > 1:
            pairs = ", ".join(
                f"({iv.__name__}, {k.__name__})" for _, _, (iv, k), _ in minimal
            )
            raise AmbiguityDetected(
                f"{self.name} resolution for ({iv_type.__name__}, "
                f"{kernel_type.__name__}) is ambiguous between {pairs}"
            )
        impl = minimal[0][3]
        self._cache[key] = impl
        return impl
