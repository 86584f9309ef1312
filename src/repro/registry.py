"""The unified component registry behind every "build X by name" surface.

One :class:`Registry` class replaces the repo's previous ad-hoc lookup
tables (dataset generators, model builders, partition-strategy parsers,
the algorithm if/elif chain, the codec factory).  Each component family
instantiates a registry, registers its factories under canonical names,
and exposes the same thin helpers it always did — so call sites keep
working while ``repro.spec`` validates :class:`~repro.spec.RunSpec`
fields and ``repro list`` prints live documentation from one place.

Registries preserve registration order (it is the order names appear in
CLI help and ``repro list``) and normalize lookups, so ``CIFAR-10`` and
``cifar10`` resolve to the same entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


def default_normalize(name: str) -> str:
    """Case-insensitive, dash/underscore-insensitive lookup key."""
    return name.strip().lower().replace("-", "").replace("_", "")


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component: its canonical name, factory and docs."""

    name: str
    factory: Callable
    summary: str = ""


class Registry:
    """Name -> factory mapping shared by every component family.

    Parameters
    ----------
    kind:
        Human-readable family name used in error messages and listings
        (``"dataset"``, ``"model"``, ``"algorithm"``, ...).
    normalize:
        How lookups (and registrations) map a user-supplied name onto a
        key; defaults to :func:`default_normalize`.
    """

    def __init__(self, kind: str, normalize: Callable[[str], str] | None = None):
        self.kind = kind
        self._normalize = normalize or default_normalize
        self._entries: dict[str, RegistryEntry] = {}

    def register(
        self, name: str, factory: Callable | None = None, *, summary: str = ""
    ):
        """Register ``factory`` under ``name`` (usable as a decorator).

        Duplicate registrations are an error: silently replacing a
        component is exactly the class of bug registries exist to catch.
        """

        def _register(factory: Callable) -> Callable:
            key = self._normalize(name)
            if key in self._entries:
                raise ValueError(
                    f"duplicate {self.kind} registration for {name!r}"
                )
            self._entries[key] = RegistryEntry(
                name=name, factory=factory, summary=summary
            )
            return factory

        if factory is None:
            return _register
        return _register(factory)

    def unknown(self, name: str) -> str:
        """The one "unknown X; available: [...]" sentence for this family."""
        return f"unknown {self.kind} {name!r}; available: {list(self.names())}"

    def get(self, name: str) -> Callable:
        """The factory registered under ``name``; KeyError lists options."""
        key = self._normalize(name)
        if key not in self._entries:
            raise KeyError(self.unknown(name))
        return self._entries[key].factory

    def build(self, name: str, *args, **kwargs):
        """Look up ``name`` and call its factory."""
        return self.get(name)(*args, **kwargs)

    def names(self) -> tuple[str, ...]:
        """Canonical names in registration order."""
        return tuple(entry.name for entry in self._entries.values())

    def entries(self) -> tuple[RegistryEntry, ...]:
        """All entries in registration order (for listings)."""
        return tuple(self._entries.values())

    def __contains__(self, name: str) -> bool:
        return self._normalize(name) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self.names())

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {len(self)} entries)"
