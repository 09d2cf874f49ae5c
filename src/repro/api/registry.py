"""FTL registry: self-registering FTL factories and parseable FTL specs.

New FTL variants register themselves with the :func:`register_ftl` class
decorator instead of being hard-wired into a factory table::

    from repro.api import register_ftl
    from repro.ftl.base import PageMappedFTL

    @register_ftl("MyFTL", "my-ftl")
    class MyFTL(PageMappedFTL):
        ...

Consumers name an FTL with an :class:`FTLSpec` — either programmatically
(``FTLSpec("GeckoFTL", {"cache_capacity": 2048})``) or from a string as it
would appear on a command line (``FTLSpec.parse("GeckoFTL(cache_capacity=
2048)")``). Spec arguments are Python literals only; nothing is evaluated.

This module deliberately imports nothing from the rest of the package so the
FTL modules can import the decorator without creating a cycle; the built-in
FTLs are pulled in lazily the first time a name is resolved.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, List, Optional


class SpecRegistry:
    """A name -> factory registry with aliases and lazy builtin loading.

    Shared machinery behind the FTL registry (this module) and the workload
    registry (:mod:`repro.workloads.registry`): case-insensitive lookups,
    alias-conflict detection, idempotent re-registration, and a
    ``load_builtins`` hook that imports the built-in modules the first time a
    name is resolved (so registering a factory never creates an import
    cycle).
    """

    def __init__(self, what: str,
                 load_builtins: Optional[Callable[[], None]] = None) -> None:
        self.what = what
        self._load_builtins = load_builtins
        #: Primary name -> factory callable.
        self._factories: Dict[str, Callable[..., Any]] = {}
        #: Lower-cased name or alias -> primary name.
        self._aliases: Dict[str, str] = {}
        self._builtins_loaded = False

    def register(self, name: str, *aliases: str) -> Callable:
        """Decorator registering a factory under ``name`` (plus aliases).

        Registering a different factory under an existing name is an error
        (re-registering the same callable, e.g. on module reload, is
        allowed).
        """
        def decorator(factory: Callable) -> Callable:
            existing = self._factories.get(name)
            if existing is not None and existing is not factory:
                raise ValueError(
                    f"{self.what} name {name!r} is already registered "
                    f"by {existing!r}")
            self._factories[name] = factory
            for alias in (name, *aliases):
                key = alias.lower()
                primary = self._aliases.get(key)
                if primary is not None and primary != name:
                    raise ValueError(
                        f"{self.what} alias {alias!r} already refers "
                        f"to {primary!r}")
                self._aliases[key] = name
            return factory
        return decorator

    def _ensure_builtins(self) -> None:
        if not self._builtins_loaded:
            self._builtins_loaded = True
            if self._load_builtins is not None:
                self._load_builtins()

    def resolve(self, name: str) -> str:
        """Primary registered name for ``name`` (or raise ValueError)."""
        self._ensure_builtins()
        primary = self._aliases.get(name.lower())
        if primary is None:
            raise ValueError(f"unknown {self.what} {name!r}; choose from "
                             f"{sorted(self._factories)}")
        return primary

    def factory(self, name: str) -> Callable[..., Any]:
        """Factory registered under ``name`` (or raise ValueError)."""
        return self._factories[self.resolve(name)]

    def names(self) -> List[str]:
        """Sorted primary names of every registered factory."""
        self._ensure_builtins()
        return sorted(self._factories)


def _load_builtin_ftls() -> None:
    """Import the built-in FTL modules so their decorators have run."""
    from ..core import gecko_ftl     # noqa: F401
    from ..ftl import dftl, ib_ftl, lazyftl, mu_ftl  # noqa: F401


#: The process-wide FTL registry.
FTL_REGISTRY = SpecRegistry("FTL", _load_builtin_ftls)

#: Aliases of the registry's internal tables, kept for the tests that
#: unregister their throwaway FTLs (same dict objects, so mutation works).
_FACTORIES = FTL_REGISTRY._factories
_ALIASES = FTL_REGISTRY._aliases


def register_ftl(name: str, *aliases: str) -> Callable:
    """Class decorator that registers an FTL factory under ``name``.

    ``aliases`` are additional accepted spellings; lookups are
    case-insensitive. Registering a different factory under an existing name
    is an error (re-registering the same class, e.g. on module reload, is
    allowed).
    """
    return FTL_REGISTRY.register(name, *aliases)


def resolve_ftl_name(name: str) -> str:
    """Return the primary registered name for ``name`` (or raise ValueError)."""
    return FTL_REGISTRY.resolve(name)


def get_ftl_factory(name: str) -> Callable[..., Any]:
    """Return the factory registered under ``name`` (or raise ValueError)."""
    return FTL_REGISTRY.factory(name)


def ftl_names() -> List[str]:
    """Sorted primary names of every registered FTL."""
    return FTL_REGISTRY.names()


def _parse_spec_kwargs(arg_text: str, what: str = "FTL",
                       example: str = "'GeckoFTL(cache_capacity=2048)'"
                       ) -> Dict[str, Any]:
    """Parse ``"cache_capacity=2048, multiway_merge=True"`` into a dict."""
    arg_text = arg_text.strip()
    if not arg_text:
        return {}
    try:
        call = ast.parse(f"_({arg_text})", mode="eval").body
    except SyntaxError as exc:
        raise ValueError(f"malformed {what} argument list "
                         f"{arg_text!r}") from exc
    if call.args:
        raise ValueError(
            f"{what} specifications take keyword arguments only, "
            f"e.g. {example}")
    kwargs: Dict[str, Any] = {}
    for keyword in call.keywords:
        if keyword.arg is None:
            raise ValueError(
                f"'**' is not supported in {what} specifications")
        try:
            kwargs[keyword.arg] = ast.literal_eval(keyword.value)
        except ValueError:
            raise ValueError(
                f"argument {keyword.arg!r} in {what} specification must be "
                "a Python literal") from None
    return kwargs


def parse_call_spec(text: str, what: str = "FTL",
                    example: str = "'GeckoFTL(cache_capacity=2048)'"
                    ) -> "tuple[str, Dict[str, Any]]":
    """Split ``"Name"`` or ``"Name(key=literal, ...)"`` into (name, kwargs).

    Shared by :class:`FTLSpec` and the workload registry's ``WorkloadSpec`` so
    both spec languages stay identical: a registered name, optionally followed
    by keyword arguments whose values are Python literals. Nothing is
    evaluated.
    """
    text = text.strip()
    if "(" in text:
        name, _, rest = text.partition("(")
        if not rest.endswith(")"):
            raise ValueError(f"malformed {what} specification {text!r}: "
                             "missing closing parenthesis")
        kwargs = _parse_spec_kwargs(rest[:-1], what=what, example=example)
    else:
        name, kwargs = text, {}
    name = name.strip()
    if not name:
        raise ValueError(f"malformed {what} specification {text!r}: "
                         f"missing {what} name")
    return name, kwargs


@dataclass(frozen=True)
class CallSpec:
    """Base class for parseable ``Name(key=literal, ...)`` specifications.

    Subclasses bind a :class:`SpecRegistry` (plus the phrasing used in error
    messages) and add their own ``build`` method; everything else — name
    resolution at construction time, parsing, coercion, hashing, and the
    canonical string form — is shared between :class:`FTLSpec` and the
    workload registry's ``WorkloadSpec``.
    """

    name: str
    kwargs: Dict[str, Any] = field(default_factory=dict)

    #: Bound registry; set by each subclass.
    registry: ClassVar[SpecRegistry]
    #: ``what`` with its article, e.g. ``"an FTL"`` (for error messages).
    a_what: ClassVar[str]
    #: Example spec shown in parse errors.
    spec_example: ClassVar[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.registry.resolve(self.name))
        object.__setattr__(self, "kwargs", dict(self.kwargs))

    def __hash__(self) -> int:
        # The generated hash would choke on the dict field; specs with
        # hashable kwarg values can live in sets / as dict keys.
        return hash((self.name, tuple(sorted(self.kwargs.items()))))

    @classmethod
    def parse(cls, text: str):
        """Parse ``"Name"`` or ``"Name(key=literal, ...)"`` into a spec."""
        return cls(*parse_call_spec(text, what=cls.registry.what,
                                    example=cls.spec_example))

    @classmethod
    def of(cls, value):
        """Coerce a spec, a bare name, or a spec string into a spec."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        raise TypeError(f"cannot interpret {value!r} as {cls.a_what} "
                        "specification")

    def __str__(self) -> str:
        if not self.kwargs:
            return self.name
        args = ", ".join(f"{key}={value!r}"
                         for key, value in sorted(self.kwargs.items()))
        return f"{self.name}({args})"


class FTLSpec(CallSpec):
    # No @dataclass decorator: the subclass adds no fields, and re-applying
    # it would regenerate __hash__/__eq__ over the raw dict field, clobbering
    # CallSpec's kwargs-aware __hash__.
    """A named FTL plus constructor keyword arguments.

    The name is resolved (and validated) against the registry at construction
    time, so an ``FTLSpec`` always refers to a real FTL under its primary
    name.
    """

    registry: ClassVar[SpecRegistry] = FTL_REGISTRY
    a_what: ClassVar[str] = "an FTL"
    spec_example: ClassVar[str] = "'GeckoFTL(cache_capacity=2048)'"

    def with_defaults(self, **defaults: Any) -> "FTLSpec":
        """A copy whose kwargs fall back to ``defaults`` where unset."""
        return FTLSpec(self.name, {**defaults, **self.kwargs})

    def build(self, device, **defaults: Any):
        """Instantiate the FTL on ``device``.

        ``defaults`` are keyword arguments the spec's own kwargs override —
        the session uses this for shared settings like ``cache_capacity``.
        """
        factory = get_ftl_factory(self.name)
        return factory(device, **{**defaults, **self.kwargs})
