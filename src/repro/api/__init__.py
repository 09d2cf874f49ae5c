"""Public experiment API: the FTL registry and the simulation session.

This package is the front door to the library. :class:`FTLSpec` names an FTL
(with optional constructor arguments, parseable from strings such as
``"GeckoFTL(cache_capacity=2048)"``), :func:`register_ftl` lets new FTL
variants register themselves, and :class:`SimulationSession` owns the
device + FTL + runner lifecycle that benchmarks, the CLI and the examples all
share.
"""

from .registry import (
    FTLSpec,
    ftl_names,
    get_ftl_factory,
    register_ftl,
    resolve_ftl_name,
)
from .session import (
    SessionSnapshot,
    SimulationSession,
    write_amplification_breakdown,
)

__all__ = [
    "FTLSpec",
    "SessionSnapshot",
    "SimulationSession",
    "ftl_names",
    "get_ftl_factory",
    "register_ftl",
    "resolve_ftl_name",
    "write_amplification_breakdown",
]
