"""Exact invariants and cyclic branched-cover analysis for Seifert links."""

from . import alexander, classify, cover, errors, laurent, link_model, orbifold, tables
from .alexander import *
from .classify import *
from .cover import *
from .errors import *
from .laurent import *
from .link_model import *
from .orbifold import *
from .tables import *

__version__ = "0.1.0"

# Each module's `__all__` is the one list of its public names.
_MODULES = (alexander, classify, cover, errors, laurent, link_model, orbifold, tables)
__all__ = sorted(name for module in _MODULES for name in module.__all__)
