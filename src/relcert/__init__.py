"""Exact symbolic workbench for the integral group ring of a free product
of C_r x Z factors: relation-module identities, generation certificates
over the n+1 distinguished generators, and chain-level boundary data."""

from .freewords import FreeWord, Generator, PresentationParams
from .normalform import GroupElement
from .groupring import RingElement
from .foxcomplex import RingMatrix, RingVector
from .checker import Certificate, CrtData

__all__ = [
    "Certificate",
    "CrtData",
    "FreeWord",
    "Generator",
    "GroupElement",
    "PresentationParams",
    "RingElement",
    "RingMatrix",
    "RingVector",
]

__version__ = "0.1.0"
