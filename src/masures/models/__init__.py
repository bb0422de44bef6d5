"""Concrete desk-scale buildings and the verification ops run on them."""

from .base import (
    CheckOutcome,
    MasureModel,
    VerificationReport,
    check_MA2,
    intersect_with_standard,
    retract,
    retract_segment,
)
from .sl3 import SL3Apartment, SL3Model, SL3Point
from .tree import TreeApartment, TreeEnd, TreeModel, TreePoint

__all__ = [
    "CheckOutcome",
    "MasureModel",
    "VerificationReport",
    "check_MA2",
    "intersect_with_standard",
    "retract",
    "retract_segment",
    "SL3Apartment",
    "SL3Model",
    "SL3Point",
    "TreeApartment",
    "TreeEnd",
    "TreeModel",
    "TreePoint",
]
