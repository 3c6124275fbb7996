"""The two comparison engines.

``saturate_ke`` grounds every universal clause up front
(``CompiledKb.instances``) and re-selects the first undischarged stored
instance at every step; ``saturate_foke`` instead parks each ground
instance on the branch when first needed (the standard instantiation
rule) and selects among the parked ones the same way.  Both run the one
explorer in ``engine`` with the fused-rule engine's split rule, closure
test, instantiation order and equality phase, so branch counts and
branch literal sets are identical across all three; only the selection
policy differs.
"""

from __future__ import annotations

from typing import Optional

from .core import KnowledgeBase
from .engine import EngineOptions, SaturationResult, saturate


def saturate_ke(kb: KnowledgeBase,
                opts: Optional[EngineOptions] = None) -> SaturationResult:
    """Classic KE over the up-front grounding."""
    return saturate(kb, opts, engine="ke")


def saturate_foke(kb: KnowledgeBase,
                  opts: Optional[EngineOptions] = None) -> SaturationResult:
    """First-order style: instantiate onto the branch, then eliminate."""
    return saturate(kb, opts, engine="foke")
