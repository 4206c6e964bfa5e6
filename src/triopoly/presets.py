"""Reference parameter set and candidate boxes used throughout tests and CLI.

Two box fixtures ship on purpose: the corrected bounds used everywhere, and
the raw bounds as printed in the source table, whose y_r carries a dropped
leading digit (0.04516666668 instead of 0.4516666668).  Constructing the raw
box fails the Box ordering invariant, which is exactly the regression the
`paper-raw` preset exists to exercise.
"""
from __future__ import annotations

from .boxes import Box
from .core import Params

__all__ = [
    "PAPER_PARAMS",
    "PAPER_BOX",
    "RAW_BOX_FIELDS",
    "make_raw_box",
    "preset_params",
    "get_preset",
    "PRESETS",
]

PAPER_PARAMS = Params(c1=0.4, c2=0.55, c3=0.6, alpha=17.0)

PAPER_BOX = Box(
    x_l=0.5766666668,
    x_r=0.6316666668,
    y_l=0.3366666668,
    y_r=0.4516666668,
    z_l=0.0,
    z_r=0.3951779684,
)

# As printed in the source table: y_r with the typo.  Kept as plain fields
# because Box() refuses to build it.
RAW_BOX_FIELDS = {
    "x_l": 0.5766666668,
    "x_r": 0.6316666668,
    "y_l": 0.3366666668,
    "y_r": 0.04516666668,
    "z_l": 0.0,
    "z_r": 0.3951779684,
}


def make_raw_box() -> Box:
    """Attempt to build the raw (typo) box; raises InvalidBoxError."""
    return Box(**RAW_BOX_FIELDS)


def preset_params(name: str) -> Params:
    """The parameters of a preset, without building its box."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    return PAPER_PARAMS


def get_preset(name: str) -> tuple[Params, Box]:
    """Resolve a preset name to (params, box).  'paper-raw' raises on the
    box invariant, by design."""
    return preset_params(name), make_raw_box() if name == "paper-raw" else PAPER_BOX


PRESETS = {"paper", "paper-raw"}
