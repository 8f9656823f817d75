"""Single home for the model parameters a caller may set.

The thresholds, bin counts, mining condition size and schema fuel are
declared here so that callers and tests can set them and reports can echo
them verbatim.  Each field's type and domain are declared here too, and
`Config` checks them on construction, so a value out of domain raises
`ConfigError` before any layer runs.  A search cap or budget that no caller
sets differently is a module constant beside the code that enforces it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import isfinite

from .structure import StructureError


class ConfigError(StructureError):
    pass


def _in(default, domain: str):
    """A field whose values lie in `domain`: "positive", "at least <lo>" or
    "<lo> to <hi>"."""
    return dataclasses.field(default=default, metadata={"domain": domain})


@dataclass(frozen=True)
class Config:
    # --- pixel analysis ---
    straightness_dev_px: float = _in(1.5, "positive")  # deviation mapping to score 0
    orientation_bins: int = _in(16, "at least 2")      # 22.5 degrees each
    joint_angle_bins: int = _in(12, "at least 1")      # 30 degrees each
    corner_angle_deg: float = _in(35.0, "0 to 180")    # turn that splits a chain
    corner_window: int = _in(3, "at least 0")          # pixels each side of a corner
    joint_radius_px: float = _in(2.5, "at least 0")    # endpoint gap making a joint
    tip_slack_px: float = _in(2.0, "at least 0")       # vertex zone out of deviation
    straight_min_score: float = _in(0.35, "0 to 1")    # gate for a chain as a segment
    min_segment_px: float = _in(4.0, "at least 0")     # shorter chains are connectors
    signature_threshold: float = _in(0.5, "0 to 1")

    # --- schema machine ---
    fuel_default: int = _in(1_000_000, "at least 1")

    # --- rule engine ---
    rule_threshold: float = _in(0.5, "0 to 1")         # condition score needed to fire
    recognition_min_score: float = _in(0.5, "0 to 1")  # mining's "recognized" cut-off
    mining_max_condition: int = _in(3, "0 to 8")       # a MicroSituation holds <= 8

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value, want = getattr(self, f.name), type(f.default)
            wanted = f.metadata["domain"]
            lo, _, hi = wanted.removeprefix("at least ").partition(" to ")
            # exact types, so a bool is no int; an int is fine for a float
            if type(value) is not want and (want, type(value)) != (float, int):
                wanted, value = want.__name__, type(value).__name__
            # json reads NaN and ±Infinity, which no report can echo
            elif type(value) is float and not isfinite(value):
                wanted = "finite"
            elif (value > 0 if wanted == "positive"
                  else float(lo) <= value <= float(hi or "inf")):
                continue
            raise ConfigError(f"config key {f.name} must be {wanted},"
                              f" not {value}")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def replace(self, **kw) -> "Config":
        return dataclasses.replace(self, **kw)


DEFAULT = Config()
