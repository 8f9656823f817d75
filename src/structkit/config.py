"""Single home for the model parameters a caller may set.

The thresholds, bin counts, mining condition size and schema fuel are
declared here so that callers and tests can set them and reports can echo
them verbatim.  A search cap or budget that no caller sets differently is a
module constant beside the code that enforces it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    # --- pixel analysis ---
    straightness_dev_px: float = 1.5      # max chord deviation mapping to score 0
    orientation_bins: int = 16            # 22.5 degrees each
    joint_angle_bins: int = 12            # 30 degrees each
    corner_angle_deg: float = 35.0        # direction break that splits a chain
    corner_window: int = 3                # pixels on each side of a corner probe
    joint_radius_px: float = 2.5          # endpoint proximity that makes a joint
    tip_slack_px: float = 2.0             # vertex zone excluded from deviation
    straight_min_score: float = 0.35      # gate for treating a chain as a segment
    min_segment_px: float = 4.0           # shorter chains act as joint connectors
    signature_threshold: float = 0.5

    # --- schema machine ---
    fuel_default: int = 1_000_000

    # --- rule engine ---
    rule_threshold: float = 0.5           # condition score needed to fire
    recognition_min_score: float = 0.5    # score counting as "recognized" in mining
    mining_max_condition: int = 3
    validation_threshold: float = 0.7     # smoothed p making a rule "validated"

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def replace(self, **kw) -> "Config":
        return dataclasses.replace(self, **kw)


DEFAULT = Config()
