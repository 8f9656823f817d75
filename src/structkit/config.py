"""Single home for every tunable.

Every threshold, bin count, cap and budget used anywhere in the package is
declared here so that tests can pin them and reports can echo them verbatim.
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

    # --- structure operations ---
    occurrence_part_cap: int = 64         # operand size cap for difference/convolution
    motif_size_cap: int = 5               # case-1 regularity motif cap
    edit_eps: float = 0.10                # case-2 "small change" fraction
    partition_cap: int = 8                # canonical partitions returned
    recipe_cap: int = 64                  # case-3 derivation recipes tried

    # --- schema machine ---
    fuel_default: int = 1_000_000

    # --- rule engine ---
    rule_threshold: float = 0.5           # condition score needed to fire
    recognition_min_score: float = 0.5    # score counting as "recognized" in mining
    mining_max_condition: int = 3
    validation_threshold: float = 0.7     # smoothed p making a rule "validated"

    # --- solver ---
    solve_budget_default: int = 100_000

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def replace(self, **kw) -> "Config":
        return dataclasses.replace(self, **kw)


DEFAULT = Config()
