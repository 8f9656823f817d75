"""Every `Config` field holds only values of its type and domain."""

import dataclasses
import math

import pytest

from structkit.config import DEFAULT, Config, ConfigError

inf = math.inf

# (type, least, greatest, least excluded) per field, as README lists them
DOMAINS = {
    "straightness_dev_px": (float, 0.0, inf, True),
    "orientation_bins": (int, 2, inf, False),
    "joint_angle_bins": (int, 1, inf, False),
    "corner_angle_deg": (float, 0.0, 180.0, False),
    "corner_window": (int, 0, inf, False),
    "joint_radius_px": (float, 0.0, inf, False),
    "tip_slack_px": (float, 0.0, inf, False),
    "straight_min_score": (float, 0.0, 1.0, False),
    "min_segment_px": (float, 0.0, inf, False),
    "signature_threshold": (float, 0.0, 1.0, False),
    "fuel_default": (int, 1, inf, False),
    "rule_threshold": (float, 0.0, 1.0, False),
    "recognition_min_score": (float, 0.0, 1.0, False),
    "mining_max_condition": (int, 0, 8, False),
}


def step(value, kind, towards):
    """The next value of `kind` after `value` in the direction of `towards`."""
    if kind is int:
        return value + (1 if towards > value else -1)
    return math.nextafter(value, towards)


def cases():
    """(field, value, in domain) at each bound, one step past it, and values
    of the wrong type or not finite."""
    for name, (kind, lo, hi, lo_open) in DOMAINS.items():
        least = step(lo, kind, inf) if lo_open else lo
        yield name, least, True
        yield name, step(least, kind, -inf), False
        if hi < inf:
            yield name, hi, True
            yield name, step(hi, kind, inf), False
        elif kind is int:
            yield name, 10 ** 400, True   # too large for a float
        yield name, str(least), False
        yield name, True, False           # a bool is no int
        if kind is int:
            yield name, float(least), False
        else:
            yield name, int(math.ceil(least)), True
            yield from ((name, v, False) for v in (math.nan, inf, -inf))


def test_domains_cover_every_field():
    assert sorted(DOMAINS) == sorted(f.name for f in dataclasses.fields(Config))
    assert all(type(getattr(DEFAULT, n)) is DOMAINS[n][0] for n in DOMAINS)


@pytest.mark.parametrize("name, value, ok", list(cases()),
                         ids=lambda v: repr(v)[:24])
def test_config_rejects_exactly_out_of_domain_values(name, value, ok):
    if ok:
        assert getattr(Config(**{name: value}), name) == value
        assert getattr(DEFAULT.replace(**{name: value}), name) == value
        return
    with pytest.raises(ConfigError, match=f"config key {name} must be "):
        Config(**{name: value})
    with pytest.raises(ConfigError):
        DEFAULT.replace(**{name: value})

