"""The positive and non-negative bounds of the constructors: each field, its
bound and the exact message naming it."""

import math
import re
from dataclasses import fields, replace

import pytest

from vfso.aggregation import DEFAULT_TRAFFIC
from vfso.config import CostConfig, RunConfig
from vfso.hetnet_cost import (
    FiberCostParams,
    RfNlosCostParams,
    TerrestrialFsoCostParams,
    VerticalFsoCostParams,
)
from vfso.scenario import (
    DEFAULT_CLOUD_PROFILE,
    DEFAULT_FOG,
    DEFAULT_RAIN,
    DEFAULT_TURBULENCE,
    default_parameters,
)

TRANSCEIVER, GEOMETRY, _ = default_parameters()
CLOUD = DEFAULT_CLOUD_PROFILE[0]
COST_PARAMS = [
    RfNlosCostParams(),
    FiberCostParams(),
    TerrestrialFsoCostParams(),
    VerticalFsoCostParams(),
]

POSITIVE = [
    (TRANSCEIVER, "transmit_power_w"),
    (TRANSCEIVER, "wavelength_nm"),
    (TRANSCEIVER, "receiver_sensitivity_photons_per_bit"),
    (GEOMETRY, "nfp_altitude_m"),
    (GEOMETRY, "divergence_rad"),
    (GEOMETRY, "receiver_radius_m"),
    (DEFAULT_FOG, "visibility_km"),
    (CLOUD, "lwc_g_per_m3"),
    (CLOUD, "droplet_density_per_cm3"),
    (DEFAULT_TRAFFIC, "busy_rate_bps"),
    (RunConfig(), "target_rate_bps"),
]
NON_NEGATIVE = [
    (TRANSCEIVER, "pointing_loss_db"),
    (DEFAULT_FOG, "layer_thickness_m"),
    (DEFAULT_RAIN, "rate_mm_per_hour"),
    (DEFAULT_RAIN, "layer_thickness_m"),
    (CLOUD, "base_altitude_m"),
    (CLOUD, "thickness_m"),
    (DEFAULT_TURBULENCE, "wind_speed_m_per_s"),
    (DEFAULT_TURBULENCE, "structure_constant_a"),
    (DEFAULT_TURBULENCE, "reference_altitude_m"),
    (RunConfig(), "seed"),
    (CostConfig(), "years"),
    *[(params, f.name) for params in COST_PARAMS for f in fields(params)],
]
BOUNDED = POSITIVE + NON_NEGATIVE
CASES = [
    *[(valid, name, 0.0, "must be positive, got 0.0") for valid, name in POSITIVE],
    *[(valid, name, -1.0, "must be non-negative, got -1.0") for valid, name in NON_NEGATIVE],
    *[(valid, name, math.nan, "must be finite, got nan") for valid, name in BOUNDED],
]


@pytest.mark.parametrize(
    "valid, name, value, rule",
    CASES,
    ids=[f"{type(valid).__name__}.{name}={value}" for valid, name, value, _ in CASES],
)
def test_each_bound_names_its_field(valid, name, value, rule):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {rule}')}$"):
        replace(valid, **{name: value})
