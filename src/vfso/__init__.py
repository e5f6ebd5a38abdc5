"""vfso: link-budget and cost simulator for vertical free-space-optical backhaul.

Models a point-to-point optical link between a ground small cell and a
flying platform (attenuation by fog, rain, clouds, and turbulence plus
geometric beam spread), sizes how many cells one link can backhaul, and
compares the total cost of ownership of the airborne system against
terrestrial backhaul technologies on a random HetNet layout.
"""

from .aggregation import TrafficProfile, aggregated_demand, oversubscribes, supported_cells
from .atmosphere import (
    CloudLayer,
    FogDescriptor,
    RainDescriptor,
    TurbulenceDescriptor,
    WeatherScenario,
    cloud_visibility,
    fog_attenuation,
    kruse_size_exponent,
    mie_specific_attenuation,
    rain_attenuation,
    refractive_index_structure,
    scintillation_loss,
)
from .config import ConfigError, RunConfig, load_config, resolved_yaml
from .geometry import (
    LinkGeometry,
    geometrical_capture_fraction,
    geometrical_loss,
    slant_path,
)
from .hetnet_cost import (
    Area,
    CostParams,
    FiberCostParams,
    HetNetLayout,
    RfNlosCostParams,
    TcoResult,
    TerrestrialFsoCostParams,
    VerticalFsoCostParams,
    compare_tco,
    cost_fiber,
    cost_rf_nlos,
    cost_terrestrial_fso,
    cost_vertical_fso,
    generate_layout,
)
from .link_budget import (
    DEFAULT_TARGET_RATE_BPS,
    LinkBudgetResult,
    LossBreakdown,
    TransceiverParams,
    achievable_rate,
    evaluate_link,
    link_margin,
    photon_energy,
    received_power,
)
from .scenario import (
    ALTITUDE_SWEEP_BOUNDS_M,
    DEFAULT_CLOUD_PROFILE,
    SweepResult,
    SweepSpec,
    default_parameters,
    preset,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ALTITUDE_SWEEP_BOUNDS_M",
    "Area",
    "CloudLayer",
    "ConfigError",
    "CostParams",
    "DEFAULT_CLOUD_PROFILE",
    "DEFAULT_TARGET_RATE_BPS",
    "FiberCostParams",
    "FogDescriptor",
    "HetNetLayout",
    "LinkBudgetResult",
    "LinkGeometry",
    "LossBreakdown",
    "RainDescriptor",
    "RfNlosCostParams",
    "RunConfig",
    "SweepResult",
    "SweepSpec",
    "TcoResult",
    "TerrestrialFsoCostParams",
    "TrafficProfile",
    "TransceiverParams",
    "TurbulenceDescriptor",
    "VerticalFsoCostParams",
    "WeatherScenario",
    "achievable_rate",
    "aggregated_demand",
    "cloud_visibility",
    "compare_tco",
    "cost_fiber",
    "cost_rf_nlos",
    "cost_terrestrial_fso",
    "cost_vertical_fso",
    "default_parameters",
    "evaluate_link",
    "fog_attenuation",
    "generate_layout",
    "geometrical_capture_fraction",
    "geometrical_loss",
    "kruse_size_exponent",
    "link_margin",
    "load_config",
    "mie_specific_attenuation",
    "oversubscribes",
    "photon_energy",
    "preset",
    "rain_attenuation",
    "received_power",
    "refractive_index_structure",
    "resolved_yaml",
    "run_sweep",
    "scintillation_loss",
    "slant_path",
    "supported_cells",
]
