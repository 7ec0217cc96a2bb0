"""Adaptive indoor visible-light system simulator.

Joint sensing (NLOS fingerprint localization), communication (SNR fields)
and illumination for a ceiling LED array, with the power-allocation
objective switched by the sensed user region.

The package exports what each command runs and the types those calls take,
return or raise; everything else is reached through its module.
"""

__version__ = "0.1.0"

from .scene import Scene, SceneError, default_scene, dump_scene, load_scene  # noqa: F401
from .geometry import GeometryError, Region, RegionPartition, build_partition  # noqa: F401
from .photometry import FieldGrid, SimplificationError, field  # noqa: F401
from .sensing import (FingerprintTable, LocalizationResult, SensingModel,  # noqa: F401
                      build_fingerprint_table, load_fingerprint, localize, save_fingerprint)
from .optimize import (SampledProgram, SolveReport, SolveStatus,  # noqa: F401
                       build_enhanced_lp, build_uniformity_qp, solve_refined)
from .controller import (BenchmarkThresholds, Mode, ScenarioTrace,  # noqa: F401
                         baseline_scenario, benchmark, energy_report,
                         generate_trajectory, run_scenario)
