"""Adaptive indoor visible-light system simulator.

Joint sensing (NLOS fingerprint localization), communication (SNR fields)
and illumination for a ceiling LED array, with the power-allocation
objective switched by the sensed user region.
"""

__version__ = "0.1.0"

from .scene import (Scene, SceneError, default_scene, dump_scene, load_scene)  # noqa: F401,E501
from .geometry import (Circle, ConvexPolygon, GeometryError, Point2, Region,  # noqa: F401
                       RegionPartition, build_partition, convex_hull,
                       max_inscribed_circle, min_enclosing_circle)
from .photometry import (FieldGrid, SimplificationError, field,  # noqa: F401
                         lambertian_order, snr_full)
from .sensing import (FingerprintTable, LocalizationResult, SensingModel,  # noqa: F401
                      build_fingerprint_table, load_fingerprint, localize,
                      occluded_set, save_fingerprint)
from .optimize import (EnhancedLp, SampledProgram, SolveReport,  # noqa: F401
                       SolveStatus, UniformityQp, build_enhanced_lp,
                       build_uniformity_qp, kkt_residual, solve, solve_refined)
from .controller import (BenchmarkThresholds, Mode, ScenarioTrace,  # noqa: F401
                         apply_mode, baseline_scenario, benchmark,
                         energy_report, generate_trajectory, run_scenario,
                         select_mode)
