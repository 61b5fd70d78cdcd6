"""Time-periodic branched transport between atomic measure paths.

Evaluates discrete transport energies with cycle decomposition, builds
multiscale flux approximations with certified bounds, computes
Wasserstein-1 lower bounds, and searches for low-energy transport
graphs, bracketing the induced distance from both sides.
"""

from .cost import TransportCost, check_admissible, eval_cost, power_cost, rho, tabulated_cost
from .measures import (
    AtomicMeasurePath,
    DyadicLevelSpec,
    SignedAtomicPath,
    TimeGrid,
    derivative_path,
    dyadic_project,
    make_atomic_path,
    mollified_dyadic_project,
    sobolev_seminorm,
)
from .graph import (
    CycleDecomposition,
    EnergyReport,
    TransportGraph,
    decompose,
    derivative_graph,
    derivative_lp_norm,
    eliminate_cycles,
    energy,
    enumerate_cycles,
    holder_check,
    kirchhoff_residual,
    m_tau_p,
    make_graph,
    separate_supports,
    tv_norm,
)
from .dyadic import (
    band_flux,
    band_flux_bounds,
    connector,
    elementary_flux,
    recursive_flux,
)
from .wasserstein import BalancedSignedMeasure, lid1, lid1_path_norm, lower_bound
from .optimize import DistanceReport, OptimizerConfig, baseline_upper, local_search, metric_probe, optimize_weights
from .instance import InstanceFile, load_instance, save_instance

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
