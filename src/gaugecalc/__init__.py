"""gaugecalc: gauge (Henstock-Kurzweil-Stieltjes) integration toolkit."""

from .intervals import (
    Box,
    Gauge,
    GaugeBudgetError,
    Partition,
    PartitionReport,
    TaggedPartition,
    cousin_partition,
    enumerate_partitions,
    is_partition,
    random_fine_partition,
)
from .funcspace import (
    Expr,
    EvalDomainError,
    IntervalFunction,
    ParseError,
    PointFunction,
    SuperadditiveFn,
    parse,
    partition_defect,
    to_text,
)
from .hk import (
    IntegralResult,
    cumulative,
    delta_variation_bruteforce,
    delta_variation_dp,
    delta_variation_dp_table,
    delta_variation_dp_tables,
    hk_integrate,
    indefinite_hk,
    residual_cell_fn,
    riemann_sum,
    volume_power_cell_fn,
)
from .mc import (
    ControlFunction1D,
    McVerdict,
    bounded_control,
    chebyshev_points,
    combine_controls,
    control_from_gauges,
    gauge_from_control,
    glue_controls,
    mc_defect,
    mct_control,
    rescale,
    verify_mc,
    verify_mc_nd,
)
from .calculus import (
    IdentityReport,
    MctReport,
    check_change_of_variables,
    check_interval_additivity,
    check_monotone,
    check_parts,
    constancy_check,
    mct_experiment,
)
from .limits import one_sided_limit

__version__ = "0.1.0"
