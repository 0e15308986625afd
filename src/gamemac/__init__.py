"""Nonlocal-game-based multiple access channels and their correlation-
assisted sum-capacities."""

from . import qkernel
from .games import NonlocalGame, chsh_game, game_by_name, magic_square_game, mpp_game
from .correlations import (
    CorrelationBox,
    Encoder,
    e_star,
    local_deterministic_boxes,
    magic_square_box,
    mpp_box,
    pr_box,
    tsirelson_box,
    validate_box,
)
from .channels import MacChannel, depolarizing_mac, noise_f, two_branch_mac, type_i, type_ii
from .infotheory import (
    ProductDistribution,
    compose,
    conditional_mutual_information,
    entropy,
    mutual_information,
    prop3_rate,
    sum_rate,
    win_probability,
)
from .capacity import (
    CapacityResult,
    OptimizerConfig,
    bruteforce_classical_game_value,
    classical_capacity_exact,
    classical_upper_bound,
    maximize_over_pi,
    pseudo_telepathy_capacity,
    quantum_lower_bound_chsh,
    sweep,
    vertex_file_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
