"""A laboratory for learning branching backdoors of mixed-binary MILPs.

The package generates benchmark instances, searches for candidate backdoors
with a UCT tree search over a built-in branch-and-bound solver, trains a
graph attention scorer with a contrastive loss, and evaluates greedily
selected backdoors by priority-guided solving.
"""

from .bnb import BnbConfig, SolveResult, restricted_probe, select_branch_var, solve_bnb, tree_weight
from .features import BipartiteGraph, featurize
from .generators import (
    GENERATORS,
    gen_combinatorial_auction,
    gen_facility_location,
    gen_gisp,
    gen_mis,
    gen_setcover,
)
from .gnn import (
    GatParameters,
    TrainConfig,
    TrainSample,
    adam_step,
    gat_forward,
    greedy_select,
    infonce_loss,
    load_model,
    save_model,
    train,
)
from .milp import (
    MilpInstance,
    lp_relaxation,
    make_instance,
    read_instance,
    validate_instance,
    write_instance,
)
from .pipeline import CollectConfig, EvalRecord, collect_dataset, evaluate, predict_backdoor, report
from .search import Backdoor, LabeledSample, biased_sample, label_samples, mcts_search
from .simplex import LpSolution, LpWorkspace

__version__ = "0.1.0"
