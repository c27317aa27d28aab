"""Exact verification lab for stable Kneser graphs and their relatives.

Builds the graph families (Kneser, stable Kneser, circular, cycle powers,
circulants, dihedral Cayley graphs), models the dihedral action on stable
k-subsets, and answers homomorphism, coloring, core, and isomorphism
questions with exact, certificate-producing search. The harness packages
the individual checks into reproducible verification suites behind a CLI.
"""

from .budget import BUDGET_ENV_VAR, BudgetExhausted, SearchBudget
from .cliques import ExtremalSet, clique_number, independence_number
from .coloring import (
    ChiFormula,
    ColoringResult,
    CriticalityReport,
    chromatic_number,
    closed_form_chi,
    is_chi_critical,
)
from .dihedral import (
    DihedralElement,
    ShiftSet,
    act_on_vertex,
    all_elements,
    compose,
    enumerate_shifts,
    induced_automorphism,
    inverse,
    is_shift,
    non_shift_witness,
    predicted_shifts,
    rotation,
)
from .dimacs import dimacs_dumps, dimacs_loads, read_dimacs, write_dimacs
from .families import (
    FamilySpec,
    cayley_dihedral,
    circulant,
    circular_graph,
    cycle_power,
    embed_circular_in_kneser,
    enumerate_stable_subsets,
    kneser,
    parse_family_spec,
    prop_iso_images,
    prop_iso_map,
    stable_kneser,
)
from .graphs import (
    Graph,
    GraphError,
    audit_graph,
    cartesian_product,
    complement,
    complete_graph,
    connected_components,
    cycle_graph,
    delete_vertex,
    disjoint_union,
    empty_graph,
    graph_power,
    induced_subgraph,
    make_graph,
    path_graph,
    verify_homomorphism,
)
from .homsolver import (
    CoreOutcome,
    Homomorphism,
    SolveOutcome,
    find_homomorphism,
    find_retraction,
    is_core,
    normal_cayley_self_hom,
)
from .isomorphism import are_isomorphic, verify_isomorphism
from .labels import CyclicElem, KSubset

__version__ = "0.1.0"
