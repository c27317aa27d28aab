"""Exact verification lab for stable Kneser graphs and their relatives.

Builds the graph families (Kneser, stable Kneser, circular, cycle powers,
circulants, dihedral Cayley graphs), models the dihedral action on stable
k-subsets, and answers homomorphism, coloring, core, and isomorphism
questions with exact, certificate-producing search. The harness packages
the individual checks into reproducible verification suites behind a CLI.

Import names from the submodules; the package root holds only the two
budget types.
"""

from .budget import BudgetExhausted, SearchBudget
