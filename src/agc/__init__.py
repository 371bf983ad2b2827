"""Finite permutation groups, their structure, and commuting graphs."""

from .errors import (
    AgcError,
    FormatError,
    GroupTooLarge,
    InvalidAction,
    MalformedPermutation,
    NotComplement,
    NotNormal,
    NotSolvable,
    PrimeNotDividing,
)
from .perm import (
    FiniteGroup,
    Subgroup,
    closure,
    full_subgroup,
    generated_subgroup,
    p_part,
    prime_divisors,
    trivial_subgroup,
)
from .groupfile import (
    GroupFile,
    group_to_file,
    load_group,
    parse_group_file,
    save_group,
    serialize_group_file,
)
from .products import direct_product, quotient, semidirect_product
from .constructions import (
    abelian,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    matrix_action_group,
    metacyclic,
    quaternion,
    symmetric,
)
from .structure import (
    DerivedSeries,
    SylowSystem,
    center,
    centralizer,
    conjugacy_classes,
    derived_series,
    derived_subgroup,
    fitting_subgroup,
    is_solvable,
    minimal_normal_subgroups,
    normal_subgroups,
    normalizer,
    sylow_subgroup,
    sylow_subgroups,
    sylow_system,
    system_normalizer,
)
from .classify import (
    Classification,
    GroupAnalysis,
    corollary_class,
    is_2frobenius,
    is_a_group,
    is_frobenius,
    satisfies_hypothesis,
)
from .graph import CommutingGraph, DiameterResult
from .verify import (
    CheckRecord,
    group_fingerprint,
    group_report,
    run_all_checks,
)
from .witness import build_witness, witness_fingerprint

__all__ = [name for name in dir() if not name.startswith("_")]
