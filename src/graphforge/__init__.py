"""graphforge: group actions on graphs with exact desk-scale audits."""

from .words import Word, NormalForm
from .groups import (
    Group,
    FiniteGroup,
    FreeGroup,
    FreeAbelianGroup,
    FreeProductGroup,
    AmalgamGroup,
    HNNGroup,
    ball_enumerate,
    conjugacy_probe,
)
from .subgroups import (
    Subgroup,
    Monomorphism,
    build_amalgam,
    build_hnn,
    check_monomorphism,
    YES,
    NO,
    UNKNOWN,
)

__version__ = "0.1.0"

__all__ = [
    "Word", "NormalForm",
    "Group", "FiniteGroup", "FreeGroup", "FreeAbelianGroup",
    "FreeProductGroup", "AmalgamGroup", "HNNGroup",
    "ball_enumerate", "conjugacy_probe",
    "Subgroup", "Monomorphism", "build_amalgam", "build_hnn",
    "check_monomorphism",
    "YES", "NO", "UNKNOWN",
]
