"""Comparison schemes: native, VFIO, SPDK vhost, and rig builders."""

from .features import FEATURE_COLUMNS, SCHEMES, SchemeProperties, feature_matrix
from .registry import SCHEME_DEFS, SchemeDef, runnable_schemes, scheme_def, table1_schemes
from .native import NATIVE_SCHEME
from .rigs import (
    BMStoreRig,
    NativeRig,
    SPDKRig,
    VFIORig,
    build_bmstore,
    build_native,
    build_spdk,
    build_vfio,
)
from .spdk_vhost import SPDKConfig, SPDKVhostTarget, VhostBlockDevice
from .vfio import VFIOAssignment

__all__ = [
    "FEATURE_COLUMNS",
    "SCHEMES",
    "SchemeProperties",
    "feature_matrix",
    "SCHEME_DEFS",
    "SchemeDef",
    "runnable_schemes",
    "scheme_def",
    "table1_schemes",
    "NATIVE_SCHEME",
    "BMStoreRig",
    "NativeRig",
    "SPDKRig",
    "VFIORig",
    "build_bmstore",
    "build_native",
    "build_spdk",
    "build_vfio",
    "SPDKConfig",
    "SPDKVhostTarget",
    "VhostBlockDevice",
    "VFIOAssignment",
]
