"""etf-forge: exact-arithmetic construction and certification of
equiangular tight frames, Hadamard matrices, and the block designs that
generate them.

All verification is tolerance-free: matrices live over cyclotomic or real
quadratic fields, every identity is checked exactly, and every generator
routes its output through the corresponding verifier.  Values are immutable
and all operations are pure functions, so everything here is safe to share
across threads.

``import etf_forge`` runs no submodule until a name is used.  Every
submodule but ``cli`` is registered in ``sys.modules`` and here as a
deferred module: its first missing attribute runs its body, once and under
one package lock, so a command-line child compiles only the layers its
subcommand reaches.  The public names below are re-exported from their
modules on first use (PEP 562).
"""

import sys
import threading
from importlib.util import find_spec, module_from_spec
from types import ModuleType

__version__ = "0.1.0"

# module -> the public names this package re-exports from it
_EXPORTS = {
    "errors": "CatalogError DesignError DomainError EtfForgeError FrameError HadamardError InputError",
    "scalars": "CycloElem QuadElem rational_sqrt",
    "matrices": "RATIONAL ExactMatrix cyclo_domain kron matmul quad_domain scaled_identity vstack",
    "designs": "Design DesignParams PermutationLift QsdCertificate SrgParams all_pairs_design complement_design "
               "etf_params_from_srg fano_plane lift_permutation round_robin_resolution srg_params_from_qsd "
               "verify_bibd verify_qsd verify_srg",
    "hadamard": "AbelianGroup HadamardMatrix char_table dft hadamard_of_size paley_one sylvester verify_hadamard",
    "frames": "EtfCertificate Frame NaimarkPair certify_etf certify_hadamard_etf gram gram_to_hadamard "
              "hadamard_to_gram verify_naimark_pair welch_bound_sq",
    "constructions": "DifferenceSet KirkmanInputs SteinerInputs flat_regular_simplex harmonic_etf kirkman_etf "
                     "standard_kirkman_inputs steiner_etf steiner_naimark tensor_etf verify_difference_set",
    "qsd_bridge": "FeasibilityReport FlatEtfExtraction GerzonReport QsdEtfLink canonical_sign etf_from_qsd "
                  "flat_family_qsd_params flat_feasibility gerzon_bounds qsd_frame_scalars qsd_from_flat_etf "
                  "qsd_gives_etf qsd_params_from_rbibd",
    "catalog": "Catalog",
    "recipes": "Artifact recipe replay",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)
_LOCK = threading.RLock()
_PENDING = {}  # full name -> spec of each registered submodule whose body has not run


class _Deferred(ModuleType):
    """A registered submodule whose body has not run yet.  Its first missing
    attribute runs the body under the package lock, then makes it a plain
    module; until then a thread that finds a name missing waits for it."""

    def __getattr__(self, name):
        with _LOCK:
            spec = _PENDING.pop(self.__name__, None)  # a body reaching back into itself sees it part-run
            if spec is not None:
                try:
                    spec.loader.exec_module(self)
                except BaseException:
                    _PENDING[spec.name] = spec
                    raise
                self.__class__ = ModuleType
        return ModuleType.__getattribute__(self, name)


# `cli` is left to the import system: registered here, `python -m etf_forge.cli` would warn that it
# found the module in sys.modules before running it.
for _name in ("errors", "value", "scalars", "matrices", "serialize", "designs", "hadamard", "frames",
              "constructions", "qsd_bridge", "recipes", "catalog"):
    _spec = find_spec(f"{__name__}.{_name}")
    _PENDING[_spec.name] = _spec
    sys.modules[_spec.name] = globals()[_name] = module_from_spec(_spec)
    globals()[_name].__class__ = _Deferred
del _name, _spec


def __getattr__(name):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
