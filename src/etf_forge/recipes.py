"""Replayable construction recipes.

A recipe is a plain JSON object {"schema": "etf-forge/recipe/v1", "kind":
..., "inputs": {...}} that fully determines a constructed object, so the
catalog can re-run it and re-verify the stored payload at any time.

Hadamard sources: {"generator": "sylvester", "e": int},
{"generator": "paley", "q": int}, {"generator": "dft", "n": int},
{"generator": "size", "n": int}, or
{"generator": "kron", "left": ..., "right": ...}.

Design sources: {"generator": "all-pairs", "v": int},
{"generator": "round-robin", "v": int}, {"generator": "fano"}, or
{"generator": "blocks", "v": int, "blocks": [[1-based vertices]],
"parallel_classes": [[0-based block indices]]?}.
"""

from __future__ import annotations

from .constructions import (
    SteinerInputs,
    flat_regular_simplex,
    harmonic_etf,
    kirkman_etf,
    standard_kirkman_inputs,
    steiner_etf,
    steiner_naimark,
    tensor_etf,
    verify_difference_set,
)
from .designs import Design, all_pairs_design, fano_plane, lift_permutation, round_robin_resolution, verify_qsd
from .errors import EtfForgeError, HadamardError, InputError
from .frames import Frame, NaimarkPair
from .hadamard import AbelianGroup, HadamardMatrix, dft, hadamard_of_size, kron, paley_one, sylvester
from .qsd_bridge import QsdEtfLink, etf_from_qsd
from .serialize import RECIPE_SCHEMA, checked_design
from .value import Value


class Artifact(Value):
    """The result of replaying a recipe: a frame or a complementary pair."""

    kind: str
    recipe: dict
    primary: Frame
    pair: NaimarkPair | None = None
    link: QsdEtfLink | None = None

    def frames(self) -> dict[str, Frame]:
        """The constructed frames by role: the primary, and a pair's complement."""
        return {"primary": self.primary} | ({"complement": self.pair.complement} if self.pair else {})


def recipe(kind: str, **inputs) -> dict:
    return {"schema": RECIPE_SCHEMA, "kind": kind, "inputs": inputs}


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{what} is not a JSON object: {value!r}")
    return value


def _ints(values, read=int) -> tuple:
    """``read`` of each value of a recipe list: int(), as recipes have always
    been read, or ``_ints`` for a list of lists.  What it cannot read is bad input."""
    try:
        return tuple(map(read, values))
    except (TypeError, OverflowError):
        raise InputError(f"recipe values {values!r} are not integers") from None


def _int(value) -> int:
    return _ints([value])[0]


def hadamard_from_spec(spec) -> HadamardMatrix:
    gen = _object(spec, "a Hadamard source").get("generator")
    if gen == "sylvester":
        return sylvester(_int(spec["e"]))
    if gen == "paley":
        return paley_one(_int(spec["q"]))
    if gen == "dft":
        return dft(_int(spec["n"]))
    if gen == "size":
        return hadamard_of_size(_int(spec["n"]))
    if gen == "kron":
        return kron(hadamard_from_spec(spec["left"]), hadamard_from_spec(spec["right"]))
    raise InputError(f"unknown Hadamard generator {gen!r}")


def design_from_spec(spec) -> Design:
    gen = _object(spec, "a design source").get("generator")
    if gen == "all-pairs":
        return all_pairs_design(_int(spec["v"]))
    if gen == "round-robin":
        return round_robin_resolution(_int(spec["v"]))
    if gen == "fano":
        return fano_plane()
    if gen == "blocks":
        blocks = [tuple(x - 1 for x in block) for block in _ints(spec["blocks"], _ints)]
        classes = spec.get("parallel_classes")
        return checked_design(_int(spec["v"]), blocks, _ints(classes, _ints) if classes else None)
    raise InputError(f"unknown design generator {gen!r}")


def replay(rec: dict) -> Artifact:
    """Re-run a recipe, certifying everything it builds.  A document that is
    not a recipe, or holds a value of the wrong kind, raises InputError."""
    if _object(rec, "a recipe").get("schema") != RECIPE_SCHEMA:
        raise InputError(f"not a recipe document: schema {rec.get('schema')!r}")
    kind = rec.get("kind")
    inputs = _object(rec.get("inputs", {}), "recipe inputs")

    if kind == "simplex":
        h = hadamard_from_spec(inputs["hadamard"])
        frame = flat_regular_simplex(h, _int(inputs.get("drop_row", 0)))
        return Artifact(kind, rec, frame)

    if kind == "harmonic":
        subset = _ints(inputs["subset"])
        try:
            group = AbelianGroup(_ints(inputs["group"]))
        except HadamardError as exc:
            raise InputError(str(exc)) from None
        if any(not 0 <= i < group.size for i in subset):
            raise InputError(f"subset indices must lie in 0..{group.size - 1}, got {list(subset)}")
        ds = verify_difference_set(group, subset)
        pair = harmonic_etf(ds)
        return Artifact(kind, rec, pair.primary, pair)

    if kind == "steiner":
        design = design_from_spec(inputs["design"])
        st = SteinerInputs(
            lift_permutation(design),
            hadamard_from_spec(inputs["f"]),
            hadamard_from_spec(inputs["g"]),
            _int(inputs.get("column", 1)),
        )
        if st.column == 1:
            pair = steiner_naimark(st)
            return Artifact(kind, rec, pair.primary, pair)
        return Artifact(kind, rec, steiner_etf(st))

    if kind == "kirkman":
        u = _int(inputs["u"])
        e = hadamard_from_spec(inputs["e"]) if "e" in inputs else hadamard_of_size(u)
        pair = kirkman_etf(standard_kirkman_inputs(u, e=e))
        return Artifact(kind, rec, pair.primary, pair)

    if kind == "tensor":
        left = replay(inputs["left"])
        right = replay(inputs["right"])
        if left.pair is None or right.pair is None:
            raise EtfForgeError("tensor inputs must be complementary pairs")
        pair = tensor_etf(left.pair, right.pair)
        return Artifact(kind, rec, pair.primary, pair)

    if kind == "qsd-to-etf":
        design = design_from_spec(inputs["design"])
        cert = verify_qsd(design)
        frame, link = etf_from_qsd(cert, inputs.get("branch", "plus"))
        return Artifact(kind, rec, frame, link=link)

    raise InputError(f"unknown recipe kind {kind!r}")
