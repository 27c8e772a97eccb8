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

An artifact directory is owned here: ``write_artifact`` writes the recipe,
each frame's matrix (``primary.json``, and ``complement.json`` for a pair)
and certificate (``certificate_<role>.json``), and a pair's ``pair.json``;
``load_pair`` reads the complement and ``pair.json`` back and verifies the
pair.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from pathlib import Path

from . import constructions, designs, hadamard, qsd_bridge
from .errors import EtfForgeError, FrameError, HadamardError, InputError
from .frames import Frame, NaimarkPair, certify_etf, verify_naimark_pair
from .serialize import MAX_SIDE, JsonObject, certificate_to_obj, dump, frac_pair, in_range, json_ints, load, load_matrix
from .value import Value

RECIPE_SCHEMA = "etf-forge/recipe/v1"
PAIR_SCHEMA = "etf-forge/pair/v1"


class Artifact(Value):
    """The result of replaying a recipe: a frame or a complementary pair."""

    kind: str
    recipe: dict
    primary: Frame
    pair: NaimarkPair | None = None
    link: qsd_bridge.QsdEtfLink | None = None

    def frames(self) -> dict[str, Frame]:
        """The constructed frames by role: the primary, and a pair's complement."""
        return {"primary": self.primary} | ({"complement": self.pair.complement} if self.pair else {})


def write_artifact(artifact: Artifact, out_dir: Path) -> dict:
    """Write the recipe, each frame's matrix and certificate, and the pair
    document; returns the certificate documents by role."""
    out_dir.mkdir(parents=True, exist_ok=True)
    dump(artifact.recipe, out_dir / "recipe.json")
    if artifact.pair is not None:
        dump(pair_to_obj(artifact.pair), out_dir / "pair.json")
    certs = {role: certificate_to_obj(certify_etf(frame)) for role, frame in artifact.frames().items()}
    for role, frame in artifact.frames().items():
        dump(frame.matrix, out_dir / f"{role}.json")
        dump(certs[role], out_dir / f"certificate_{role}.json")
    return certs


def pair_to_obj(pair: NaimarkPair) -> dict:
    obj = {
        "schema": PAIR_SCHEMA,
        "d": pair.primary.d,
        "n": pair.primary.n,
        "alpha": frac_pair(pair.alpha),
    }
    if pair.complement.row_weights is not None:
        obj["complement_row_weights"] = [frac_pair(w) for w in pair.complement.row_weights]
    return obj


def _fractions(values, what: str, positive: bool = False) -> tuple[Fraction, ...]:
    """Each [num, den] integer pair with den > 0 (and num > 0 if ``positive``) as a Fraction."""
    pairs = json_ints(values, what, 2)
    if any(len(p) != 2 or p[1] < 1 or positive and p[0] < 1 for p in pairs):
        raise InputError(f"{what} {values!r} are not [num, den] pairs with {'num > 0 and ' * positive}den > 0")
    return tuple(Fraction(*p) for p in pairs)


def load_pair(directory, primary: Frame) -> NaimarkPair:
    """Verify the pair stored in a directory against its declared metadata.

    ``primary`` is the frame read from ``primary.json``; a caller that
    certifies it first gets the complement's certificate derived.  The
    complement is ``complement.json`` with the row weights of ``pair.json``,
    a pair document whose d, n and alpha must match the verified pair.  Its
    types and weight count are read before anything is verified.
    """
    directory = Path(directory)
    pair_path = directory / "pair.json"
    declared = weights = None
    if pair_path.exists():
        declared = load(pair_path)
        if not isinstance(declared, dict) or declared.get("schema") != PAIR_SCHEMA:
            raise InputError("pair.json is not a pair document")
        declared = JsonObject(declared, "pair.json")
        json_ints([declared["d"], declared["n"]], "pair.json d and n")
        _fractions([declared["alpha"]], "pair.json alpha")
        if "complement_row_weights" in declared:
            weights = _fractions(declared["complement_row_weights"], "pair.json complement_row_weights", True)
    matrix = load_matrix(directory / "complement.json")
    if weights is not None and len(weights) != matrix.rows:
        raise InputError(f"pair.json has {len(weights)} complement_row_weights for {matrix.rows} complement rows")
    pair = verify_naimark_pair(primary, Frame(matrix, row_weights=weights))
    if declared is not None:
        expected = pair_to_obj(pair)
        for key in ("d", "n", "alpha"):
            if declared[key] != expected[key]:
                raise FrameError(f"pair.json declares {key} {declared[key]!r}, the verified pair has {expected[key]!r}")
    return pair


def recipe(kind: str, **inputs) -> dict:
    return {"schema": RECIPE_SCHEMA, "kind": kind, "inputs": inputs}


def hadamard_from_spec(spec) -> hadamard.HadamardMatrix:
    spec = JsonObject(spec, "a Hadamard source")
    gen = spec.get("generator")
    if gen == "sylvester":
        return hadamard.sylvester(in_range("Sylvester exponent", spec["e"], 0, MAX_SIDE.bit_length() - 1))
    if gen == "paley":
        return hadamard.paley_one(in_range("Paley prime", spec["q"], 3, MAX_SIDE - 1))
    if gen == "dft":
        return hadamard.dft(in_range("Hadamard size", spec["n"], 1, MAX_SIDE))
    if gen == "size":
        return hadamard.hadamard_of_size(in_range("Hadamard size", spec["n"], 1, MAX_SIDE))
    if gen == "kron":
        left, right = hadamard_from_spec(spec["left"]), hadamard_from_spec(spec["right"])
        in_range("Kronecker size", left.n * right.n, 1, MAX_SIDE)
        return hadamard.kron(left, right)
    raise InputError(f"unknown Hadamard generator {gen!r}")


def design_from_spec(spec) -> designs.Design:
    spec = JsonObject(spec, "a design source")
    gen = spec.get("generator")
    if gen == "all-pairs":  # its Steiner frame has v^2 vectors
        return designs.all_pairs_design(in_range("design v", spec["v"], 3, isqrt(MAX_SIDE)))
    if gen == "round-robin":
        return designs.round_robin_resolution(in_range("design v", spec["v"], 4, isqrt(MAX_SIDE)))
    if gen == "fano":
        return designs.fano_plane()
    if gen == "blocks":
        return designs.design_from_fields(spec)
    raise InputError(f"unknown design generator {gen!r}")


def replay(rec: dict) -> Artifact:
    """Re-run a recipe, certifying everything it builds.  A document that is
    not a recipe, or holds a value of the wrong kind, raises InputError."""
    if JsonObject(rec, "a recipe").get("schema") != RECIPE_SCHEMA:
        raise InputError(f"not a recipe document: schema {rec.get('schema')!r}")
    kind = rec.get("kind")
    inputs = JsonObject(rec.get("inputs", {}), "recipe inputs")

    if kind == "simplex":
        h = hadamard_from_spec(inputs["hadamard"])
        frame = constructions.flat_regular_simplex(h, in_range("drop_row", inputs.get("drop_row", 0), 0, h.n - 1))
        return Artifact(kind, rec, frame)

    if kind == "harmonic":
        subset = json_ints(inputs["subset"], "subset")
        try:
            group = hadamard.AbelianGroup(json_ints(inputs["group"], "group"))
        except HadamardError as exc:
            raise InputError(str(exc)) from None
        in_range("group order", group.size, 2, MAX_SIDE)
        if any(not 0 <= i < group.size for i in subset):
            raise InputError(f"subset indices must lie in 0..{group.size - 1}, got {list(subset)}")
        if len(set(subset)) != len(subset):
            raise InputError(f"subset indices must be distinct, got {list(subset)}")
        ds = constructions.verify_difference_set(group, subset)
        pair = constructions.harmonic_etf(ds)
        return Artifact(kind, rec, pair.primary, pair)

    if kind == "steiner":
        lift = designs.lift_permutation(design_from_spec(inputs["design"]))
        st = constructions.SteinerInputs(
            lift,
            hadamard_from_spec(inputs["f"]),
            hadamard_from_spec(inputs["g"]),
            in_range("column", inputs.get("column", 1), 1, lift.k),
        )
        if st.column == 1:
            pair = constructions.steiner_naimark(st)
            return Artifact(kind, rec, pair.primary, pair)
        return Artifact(kind, rec, constructions.steiner_etf(st))

    if kind == "kirkman":
        u = in_range("Kirkman u", inputs["u"], 2, isqrt(MAX_SIDE) // 2)  # 4 u^2 vectors
        e = hadamard_from_spec(inputs["e"]) if "e" in inputs else hadamard.hadamard_of_size(u)
        pair = constructions.kirkman_etf(constructions.standard_kirkman_inputs(u, e=e))
        return Artifact(kind, rec, pair.primary, pair)

    if kind == "tensor":
        left = replay(inputs["left"])
        right = replay(inputs["right"])
        if left.pair is None or right.pair is None:
            raise EtfForgeError("tensor inputs must be complementary pairs")
        in_range("tensor vector count", left.primary.n * right.primary.n, 1, MAX_SIDE)
        pair = constructions.tensor_etf(left.pair, right.pair)
        return Artifact(kind, rec, pair.primary, pair)

    if kind == "qsd-to-etf":
        branch = inputs.get("branch", "plus")
        if branch not in ("plus", "minus"):
            raise InputError(f"branch must be 'plus' or 'minus', got {branch!r}")
        frame, link = qsd_bridge.etf_from_qsd(designs.verify_qsd(design_from_spec(inputs["design"])), branch)
        return Artifact(kind, rec, frame, link=link)

    raise InputError(f"unknown recipe kind {kind!r}")
