"""Scenario files: the version-1 schema, parsing, and template generation.

A scenario is a JSON document describing one complete experiment:

    {
      "schema_version": 1,
      "description": "free text, optional",
      "spaces": [{"label": "lambda", "values": ["0", "1"]}, ...],
      "settings": {"a": 0.0, "a_prime": 1.5708, "b": 0.7854, "b_prime": -0.7854},
      "model": {...},
      "distributions": {...},
      "comparison_model": {...},        # optional, for the emulation analysis
      "run": {
        "estimator": {"method": "exact"}
                   | {"method": "monte-carlo", "samples": 1000000, "seed": 7},
        "analyses": ["correlations", "chsh", "bell-check", "feasibility"]
      }
    }

Spaces are declared once and referenced elsewhere by label.  Every weight
array is flat in row-major order over its domain.  Model payloads carry a
``kind`` tag:

    {"kind": "DeterministicSource", "space": "lambda",
     "tables": {"a": [1.0, -1.0], "a_prime": ..., "b": ..., "b_prime": ...}}

    {"kind": "StochasticSource", "space": "lambda",
     "tables": {"a": [0.3, 0.9], ...}}           # p(+1), in [0, 1]

    {"kind": "Contextual", "space": "lambda", "separated": false,
     "tables": {"a|b": [...], "a|b_prime": [...], ..., "b_prime|a_prime": [...]}}

    {"kind": "ApparatusDeterministic",
     "spaces": {"source": "lambda", "a": "lambda_a", "a_prime": ...,
                "b": ..., "b_prime": ...},
     "tables": {"a": [[1.0, -1.0], [-1.0, 1.0]], ...}}   # shape |lambda| x |lambda_a|

Distribution payloads carry a ``mode`` tag:

    {"mode": "SourceOnly", "rho": DIST}
    {"mode": "SettingDependent", "marginals": {"a|b": DIST, ...}}   # all four pairs
    {"mode": "FactorizedApparatus", "rho": DIST,
     "apparatus": {"a": DIST, "a_prime": DIST, "b": DIST, "b_prime": DIST}}
    {"mode": "JointComposite", "joint": DIST}

where DIST is {"domain": ["lambda", ...], "weights": [flat row-major floats]}.

Parsing is strict: structural problems, a key the schema does not define
at any level, nested DIST weights, an array entry that is not a JSON
number, two marginal keys for one setting pair and a key repeated within
one JSON object raise CliError naming the field.
Payloads go straight to the constructors of their modules, so a payload
that breaks a module's invariant raises that module's error (for example
a negative weight raises HvCoreError, tagged ``hv-core``).  Parts that do
not fit together raise what the owner of the broken rule raises for a
library caller: ``correlation.check_fit`` for a model that does not fit
its mode (the comparison model's mode is SourceOnly over the source
distribution), ``feasibility.family_spaces`` for a feasibility analysis
on a mode with no setting-pair family.  The emulation rules raise
CliError.
``generate_scenario`` emits ready-to-run documents for the four bundled
templates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from hashlib import sha256
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .correlation import (MAX_SAMPLES, EstimatorInfo, FactorizedApparatus,
                          JointComposite, ScenarioDistributions,
                          SettingDependent, SourceOnly, check_fit)
from .errors import BellsimError, CliError, ParameterOutOfRange
from .feasibility import construct_nonlocal_witness, family_spaces
from .models import (ApparatusDeterministic, Contextual, DeterministicSource,
                     ResponseModel, Setting, StochasticSource,
                     standard_settings, stochastic_from_apparatus)
from .spaces import (APPARATUS_LABELS, SETTING_NAMES, SETTING_PAIRS,
                     Distribution, FiveSpaces, HiddenSpace, pair_key)

SCHEMA_VERSION = 1

ANALYSES = ("correlations", "chsh", "bell-check", "feasibility", "emulation")

#: Each bundled template and its default description.
_DESCRIPTIONS = {
    "factorized": "factorized apparatus correlations; the bound-respecting "
                  "construction with independent per-setting noise",
    "joint-composite": "one joint distribution over the composite hidden "
                       "variable; every setting-pair marginal comes from it",
    "setting-dependent-witness": "setting-dependent apparatus marginals tuned "
                                 "to the singlet; violates the bound and "
                                 "admits no joint distribution",
    "stochastic-equivalent": "apparatus model plus its collapsed stochastic "
                             "equivalent; both report the same correlations",
}

TEMPLATES = tuple(_DESCRIPTIONS)

#: The top-level fields of a scenario document.
_FIELDS = ("schema_version", "description", "spaces", "settings", "model",
           "distributions", "comparison_model", "run")

#: The fields of each model kind and of each distribution mode.
_MODEL_FIELDS = {"DeterministicSource": ("kind", "space", "tables"),
                 "StochasticSource": ("kind", "space", "tables"),
                 "Contextual": ("kind", "space", "separated", "tables"),
                 "ApparatusDeterministic": ("kind", "spaces", "tables")}
_MODE_FIELDS = {"SourceOnly": ("mode", "rho"),
                "SettingDependent": ("mode", "marginals"),
                "FactorizedApparatus": ("mode", "rho", "apparatus"),
                "JointComposite": ("mode", "joint")}

_SPACE_KEYS = ("source",) + SETTING_NAMES

#: Contextual table names and SettingDependent marginal keys: each setting
#: with each setting of the other side.
_OWN_REMOTE = tuple(f"{own}|{remote}" for p, q in SETTING_PAIRS
                    for own, remote in ((p, q), (q, p)))

TSIRELSON_ANGLES = (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)

@dataclass(frozen=True)
class RunBlock:
    """Estimator choice plus the ordered list of requested analyses."""

    estimator: EstimatorInfo
    analyses: tuple[str, ...]


@dataclass(frozen=True)
class Scenario:
    """A fully validated in-memory scenario.

    ``digest`` is sha256 over the source bytes when loaded from disk and
    empty for documents parsed from memory; it is excluded from equality
    so that a generate/parse round trip compares structurally.
    """

    schema_version: int
    description: str
    settings: tuple[Setting, Setting, Setting, Setting]
    model: ResponseModel
    distributions: ScenarioDistributions
    run: RunBlock
    comparison_model: ResponseModel | None = None
    digest: str = field(default="", compare=False)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _require(doc: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in doc:
        raise CliError(f"{where}: missing required field {key!r}")
    return doc[key]


def _mapping(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, dict):
        raise CliError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _fields(value: Any, allowed: tuple[str, ...], where: str,
            what: str = "field") -> Mapping[str, Any]:
    """``value`` as an object whose every key is one of ``allowed``."""
    value = _mapping(value, where)
    for key in value:
        if key not in allowed:
            raise CliError(f"{where}.{key}: unknown {what}; expected one of "
                           f"{list(allowed)}")
    return value


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's members, refusing a key that appears twice."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise CliError(f"{key}: field repeated within one JSON object")
        doc[key] = value
    return doc


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CliError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise CliError(f"{where}: expected a finite number, got {value!r}")
    return number


def _integer(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise CliError(f"{where}: expected an integer, got {type(value).__name__}")
    return value


def _array(value: Any, where: str) -> np.ndarray:
    if not isinstance(value, list):
        raise CliError(f"{where}: expected an array, got {type(value).__name__}")
    stray = _non_number(value)
    if stray is not None:
        raise CliError(f"{where}: expected an array of numbers, got {stray.__name__}")
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"{where}: not a numeric array ({exc})") from exc


def _non_number(items: list) -> type | None:
    """The type of the first element of ``items``, nested arrays searched
    in order, that is not a JSON number; None if every one is."""
    if set(map(type, items)) <= {int, float}:  # one pass settles a flat array
        return None
    for item in items:
        stray = _non_number(item) if type(item) is list else type(item)
        if stray not in (None, int, float):
            return stray
    return None


def _parse_spaces(value: Any) -> dict[str, HiddenSpace]:
    if not isinstance(value, list):
        raise CliError("spaces: expected an array of declarations")
    registry: dict[str, HiddenSpace] = {}
    for i, item in enumerate(value):
        where = f"spaces[{i}]"
        item = _fields(item, ("label", "values"), where)
        label = _require(item, "label", where)
        values = _require(item, "values", where)
        if not isinstance(label, str):
            raise CliError(f"{where}: label must be a string")
        if label in registry:
            raise CliError(f"{where}: duplicate space label {label!r}")
        if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
            raise CliError(f"{where}: values must be an array of strings")
        registry[label] = HiddenSpace(label, tuple(values))
    return registry


def _lookup_space(registry: Mapping[str, HiddenSpace], label: Any,
                  where: str) -> HiddenSpace:
    if not isinstance(label, str):
        raise CliError(f"{where}: space reference must be a string label")
    if label not in registry:
        raise CliError(f"{where}: unknown space label {label!r}")
    return registry[label]


def _parse_settings(value: Any) -> tuple[Setting, Setting, Setting, Setting]:
    value = _fields(value, SETTING_NAMES, "settings", "setting name")
    return standard_settings(*(_number(_require(value, name, "settings"),
                                       f"settings.{name}")
                               for name in SETTING_NAMES))


def _parse_distribution(value: Any, registry: Mapping[str, HiddenSpace],
                        where: str) -> Distribution:
    value = _fields(value, ("domain", "weights"), where)
    domain = _require(value, "domain", where)
    if not isinstance(domain, list) or not domain:
        raise CliError(f"{where}: domain must be a nonempty array of labels")
    spaces = tuple(_lookup_space(registry, lbl, f"{where}.domain") for lbl in domain)
    weights = _array(_require(value, "weights", where), f"{where}.weights")
    if weights.ndim != 1:
        raise CliError(f"{where}.weights: expected a flat array of numbers")
    return Distribution(spaces, weights)


def _parse_model(value: Any, registry: Mapping[str, HiddenSpace],
                 where: str) -> ResponseModel:
    value = _mapping(value, where)
    kind = _require(value, "kind", where)
    if not isinstance(kind, str) or kind not in _MODEL_FIELDS:
        raise CliError(f"{where}: unknown model kind {kind!r}; "
                       f"expected one of {tuple(_MODEL_FIELDS)}")
    _fields(value, _MODEL_FIELDS[kind], where)
    tables_doc = _fields(_require(value, "tables", where),
                         _OWN_REMOTE if kind == "Contextual" else SETTING_NAMES,
                         f"{where}.tables", "table")
    tables = {name: _array(tbl, f"{where}.tables.{name}")
              for name, tbl in tables_doc.items()}

    if kind == "ApparatusDeterministic":
        spaces_doc = _fields(_require(value, "spaces", where), _SPACE_KEYS,
                             f"{where}.spaces")
        five = FiveSpaces(*(_lookup_space(registry,
                                          _require(spaces_doc, k, f"{where}.spaces"),
                                          f"{where}.spaces.{k}")
                            for k in _SPACE_KEYS))
        return ApparatusDeterministic(five, tables)

    lam = _lookup_space(registry, _require(value, "space", where), f"{where}.space")
    if kind == "DeterministicSource":
        return DeterministicSource(lam, tables)
    if kind == "StochasticSource":
        return StochasticSource(lam, tables)
    separated = value.get("separated", False)
    if not isinstance(separated, bool):
        raise CliError(f"{where}.separated: expected true or false")
    return Contextual(lam, {tuple(name.split("|")): tbl for name, tbl in tables.items()},
                      separated)


def _parse_distributions(value: Any, registry: Mapping[str, HiddenSpace]
                         ) -> ScenarioDistributions:
    where = "distributions"
    value = _mapping(value, where)
    mode = _require(value, "mode", where)
    if not isinstance(mode, str) or mode not in _MODE_FIELDS:
        raise CliError(f"{where}: unknown mode {mode!r}; "
                       f"expected one of {tuple(_MODE_FIELDS)}")
    _fields(value, _MODE_FIELDS[mode], where)

    if mode == "SourceOnly":
        rho = _parse_distribution(_require(value, "rho", where), registry,
                                  f"{where}.rho")
        return SourceOnly(rho)

    if mode == "SettingDependent":
        marginals_doc = _fields(_require(value, "marginals", where), _OWN_REMOTE,
                                f"{where}.marginals", "setting pair")
        marginals = {}
        for key, payload in marginals_doc.items():
            pair = pair_key(*key.split("|"))
            if pair in marginals:
                raise CliError(f"{where}.marginals.{key}: a second key for "
                               f"the setting pair {pair}")
            marginals[pair] = _parse_distribution(payload, registry,
                                                  f"{where}.marginals.{key}")
        return SettingDependent(marginals)

    if mode == "FactorizedApparatus":
        rho = _parse_distribution(_require(value, "rho", where), registry,
                                  f"{where}.rho")
        apparatus_doc = _fields(_require(value, "apparatus", where),
                                SETTING_NAMES, f"{where}.apparatus", "setting name")
        apparatus = {name: _parse_distribution(payload, registry,
                                               f"{where}.apparatus.{name}")
                     for name, payload in apparatus_doc.items()}
        return FactorizedApparatus(rho, apparatus)

    joint = _parse_distribution(_require(value, "joint", where), registry,
                                f"{where}.joint")
    return JointComposite(joint)


def _parse_run(value: Any) -> RunBlock:
    where = "run"
    value = _fields(value, ("estimator", "analyses"), where)
    est_doc = _mapping(_require(value, "estimator", where), f"{where}.estimator")
    method = _require(est_doc, "method", f"{where}.estimator")
    if method == "exact":
        _fields(est_doc, ("method",), f"{where}.estimator")
        estimator = EstimatorInfo(method="exact")
    elif method == "monte-carlo":
        _fields(est_doc, ("method", "samples", "seed"), f"{where}.estimator")
        samples = _integer(_require(est_doc, "samples", f"{where}.estimator"),
                           f"{where}.estimator.samples")
        seed = _integer(_require(est_doc, "seed", f"{where}.estimator"),
                        f"{where}.estimator.seed")
        if samples < 1:
            raise CliError(f"{where}.estimator.samples: must be at least 1")
        if samples > MAX_SAMPLES:
            raise CliError(f"{where}.estimator.samples: must be at most {MAX_SAMPLES}")
        if seed < 0:
            raise CliError(f"{where}.estimator.seed: must be nonnegative")
        estimator = EstimatorInfo(method="monte-carlo", samples=samples, seed=seed)
    else:
        raise CliError(f"{where}.estimator.method: unknown method {method!r}; "
                       "expected 'exact' or 'monte-carlo'")

    analyses = _require(value, "analyses", where)
    if not isinstance(analyses, list) or not analyses:
        raise CliError(f"{where}.analyses: expected a nonempty array")
    seen = []
    for name in analyses:
        if name not in ANALYSES:
            raise CliError(f"{where}.analyses: unknown analysis {name!r}; "
                           f"expected one of {ANALYSES}")
        if name in seen:
            raise CliError(f"{where}.analyses: duplicate analysis {name!r}")
        seen.append(name)
    return RunBlock(estimator=estimator, analyses=tuple(seen))


def _check_cross_constraints(scenario: Scenario) -> None:
    """Refuse parts that do not fit together, through the owners of the
    model/mode and pair-family rules; the emulation rules are this
    module's own."""
    model, dists = scenario.model, scenario.distributions
    check_fit(model, dists)
    if "feasibility" in scenario.run.analyses:
        family_spaces(dists)

    if "emulation" in scenario.run.analyses:
        if scenario.comparison_model is None:
            raise CliError("emulation analysis requires comparison_model")
        if not isinstance(model, ApparatusDeterministic):
            raise CliError("emulation analysis requires an "
                           "ApparatusDeterministic primary model")
        if not isinstance(scenario.comparison_model, StochasticSource):
            raise CliError("emulation analysis requires a StochasticSource "
                           "comparison model")
        if not isinstance(dists, FactorizedApparatus):
            raise CliError("emulation analysis requires mode "
                           "FactorizedApparatus")
        check_fit(scenario.comparison_model, SourceOnly(dists.rho))


def parse_scenario(doc: Any, digest: str = "") -> Scenario:
    """Build a validated Scenario from a decoded JSON document."""
    doc = _fields(doc, _FIELDS, "scenario")
    version = _integer(_require(doc, "schema_version", "scenario"), "schema_version")
    if version != SCHEMA_VERSION:
        raise CliError(f"schema_version: unsupported version {version}; "
                       f"this build reads version {SCHEMA_VERSION}")
    description = doc.get("description", "")
    if not isinstance(description, str):
        raise CliError("description: expected a string")

    registry = _parse_spaces(_require(doc, "spaces", "scenario"))
    settings = _parse_settings(_require(doc, "settings", "scenario"))
    model = _parse_model(_require(doc, "model", "scenario"), registry, "model")
    dists = _parse_distributions(_require(doc, "distributions", "scenario"), registry)
    run = _parse_run(_require(doc, "run", "scenario"))
    comparison = None
    if "comparison_model" in doc:
        comparison = _parse_model(doc["comparison_model"], registry,
                                  "comparison_model")

    scenario = Scenario(schema_version=version, description=description,
                        settings=settings, model=model, distributions=dists,
                        run=run, comparison_model=comparison, digest=digest)
    _check_cross_constraints(scenario)
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    """Read, parse, and validate a scenario file."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CliError(f"{path.name}: invalid JSON ({exc})") from exc
    return parse_scenario(doc, digest="sha256:" + sha256(raw).hexdigest())


# ---------------------------------------------------------------------------
# Serialization and generation
# ---------------------------------------------------------------------------


def render_document(doc: Mapping[str, Any]) -> str:
    """Deterministic JSON text: two-space indent, insertion order, one
    trailing newline, and a hard failure on non-finite numbers.

    The text is byte for byte ``json.dumps(doc, indent=2, allow_nan=False)
    + "\\n"``, written by :func:`_json_text` because an indent keeps
    ``json`` off its C encoder.  Dict keys must be strings, as they are in
    every document bellsim renders.  A value the writer does not know,
    such as a non-finite float or a numpy integer, goes to ``json.dumps``
    and fails there with the exception the whole document would raise.
    """
    return _json_text(doc, "") + "\n"


def _json_text(value: Any, indent: str) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = (f"{inner}{encode_basestring_ascii(key)}: {_json_text(item, inner)}"
                 for key, item in value.items())
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        if all(isinstance(x, float) and math.isfinite(x) for x in value):
            items = map(float.__repr__, value)
        else:
            items = (_json_text(item, inner) for item in value)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    return json.dumps(value, indent=2, allow_nan=False)


def write_scenario(path: str | Path, doc: Mapping[str, Any]) -> None:
    Path(path).write_text(render_document(doc), encoding="utf-8")


def dist_doc(dist: Distribution) -> dict[str, Any]:
    """A distribution as its file and report form: domain labels plus flat
    row-major weights."""
    return {"domain": list(dist.labels),
            "weights": dist.flat.tolist()}


def estimator_doc(info: EstimatorInfo) -> dict[str, Any]:
    """An estimator as its file and report form."""
    if info.method == "exact":
        return {"method": "exact"}
    return {"method": info.method, "samples": info.samples, "seed": info.seed}


def _space_doc(space: HiddenSpace) -> dict[str, Any]:
    return {"label": space.label, "values": list(space.values)}


def _source_model_doc(model: DeterministicSource | StochasticSource) -> dict[str, Any]:
    return {"kind": model.kind, "space": model.lam.label,
            "tables": {name: [float(v) for v in model.tables[name]]
                       for name in SETTING_NAMES}}


def _apparatus_model_doc(model: ApparatusDeterministic) -> dict[str, Any]:
    return {"kind": model.kind,
            "spaces": {key: s.label for key, s in zip(_SPACE_KEYS, model.spaces)},
            "tables": {name: [[float(v) for v in row] for row in model.tables[name]]
                       for name in SETTING_NAMES}}


def _settings_doc(angles: tuple[float, float, float, float]) -> dict[str, float]:
    return {name: float(x) for name, x in zip(SETTING_NAMES, angles)}


def _check_cards(cards: tuple[int, ...]) -> tuple[int, ...]:
    cards = tuple(int(c) for c in cards)
    if len(cards) != 5:
        raise ParameterOutOfRange(
            "cards", f"need five cardinalities (source plus four apparatus), "
            f"got {len(cards)}")
    for c in cards:
        if not 1 <= c <= 8:
            raise ParameterOutOfRange("cards", f"each cardinality must be in "
                                      f"[1, 8], got {c}")
    return cards


def _check_angles(angles) -> tuple[float, float, float, float]:
    angles = tuple(float(x) for x in angles)
    if len(angles) != 4:
        raise ParameterOutOfRange("angles",
                                  f"need four angles (a, a_prime, b, b_prime), "
                                  f"got {len(angles)}")
    for x in angles:
        if not math.isfinite(x):
            raise ParameterOutOfRange("angles", "angles must be finite")
    return angles


def _random_five(rng: np.random.Generator, cards: tuple[int, ...]
                 ) -> tuple[FiveSpaces, ApparatusDeterministic, Distribution,
                            dict[str, Distribution]]:
    """Random apparatus model and factorized distributions on fresh spaces."""
    labels = ("lambda",) + tuple(APPARATUS_LABELS[name] for name in SETTING_NAMES)
    five = FiveSpaces(*(HiddenSpace.of_size(lbl, c)
                        for lbl, c in zip(labels, cards)))
    tables = {name: rng.choice([-1.0, 1.0],
                               size=(five.lam.cardinality,
                                     five.for_setting(name).cardinality))
              for name in SETTING_NAMES}
    model = ApparatusDeterministic(five, tables)
    rho = Distribution((five.lam,), rng.dirichlet(np.ones(five.lam.cardinality)))
    apparatus = {name: Distribution(
        (five.for_setting(name),),
        rng.dirichlet(np.ones(five.for_setting(name).cardinality)))
        for name in SETTING_NAMES}
    return five, model, rho, apparatus


def _check_estimator(parameters: Mapping[str, Any]) -> EstimatorInfo:
    method = parameters.get("estimator", "exact")
    if method == "exact":
        for name in ("samples", "mc_seed"):
            if name in parameters:
                raise ParameterOutOfRange(
                    name, "applies only to the monte-carlo estimator")
        return EstimatorInfo(method="exact")
    if method == "monte-carlo":
        samples = int(parameters.get("samples", 100_000))
        seed = int(parameters.get("mc_seed", 0))
        if samples < 1:
            raise ParameterOutOfRange("samples", "must be at least 1")
        if samples > MAX_SAMPLES:
            raise ParameterOutOfRange("samples", f"must be at most {MAX_SAMPLES}")
        if seed < 0:
            raise ParameterOutOfRange("mc_seed", "must be nonnegative")
        return EstimatorInfo(method="monte-carlo", samples=samples, seed=seed)
    raise ParameterOutOfRange("estimator",
                              f"unknown method {method!r}; expected 'exact' "
                              "or 'monte-carlo'")


def generate_scenario(template: str, parameters: Mapping[str, Any] | None = None
                      ) -> dict[str, Any]:
    """Emit a ready-to-run scenario document for a named template.

    Recognized parameters (all optional): ``seed`` (table randomization),
    ``cards`` (five space cardinalities; the setting-dependent witness
    accepts only its fixed 1,2,2,2,2), ``angles`` (four analyzer angles,
    default Tsirelson configuration), ``estimator`` ('exact' or
    'monte-carlo'), ``samples`` and ``mc_seed`` (monte-carlo only, refused
    with the exact estimator), and ``description``.
    """
    if template not in TEMPLATES:
        raise CliError(f"unknown template {template!r}; "
                       f"known templates: {', '.join(TEMPLATES)}")
    parameters = dict(parameters or {})
    seed = int(parameters.get("seed", 0))
    if seed < 0:
        raise ParameterOutOfRange("seed", "must be nonnegative")
    cards = _check_cards(parameters.get("cards", (2, 2, 2, 2, 2)))
    angles = _check_angles(parameters.get("angles", TSIRELSON_ANGLES))
    estimator = _check_estimator(parameters)
    rng = np.random.default_rng(seed)

    analyses = ["correlations", "chsh", "bell-check", "feasibility"]
    comparison = None
    if template == "setting-dependent-witness":
        try:
            family, model = construct_nonlocal_witness(standard_settings(*angles))
        except BellsimError as exc:
            raise ParameterOutOfRange("angles", str(exc)) from exc
        five = family.spaces
        fixed = tuple(s.cardinality for s in five)
        if "cards" in parameters and cards != fixed:
            raise ParameterOutOfRange(
                "cards", f"the witness template's spaces have fixed "
                f"cardinalities {','.join(map(str, fixed))}, "
                f"got {','.join(map(str, cards))}")
        distributions = {"mode": "SettingDependent",
                         "marginals": {f"{p}|{q}": dist_doc(family.marginals[(p, q)])
                                       for p, q in SETTING_PAIRS}}
    else:
        five, model, rho, apparatus = _random_five(rng, cards)
        if template == "joint-composite":
            size = int(np.prod([s.cardinality for s in five]))
            joint = Distribution(tuple(five), rng.dirichlet(np.ones(size)))
            distributions = {"mode": "JointComposite", "joint": dist_doc(joint)}
        else:
            distributions = {"mode": "FactorizedApparatus", "rho": dist_doc(rho),
                             "apparatus": {name: dist_doc(apparatus[name])
                                           for name in SETTING_NAMES}}
        if template == "stochastic-equivalent":
            comparison = stochastic_from_apparatus(model, apparatus)
            analyses[-1] = "emulation"
    doc = {
        "schema_version": SCHEMA_VERSION,
        "description": parameters.get("description", _DESCRIPTIONS[template]),
        "spaces": [_space_doc(s) for s in five],
        "settings": _settings_doc(angles),
        "model": _apparatus_model_doc(model),
        "distributions": distributions,
    }
    if comparison is not None:
        doc["comparison_model"] = _source_model_doc(comparison)
    doc["run"] = {"estimator": estimator_doc(estimator), "analyses": analyses}
    return doc
