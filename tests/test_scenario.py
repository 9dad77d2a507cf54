"""Scenario schema: parsing, validation attribution, and generation."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.correlation import (FactorizedApparatus, JointComposite,
                                 SettingDependent)
from bellsim.errors import (CliError, CorrelationError, HvCoreError, NotNormalized,
                            ParameterOutOfRange, ResponseModelError)
from bellsim.models import ApparatusDeterministic, StochasticSource
from bellsim.scenario import (ANALYSES, SCHEMA_VERSION, TEMPLATES,
                              generate_scenario, load_scenario,
                              parse_scenario, render_document, write_scenario)

ALL_PARAMS = [("factorized", {"seed": 5}),
              ("joint-composite", {"seed": 6}),
              ("setting-dependent-witness", {}),
              ("stochastic-equivalent", {"seed": 7})]


def witness_doc():
    return generate_scenario("setting-dependent-witness", {})


class TestRoundTrip:
    @pytest.mark.parametrize("template,params", ALL_PARAMS)
    def test_generate_write_load_is_structural_identity(self, template, params,
                                                        tmp_path):
        doc = generate_scenario(template, params)
        path = tmp_path / f"{template}.scenario"
        write_scenario(path, doc)
        from_memory = parse_scenario(doc)
        from_disk = load_scenario(path)
        assert from_memory == from_disk  # digest excluded from comparison
        assert from_disk.digest.startswith("sha256:")
        assert from_memory.digest == ""

    @pytest.mark.parametrize("template,params", ALL_PARAMS)
    def test_generation_is_deterministic(self, template, params):
        once = render_document(generate_scenario(template, params))
        again = render_document(generate_scenario(template, params))
        assert once == again

    def test_different_seeds_differ(self):
        a = generate_scenario("factorized", {"seed": 1})
        b = generate_scenario("factorized", {"seed": 2})
        assert a["model"]["tables"] != b["model"]["tables"] or \
            a["distributions"]["rho"] != b["distributions"]["rho"]


class TestParsedContent:
    def test_factorized_shape(self):
        sc = parse_scenario(generate_scenario("factorized", {"seed": 9}))
        assert sc.schema_version == SCHEMA_VERSION
        assert isinstance(sc.model, ApparatusDeterministic)
        assert isinstance(sc.distributions, FactorizedApparatus)
        assert [s.name for s in sc.settings] == ["a", "a_prime", "b", "b_prime"]
        assert sc.run.estimator.method == "exact"
        assert sc.run.analyses == ("correlations", "chsh", "bell-check",
                                   "feasibility")

    def test_witness_shape(self):
        sc = parse_scenario(witness_doc())
        assert isinstance(sc.distributions, SettingDependent)
        marginal = sc.distributions.marginals[("a", "b")]
        assert len(marginal.domain) == 3
        assert sc.settings[0].angle == 0.0
        assert sc.settings[1].angle == pytest.approx(math.pi / 2)

    def test_joint_composite_shape(self):
        sc = parse_scenario(generate_scenario(
            "joint-composite", {"seed": 3, "cards": (2, 3, 2, 1, 2)}))
        assert isinstance(sc.distributions, JointComposite)
        assert sc.distributions.joint.shape == (2, 3, 2, 1, 2)

    def test_stochastic_equivalent_has_comparison(self):
        sc = parse_scenario(generate_scenario("stochastic-equivalent",
                                              {"seed": 8}))
        assert isinstance(sc.comparison_model, StochasticSource)
        assert "emulation" in sc.run.analyses

    def test_custom_angles_and_description(self):
        doc = generate_scenario("factorized", {
            "seed": 0, "angles": (0.1, 0.2, 0.3, 0.4), "description": "mine"})
        sc = parse_scenario(doc)
        assert [s.angle for s in sc.settings] == [0.1, 0.2, 0.3, 0.4]
        assert sc.description == "mine"

    def test_monte_carlo_estimator_block(self):
        doc = generate_scenario("factorized", {
            "seed": 0, "estimator": "monte-carlo", "samples": 500, "mc_seed": 4})
        sc = parse_scenario(doc)
        assert sc.run.estimator.method == "monte-carlo"
        assert sc.run.estimator.samples == 500
        assert sc.run.estimator.seed == 4


def contextual_doc():
    """A Contextual model under SourceOnly, with every own|remote table."""
    tables = {f"{own}|{remote}": [1.0, -1.0]
              for own, remote in (("a", "b"), ("a", "b_prime"), ("a_prime", "b"),
                                  ("a_prime", "b_prime"))}
    tables.update({"|".join(reversed(k.split("|"))): v for k, v in tables.items()})
    return {"schema_version": 1,
            "spaces": [{"label": "lambda", "values": ["0", "1"]}],
            "settings": {"a": 0.0, "a_prime": 1.0, "b": 2.0, "b_prime": 3.0},
            "model": {"kind": "Contextual", "space": "lambda", "separated": False,
                      "tables": tables},
            "distributions": {"mode": "SourceOnly",
                              "rho": {"domain": ["lambda"], "weights": [0.5, 0.5]}},
            "run": {"estimator": {"method": "exact"},
                    "analyses": ["correlations", "chsh"]}}


def _field(path) -> str:
    """The field name a parse refusal gives for a path of keys and indices."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]


#: A document builder and the path of a field its schema does not define.
UNKNOWN_FIELDS = [
    (witness_doc, ("spaces", 0, "size")),
    (witness_doc, ("distributions", "marginals", "a|b", "labels")),
    (witness_doc, ("model", "separated")),
    (witness_doc, ("model", "space")),
    (witness_doc, ("model", "spaces", "c")),
    (witness_doc, ("distributions", "rho")),
    (witness_doc, ("run", "seed")),
    (lambda: generate_scenario("factorized", {"estimator": "monte-carlo"}),
     ("run", "estimator", "chunk")),
    (lambda: generate_scenario("stochastic-equivalent", {}),
     ("comparison_model", "spaces")),
    (lambda: generate_scenario("stochastic-equivalent", {}),
     ("comparison_model", "tables", "a|b")),
    (contextual_doc, ("model", "tables", "a|a_prime")),
    (contextual_doc, ("model", "tables", "a")),
    (contextual_doc, ("distributions", "marginals")),
]


class TestParseErrors:
    def test_contextual_doc_parses(self):
        assert parse_scenario(contextual_doc()).model.kind == "Contextual"

    @pytest.mark.parametrize("make, path", UNKNOWN_FIELDS,
                             ids=[_field(path) for _, path in UNKNOWN_FIELDS])
    def test_unknown_field_names_it(self, make, path):
        doc = make()
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = {}
        with pytest.raises(CliError, match="^" + re.escape(f"{_field(path)}: unknown ")):
            parse_scenario(doc)

    def test_not_an_object(self):
        with pytest.raises(CliError, match="expected an object, got list$"):
            parse_scenario([1, 2, 3])

    def test_unsupported_version(self):
        doc = witness_doc()
        doc["schema_version"] = 99
        with pytest.raises(CliError, match="schema_version"):
            parse_scenario(doc)

    def test_missing_field_names_it(self):
        doc = witness_doc()
        del doc["settings"]
        with pytest.raises(CliError, match="settings"):
            parse_scenario(doc)

    def test_bad_setting_name(self):
        doc = witness_doc()
        doc["settings"]["c"] = 0.0
        with pytest.raises(CliError, match="unknown setting"):
            parse_scenario(doc)

    def test_non_numeric_angle(self):
        doc = witness_doc()
        doc["settings"]["a"] = "zero"
        with pytest.raises(CliError, match="settings.a"):
            parse_scenario(doc)

    def test_unknown_space_label(self):
        doc = witness_doc()
        doc["distributions"]["marginals"]["a|b"]["domain"][0] = "nope"
        with pytest.raises(CliError, match="unknown space label"):
            parse_scenario(doc)

    def test_duplicate_space_label(self):
        doc = witness_doc()
        doc["spaces"].append(dict(doc["spaces"][0]))
        with pytest.raises(CliError, match="duplicate space label"):
            parse_scenario(doc)

    def test_unknown_model_kind(self):
        doc = witness_doc()
        doc["model"]["kind"] = "Oracle"
        with pytest.raises(CliError, match="unknown model kind"):
            parse_scenario(doc)

    def test_unknown_mode(self):
        doc = witness_doc()
        doc["distributions"]["mode"] = "Magic"
        with pytest.raises(CliError, match="unknown mode"):
            parse_scenario(doc)

    def test_bad_pair_key(self):
        doc = witness_doc()
        doc["distributions"]["marginals"]["a-b"] = \
            doc["distributions"]["marginals"].pop("a|b")
        with pytest.raises(CliError,
                           match=r"^distributions\.marginals\.a-b: unknown setting pair"):
            parse_scenario(doc)

    def test_unknown_analysis(self):
        doc = witness_doc()
        doc["run"]["analyses"].append("plotting")
        with pytest.raises(CliError, match="unknown analysis"):
            parse_scenario(doc)

    def test_duplicate_analysis(self):
        doc = witness_doc()
        doc["run"]["analyses"].append("chsh")
        with pytest.raises(CliError, match="duplicate analysis"):
            parse_scenario(doc)

    def test_bad_estimator_method(self):
        doc = witness_doc()
        doc["run"]["estimator"] = {"method": "quantum"}
        with pytest.raises(CliError, match="unknown method"):
            parse_scenario(doc)

    def test_monte_carlo_requires_samples_and_seed(self):
        doc = witness_doc()
        doc["run"]["estimator"] = {"method": "monte-carlo", "samples": 10}
        with pytest.raises(CliError, match="seed"):
            parse_scenario(doc)

    def test_ragged_table(self):
        doc = generate_scenario("factorized", {"seed": 0})
        doc["model"]["tables"]["a"][0] = [1.0]
        with pytest.raises(CliError, match="not a numeric array"):
            parse_scenario(doc)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.scenario"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CliError, match="invalid JSON"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CliError, match="cannot read"):
            load_scenario(tmp_path / "absent.scenario")


class TestValidationAttribution:
    def test_negative_weight_names_hv_core(self):
        doc = witness_doc()
        doc["distributions"]["marginals"]["a|b"]["weights"][0] = -0.5
        with pytest.raises(HvCoreError,
                           match="^weight at flat index 0 is negative: -0.5$") as exc:
            parse_scenario(doc)
        assert exc.value.module == "hv-core"

    def test_unnormalized_names_hv_core(self):
        doc = generate_scenario("factorized", {"seed": 0})
        doc["distributions"]["rho"]["weights"] = [0.1, 0.1]
        with pytest.raises(NotNormalized, match="^weights sum to 0.2, ") as exc:
            parse_scenario(doc)
        assert exc.value.module == "hv-core"

    def test_bad_sign_table_names_response_models(self):
        doc = generate_scenario("factorized", {"seed": 0})
        doc["model"]["tables"]["a"][0][0] = 0.5
        with pytest.raises(ResponseModelError,
                           match=r"must contain only \+1/-1 entries$") as exc:
            parse_scenario(doc)
        assert exc.value.module == "response-models"

    def test_missing_marginal_names_correlation_engine(self):
        doc = witness_doc()
        del doc["distributions"]["marginals"]["a|b"]
        with pytest.raises(CorrelationError,
                           match="^need one marginal per setting pair") as exc:
            parse_scenario(doc)
        assert exc.value.module == "correlation-engine"

    def test_source_model_with_apparatus_mode_rejected(self):
        doc = generate_scenario("factorized", {"seed": 0})
        lam_values = doc["spaces"][0]["values"]
        doc["model"] = {"kind": "DeterministicSource", "space": "lambda",
                        "tables": {name: [1.0] * len(lam_values)
                                   for name in ("a", "a_prime", "b", "b_prime")}}
        with pytest.raises(CliError, match="^model kind DeterministicSource requires mode "
                           "SourceOnly or SettingDependent, got FactorizedApparatus$") as exc:
            parse_scenario(doc)
        assert exc.value.module == "cli-harness"

    def test_feasibility_needs_family(self):
        doc = generate_scenario("factorized", {"seed": 0})
        lam_values = doc["spaces"][0]["values"]
        doc["model"] = {"kind": "DeterministicSource", "space": "lambda",
                        "tables": {name: [1.0] * len(lam_values)
                                   for name in ("a", "a_prime", "b", "b_prime")}}
        doc["distributions"] = {
            "mode": "SourceOnly",
            "rho": {"domain": ["lambda"],
                    "weights": [1.0 / len(lam_values)] * len(lam_values)}}
        with pytest.raises(CliError, match="^feasibility analysis is undefined"):
            parse_scenario(doc)

    def test_emulation_requires_comparison_model(self):
        doc = generate_scenario("stochastic-equivalent", {"seed": 0})
        del doc["comparison_model"]
        with pytest.raises(CliError,
                           match="^emulation analysis requires comparison_model$"):
            parse_scenario(doc)


class TestGeneration:
    def test_unknown_template(self):
        with pytest.raises(CliError, match="^unknown template 'foo'; known templates: "
                           + re.escape(", ".join(TEMPLATES)) + "$"):
            generate_scenario("foo")

    def test_bad_cards_length(self):
        with pytest.raises(ParameterOutOfRange, match="five"):
            generate_scenario("factorized", {"cards": (2, 2)})

    def test_card_out_of_range(self):
        with pytest.raises(ParameterOutOfRange, match=r"must be in \[1, 8\], got 0$"):
            generate_scenario("factorized", {"cards": (0, 2, 2, 2, 2)})
        with pytest.raises(ParameterOutOfRange, match=r"must be in \[1, 8\], got 9$"):
            generate_scenario("factorized", {"cards": (9, 2, 2, 2, 2)})

    def test_negative_seed(self):
        with pytest.raises(ParameterOutOfRange, match="seed"):
            generate_scenario("factorized", {"seed": -1})

    def test_bad_angle_count(self):
        with pytest.raises(ParameterOutOfRange, match="four angles"):
            generate_scenario("factorized", {"angles": (0.0, 1.0)})

    def test_witness_rejects_nonviolating_angles(self):
        with pytest.raises(ParameterOutOfRange, match="^parameter 'angles': singlet "
                           "CHSH value .* does not violate the bound"):
            generate_scenario("setting-dependent-witness",
                              {"angles": (0.0, math.pi / 2, 0.0, math.pi / 2)})

    @pytest.mark.parametrize("cards", [(8, 8, 8, 8, 8), (2, 2, 2, 2, 2)])
    def test_witness_refuses_other_cards(self, cards):
        with pytest.raises(ParameterOutOfRange, match="^parameter 'cards': ") as exc:
            generate_scenario("setting-dependent-witness", {"cards": cards})
        assert exc.value.module == "cli-harness"

    def test_witness_accepts_its_fixed_cards(self):
        assert (generate_scenario("setting-dependent-witness",
                                  {"cards": (1, 2, 2, 2, 2)})
                == witness_doc())

    def test_bad_samples(self):
        with pytest.raises(ParameterOutOfRange, match="samples"):
            generate_scenario("factorized", {"estimator": "monte-carlo",
                                             "samples": 0})

    def test_analysis_names_are_known(self):
        for template, params in ALL_PARAMS:
            doc = generate_scenario(template, params)
            assert all(a in ANALYSES for a in doc["run"]["analyses"])

    def test_documents_are_json_serializable(self):
        for template, params in ALL_PARAMS:
            json.loads(render_document(generate_scenario(template, params)))


_KEYS = st.text(max_size=6) | st.sampled_from(["", "\x00", "\n", '"', "\\",
                                                "\u00e9", "\u2028", "\U0001f600"])
_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-0.0, 5e-324, 1.7e308]))
_LEAVES = (st.none() | st.booleans() | st.integers(-2**80, 2**80) | _FLOATS
           | _FLOATS.map(np.float64) | _KEYS)
_TREES = st.recursive(
    _LEAVES | st.lists(_FLOATS, max_size=5) | st.sampled_from([{}, [], ()]),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(_KEYS, children, max_size=4)),
    max_leaves=25)


class TestRender:
    @given(st.dictionaries(_KEYS, _TREES, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_text_is_json_dumps_with_indent(self, doc):
        assert render_document(doc) == json.dumps(doc, indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.int64(1),
                                     object()],
                             ids=["nan", "inf", "-inf", "int64", "object"])
    @pytest.mark.parametrize("place", [lambda v: {"x": v},
                                       lambda v: {"x": [0.5, v]},
                                       lambda v: {"x": {"y": ("s", v)}}],
                             ids=["value", "float-list", "nested"])
    def test_unencodable_values_fail_as_json_dumps(self, bad, place):
        doc = place(bad)
        with pytest.raises(Exception) as want:
            json.dumps(doc, indent=2, allow_nan=False)
        with pytest.raises(Exception) as got:
            render_document(doc)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
