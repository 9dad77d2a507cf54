"""Every decider of the joint-existence question, held to the LP.

``check_joint_existence`` answers from one of three deciders: the
construction witness of a FactorizedApparatus or JointComposite mode, the
closed-form certificate of ApparatusDeterministic response tables, and
the LP, which decides ``SettingDependent(mode.marginals)`` on its own.
Families are drawn from three sources: the generated templates at
cardinalities 1 to 3 (one-valued spaces included), Dirichlet joints,
which are Local, and singlet marginals spread over random apparatus
values (``helpers.singlet_spread``), which are Nonlocal.

Each answer must agree with the LP, every Infeasible certificate must
separate in exact rational arithmetic, and a JointComposite verdict
reports the mode's own joint, bit for bit, with residual exactly 0.0.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    FOUR_SETTINGS,
    exact_separation,
    five_spaces,
    random_apparatus,
    random_distribution,
    singlet_spread,
)

from bellsim import feasibility
from bellsim.correlation import JointComposite, SettingDependent
from bellsim.feasibility import (
    CERTIFICATE_SLACK,
    MARGINAL_TOL,
    check_joint_existence,
    marginal_residual,
    verify_certificate,
)
from bellsim.scenario import TEMPLATES, generate_scenario, parse_scenario

CARDS = st.tuples(*[st.integers(1, 3)] * 5)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def template_scenarios(draw):
    """A generated template's mode and response model."""
    template = draw(st.sampled_from(TEMPLATES))
    params = {"seed": draw(SEEDS), "estimator": "exact"}
    if template == "setting-dependent-witness":
        theta = draw(st.floats(0.0, 2.0 * math.pi))
        params["angles"] = tuple(s.angle + theta for s in FOUR_SETTINGS)
    else:
        params["cards"] = draw(CARDS)
    scenario = parse_scenario(generate_scenario(template, params))
    return scenario.distributions, scenario.model


def checked(family, verdict):
    """``verdict`` after checking its joint or, exactly, its certificate."""
    if verdict.feasible:
        assert verdict.residual == marginal_residual(family.marginals,
                                                     verdict.joint)
        assert verdict.residual <= MARGINAL_TOL
    else:
        max_yta, ytb = exact_separation(family, verdict.certificate)
        assert max_yta <= Fraction(CERTIFICATE_SLACK) < ytb
    return verdict


def decide_each(mode, model):
    """Run each decider that answers for ``mode``, read out by ``model``,
    hold it to the LP, and return the LP's status."""
    family = SettingDependent(mode.marginals)
    lp = checked(family, check_joint_existence(family))
    if not isinstance(mode, SettingDependent):
        assert checked(family, check_joint_existence(mode)).status == lp.status
    y = feasibility._chsh_certificate(family, model)
    max_yta, ytb = verify_certificate(family, y)
    with_tables = checked(family, check_joint_existence(family, model=model))
    assert with_tables.status == lp.status
    if max_yta <= CERTIFICATE_SLACK < ytb:
        assert lp.status == "Infeasible"
        np.testing.assert_array_equal(with_tables.certificate, y)
    return lp.status


@settings(max_examples=60, deadline=None)
@given(case=template_scenarios())
def test_template_deciders_agree_with_the_lp(case):
    decide_each(*case)


@settings(max_examples=40, deadline=None)
@given(cards=st.tuples(st.integers(1, 3), *[st.integers(2, 3)] * 4),
       seed=SEEDS, side_a_sign=st.sampled_from([1.0, -1.0]))
def test_singlet_spread_deciders_agree_with_the_lp(cards, seed, side_a_sign):
    family, model, _ = singlet_spread(np.random.default_rng(seed), cards,
                                      side_a_sign)
    assert decide_each(family, model) == "Infeasible"


@settings(max_examples=60, deadline=None)
@given(cards=CARDS, seed=SEEDS)
def test_joint_composite_reports_its_own_joint(cards, seed):
    rng = np.random.default_rng(seed)
    joint = random_distribution(rng, tuple(five_spaces(cards)))
    mode = JointComposite(joint)
    assert decide_each(mode, random_apparatus(rng, cards)) == "Feasible"
    verdict = check_joint_existence(mode)
    assert verdict.joint.domain == joint.domain
    np.testing.assert_array_equal(verdict.joint.weights, joint.weights)
    assert verdict.residual == 0.0
