import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccgame import scenarios
from ccgame.errors import (BadProbability, DimensionMismatch, NotPositiveDefinite,
                           ScenarioValidationError, SchemaError)
from ccgame.model import (BoxSpec, LtvGameDynamics, Scenario,
                          assemble_problem, load_scenario,
                          save_scenario, scenario_from_dict, scenario_to_dict,
                          validate_scenario)
from conftest import (NOT_NUMBERS, NUMBER_FIELDS, make_ltv_scenario, mini_doc_with,
                      random_small_scenario)
from oracles import load_bundled


def minimal_scenario(**overrides):
    kw = dict(state_dims=[1], T=1, A_blocks=[np.array([[1.0]])],
              B_blocks=[np.array([[1.0]])], x0=[0.0], W_diag=[1.0],
              Q_list=[np.array([[1.0]])], R_list=[np.array([[1.0]])],
              goal_list=[np.array([0.0])], constraints=[])
    kw.update(overrides)
    return make_ltv_scenario(**kw)


def test_minimal_scalar_scenario_is_valid():
    vs = validate_scenario(minimal_scenario())
    assert vs.scenario.n_x == 1


def test_zero_noise_rejected():
    s = minimal_scenario(W_diag=[0.0])
    with pytest.raises(ScenarioValidationError) as err:
        validate_scenario(s)
    offenders = [v for v in err.value.violations if isinstance(v, NotPositiveDefinite)]
    assert offenders and offenders[0].name.startswith("W")
    assert offenders[0].eigenvalue == pytest.approx(0.0, abs=1e-15)


def test_intersection_scenario_matches_case_study_parameters():
    s = load_bundled("intersection")
    vs = validate_scenario(s)
    assert s.num_agents == 3
    assert s.horizon == 50
    assert s.dt == 0.2
    assert s.horizon * s.dt == pytest.approx(10.0)   # 10 s plan
    assert s.risk_epsilon == 0.05
    assert s.state_dims == (4, 4, 4)
    problem = assemble_problem(vs)
    assert problem.n_u == 2


def test_validation_is_idempotent():
    vs = validate_scenario(minimal_scenario())
    assert validate_scenario(vs) is vs


def test_bad_probability_and_bounds():
    s = minimal_scenario()
    bad = Scenario(**{**s.__dict__, "risk_epsilon": 1.5})
    with pytest.raises(ScenarioValidationError) as err:
        validate_scenario(bad)
    assert any(isinstance(v, BadProbability) for v in err.value.violations)

    crossed = BoxSpec(x_min=np.array([2.0]), x_max=np.array([1.0]))
    s2 = minimal_scenario(constraints=[crossed])
    with pytest.raises(ScenarioValidationError) as err:
        validate_scenario(s2)
    assert any(isinstance(v, DimensionMismatch) for v in err.value.violations)


def test_dimension_mismatch_reports_field():
    s = minimal_scenario()
    dyn = s.dynamics
    bad_dyn = LtvGameDynamics(A=dyn.A, B=dyn.B, W=dyn.W, x0=np.zeros(2))
    bad = Scenario(**{**s.__dict__, "dynamics": bad_dyn})
    with pytest.raises(ScenarioValidationError) as err:
        validate_scenario(bad)
    hits = [v for v in err.value.violations if isinstance(v, DimensionMismatch)]
    assert any(v.field == "x0" for v in hits)


def test_assemble_dynamics_ltv_passthrough():
    s = minimal_scenario()
    assert assemble_problem(validate_scenario(s)).dyn is s.dynamics


def test_assembled_unicycle_dynamics_pass_dimension_checks(mini_scenario):
    vs = validate_scenario(mini_scenario)
    dyn = assemble_problem(vs).dyn
    T, n_x = mini_scenario.horizon, mini_scenario.n_x
    assert dyn.A.shape == (T, n_x, n_x)
    assert dyn.B.shape == (T, mini_scenario.num_agents, n_x, 2)
    assert dyn.W.shape == (T, n_x, n_x)
    rebuilt = Scenario(**{**mini_scenario.__dict__, "dynamics": dyn})
    validate_scenario(rebuilt)


def test_serialization_roundtrip_bit_identical(tmp_path, mini_scenario):
    for s in (mini_scenario, random_small_scenario(np.random.default_rng(5))):
        path = tmp_path / "s.json"
        save_scenario(s, path)
        s2 = load_scenario(path)
        d1, d2 = scenario_to_dict(s), scenario_to_dict(s2)
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
        dyn1 = assemble_problem(validate_scenario(s)).dyn
        dyn2 = assemble_problem(validate_scenario(s2)).dyn
        assert np.array_equal(dyn1.A, dyn2.A)
        assert np.array_equal(dyn1.W, dyn2.W)


def test_loader_rejects_unknown_keys(tmp_path):
    doc = scenario_to_dict(scenarios.make_intersection_mini())
    doc["extra_key"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="extra_key"):
        load_scenario(path)


def test_loader_rejects_unknown_nested_keys():
    doc = scenario_to_dict(scenarios.make_intersection_mini())
    doc["dynamics"]["turbo"] = True
    with pytest.raises(SchemaError, match="turbo"):
        scenario_from_dict(doc)


def test_loader_rejects_non_integer_state_dims():
    doc = scenario_to_dict(random_small_scenario(np.random.default_rng(5)))
    doc["state_dims"] = [float(d) for d in doc["state_dims"]]
    with pytest.raises(SchemaError, match="state_dims"):
        scenario_from_dict(doc)


def test_cost_shorthand_expansion():
    doc = {
        "agents": 1, "horizon": 3, "dt": 0.5, "risk_epsilon": 0.1, "seed": 7,
        "dynamics": {"type": "ltv", "A": 1.0, "B": [[[1.0]]], "W": 0.5,
                     "x0": [0.0]},
        "costs": [{"Q_stage": 0.5, "Q_terminal": 2.0, "R": 1.0, "goal": [1.0]}],
        "constraints": [],
    }
    s = scenario_from_dict(doc)
    c = s.costs[0]
    assert c.Q[0, 0, 0] == 0.5
    assert c.Q[2, 0, 0] == 2.5          # terminal adds to the stage weight
    assert c.ref[1, 0] == 1.0
    validate_scenario(s)


def test_problem_nominal_folding(mini_scenario):
    vs = validate_scenario(mini_scenario)
    problem = assemble_problem(vs)
    # deviation coordinates: x0 = 0, references shifted by the nominal
    assert np.array_equal(problem.dyn.x0, np.zeros(problem.n_x))
    T = problem.T
    goal0 = mini_scenario.costs[0].ref[T - 1][:4]
    assert np.allclose(problem.ref[0, T, :4] + problem.nominal_states[T, :4], goal0)


@pytest.mark.parametrize("value", NOT_NUMBERS)
@pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
def test_a_string_or_bool_number_is_a_schema_error(field, value):
    with pytest.raises(SchemaError, match="expected a number"):
        scenario_from_dict(mini_doc_with(field, value))


def test_null_only_where_the_schema_takes_it():
    # a box bound entry, nominal_inputs and active_times may be null
    doc = mini_doc_with("x_min", None)
    doc["dynamics"]["nominal_inputs"] = None
    next(c for c in doc["constraints"] if c["type"] == "box")["active_times"] = None
    validate_scenario(scenario_from_dict(doc))
    for field in sorted(set(NUMBER_FIELDS) - {"x_min"}):
        with pytest.raises(SchemaError, match="expected a number, got None"):
            scenario_from_dict(mini_doc_with(field, None))
    # a nullable key takes null as its whole value, not as an entry
    doc = mini_doc_with("dt", 0.1)
    doc["dynamics"]["nominal_inputs"] = [[[0.0, None]] * 20] * 2
    with pytest.raises(SchemaError, match="nominal_inputs: expected a number, got None"):
        scenario_from_dict(doc)


def _number_leaves(doc, path=()):
    """The key paths of every number in a document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _number_leaves(value, path + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _number_leaves(value, path + (k,))
    elif type(doc) in (int, float):
        yield path


DOCUMENTS = {name: json.loads(scenarios.bundled_path(name).read_text())
             for name in scenarios.BUNDLED}
DOCUMENTS["full-form intersection-mini"] = scenario_to_dict(scenarios.make_intersection_mini())
LEAVES = [(name, path) for name, doc in DOCUMENTS.items() for path in _number_leaves(doc)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LEAVES), st.sampled_from([True, False, "0.5", "inf", None]))
def test_every_number_leaf_takes_a_number_or_a_schema_null(leaf, value):
    name, path = leaf
    doc = copy.deepcopy(DOCUMENTS[name])
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    # the README's rule: null is a box bound's entry or the whole value of
    # agent (the other nullable keys hold lists in these documents)
    if value is None and (path[-2:-1] in [("x_min",), ("x_max",)] or path[-1] == "agent"):
        if path[-1] == "agent":         # a box without an agent bounds the full state
            node["x_min"] = node["x_max"] = None
        scenario_from_dict(doc)
        return
    # the error names the number's list by its key path, a dict in a list by index
    where, node = "scenario", DOCUMENTS[name]
    for step in path:
        node = node[step]
        if isinstance(step, str):
            where += f".{step}"
        elif isinstance(node, dict):
            where += f"[{step}]"
    with pytest.raises(SchemaError, match=re.escape(f"{where}: expected a number, got {value!r}")):
        scenario_from_dict(doc)
