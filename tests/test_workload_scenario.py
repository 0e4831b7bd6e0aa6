"""Tests for the declarative Scenario spec and its JSON round-trip."""

import json
import reprlib
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.scenario import (BUILTIN_SCENARIOS, ChurnSpec, FaultSpec,
                                     NetworkSpec, Phase, Scenario,
                                     ScenarioError, TrafficSpec,
                                     builtin_scenario)

ROOT = Path(__file__).resolve().parent.parent


def test_builtin_scenarios_validate_and_round_trip():
    for name in BUILTIN_SCENARIOS:
        scenario = builtin_scenario(name, seed=5)
        assert scenario.seed == 5
        scenario.validate()
        clone = Scenario.from_dict(scenario.to_dict())
        assert clone.to_dict() == scenario.to_dict()


def test_json_round_trip():
    scenario = builtin_scenario("steady-churn")
    clone = Scenario.from_json(scenario.to_json())
    assert clone.to_dict() == scenario.to_dict()


def test_load_from_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(builtin_scenario("flash-crowd").to_json())
    assert Scenario.load(str(path)).name == "flash-crowd"


def test_malformed_json_raises_scenario_error():
    with pytest.raises(ScenarioError, match="invalid scenario JSON"):
        Scenario.from_json("{not json")


def test_unknown_builtin():
    with pytest.raises(ScenarioError, match="unknown builtin"):
        builtin_scenario("nope")


def test_scenario_missing_name():
    with pytest.raises(ScenarioError, match="missing 'name'"):
        Scenario.from_dict({"duration": 10})


def test_unknown_fault_kind_rejected():
    with pytest.raises(ScenarioError, match="unknown fault kind"):
        FaultSpec.from_dict({"kind": "meteor", "at": 1.0})


def test_fault_params_survive_round_trip():
    spec = FaultSpec.from_dict({"kind": "link_cut", "at": 3.0, "count": 2,
                                "restore_after": 5.0})
    assert spec.params == {"count": 2, "restore_after": 5.0}
    assert spec.to_dict() == {"kind": "link_cut", "at": 3.0, "count": 2,
                              "restore_after": 5.0}


def test_fault_past_duration_rejected():
    for at in (11.0, -0.5):
        scenario = Scenario(name="x", duration=10.0,
                            faults=[FaultSpec(kind="link_cut", at=at)])
        with pytest.raises(ScenarioError, match="outside the run, 0 to 10"):
            scenario.validate()


def test_phase_past_duration_rejected():
    for start in (10.0, -0.5):
        scenario = Scenario(name="x", duration=10.0, phases=[
            Phase(name="late", start=start, end=20.0)])
        with pytest.raises(ScenarioError, match="starts at"):
            scenario.validate()


def test_phase_end_before_start_rejected():
    with pytest.raises(ScenarioError, match="must follow start"):
        Phase(name="bad", start=5.0, end=5.0).validate()


def test_as_faults_need_inter_network():
    scenario = Scenario(name="x", network=NetworkSpec(kind="intra"),
                        faults=[FaultSpec(kind="as_depeer", at=1.0)])
    with pytest.raises(ScenarioError, match="'as_depeer'.*fail_as.*'intra'"):
        scenario.validate()


def test_router_faults_need_intra_network():
    scenario = Scenario(name="x", network=NetworkSpec(kind="inter"),
                        faults=[FaultSpec(kind="router_crash", at=1.0)])
    with pytest.raises(ScenarioError,
                       match="'router_crash'.*fail_router.*'inter'"):
        scenario.validate()


def test_inter_network_rejects_lifetimes():
    scenario = Scenario(
        name="x", network=NetworkSpec(kind="inter"),
        phases=[Phase(name="p", start=0.0, end=10.0,
                      churn=ChurnSpec(arrival_rate=1.0,
                                      lifetime={"kind": "fixed",
                                                "value": 5.0}))])
    with pytest.raises(ScenarioError, match="'lifetime'.*leave_host.*'inter'"):
        scenario.validate()


def test_bad_departure_mode_rejected():
    with pytest.raises(ScenarioError, match="departure"):
        ChurnSpec(arrival_rate=1.0, departure="vanish").validate()


def test_bad_subspec_surfaces_as_scenario_error():
    with pytest.raises(ScenarioError):
        ChurnSpec(arrival_rate=1.0,
                  lifetime={"kind": "mystery"}).validate()
    with pytest.raises(ScenarioError):
        TrafficSpec(rate=1.0, popularity={"kind": "mystery"}).validate()


def test_network_spec_validation():
    with pytest.raises(ScenarioError, match="intra, inter, cmu, ospf, disco"):
        NetworkSpec(kind="galactic").validate()
    with pytest.raises(ScenarioError):
        NetworkSpec(kind="intra", n_routers=1).validate()
    with pytest.raises(ScenarioError):
        Scenario(name="x", duration=-1.0).validate()
    with pytest.raises(ScenarioError):
        Scenario(name="x", sample_interval=0.0).validate()


@pytest.mark.parametrize("kind, fault, departure, rejected", [
    ("disco", None, "leave", None),             # Disco has a leave protocol
    ("disco", None, "fail", "'lifetime'.*fail_host.*'disco'"),
    ("disco", "link_cut", None, "'link_cut'.*fail_link.*'disco'"),
    ("cmu", None, "leave", "'lifetime'.*leave_host.*'cmu'"),
    ("ospf", "host_crash", None, "'host_crash'.*fail_host.*'ospf'"),
    ("inter", "as_depeer", None, None),
    ("intra", "link_cut", "fail", None),
])
def test_support_is_read_off_the_network_class(kind, fault, departure,
                                               rejected):
    """What a kind can run is whatever its class overrides: a fault or a
    ``lifetime`` it has no operation for is refused at validation, by
    name, with the kind."""
    churn = None if departure is None else ChurnSpec(
        arrival_rate=1.0, departure=departure,
        lifetime={"kind": "fixed", "value": 5.0})
    scenario = Scenario(
        name="x", network=NetworkSpec(kind=kind),
        phases=[Phase(name="p", start=0.0, end=10.0, churn=churn)],
        faults=[] if fault is None else [FaultSpec(fault, 1.0)])
    if rejected is None:
        scenario.validate()
    else:
        with pytest.raises(ScenarioError, match=rejected):
            scenario.validate()


def test_baseline_network_spec_round_trips_with_router_sizing():
    spec = NetworkSpec.from_dict({"kind": "disco", "n_routers": 24})
    assert spec.to_dict() == {"kind": "disco", "name": "workload",
                              "n_fingers": 8, "n_routers": 24}


# ---------------------------------------------------------------------------
# Malformed input: the scenario third of the fuzz suite (ROADMAP item 2).
# ---------------------------------------------------------------------------

def _valid():
    """A scenario mapping with every kind of object in it."""
    return {"name": "x", "duration": 2, "network": {"kind": "intra"},
            "phases": [{"start": 0, "end": 2,
                        "churn": {"arrival_rate": 1.0, "lifetime": {
                            "kind": "pareto", "shape": 1.5, "scale": 2.0}},
                        "traffic": {"rate": 1.0, "popularity": {
                            "kind": "zipf", "exponent": 1.0}}}],
            "faults": [{"kind": "link_cut", "at": 1.0, "count": 1}]}


def _holder(tree, path):
    """The container of ``tree`` that holds the last key of ``path``."""
    for key in path[:-1]:
        tree = tree[key]
    return tree


_P, _F = ("phases", 0), ("faults", 0)


_MALFORMED = [
    # escaped as ValueError / TypeError / AttributeError at 7f1f1a3
    (("seed",), "abc"), (("duration",), [1]), (("phases",), 5),
    (("faults",), 3), (_P + ("start",), "a"),
    (_P + ("churn", "arrival_rate"), "fast"), (_P + ("churn", "lifetime"), 5),
    (_P + ("churn", "modulation"), "flash"),
    (_P + ("traffic", "popularity"), [1]),
    (_P + ("churn", "lifetime", "shape"), "a"),
    (_P + ("traffic", "popularity", "exponent"), "x"), (_F + ("at",), "soon"),
    (_F + ("kind",), ["link_cut"]), (("network", "n_routers"), "many"),
    (("network", "kind"), ["intra"]), (("warmup_hosts",), None),
    # were accepted (Infinity never returned: one request hung a server)
    (("duration",), float("nan")), (("duration",), float("inf")),
    (("name",), 5), (("warmup_hosts",), 1.5),
    (("network", "cache_entries"), "big"), (_F + ("count",), "two"),
    # were refused properly
    (_P, "a phase"), (_P + ("churn", "lifetime"), {}),
    (_P + ("churn", "departure"), 3),
    # misspelt keys, dropped without a word: the host never departed, the
    # link never came back
    (_P + ("churn", "lifetme"), {"kind": "fixed", "value": 1.0}),
    (_F + ("restor_after",), 1.0), (("sample_intervall",), 1.0),
    (("network", "n_router"), 10),
    # what a number may not be
    (("seed",), "5"), (("seed",), True), (("seed",), 5.0),
    (("duration",), 10 ** 400), (_F + ("stub_only",), 1),
    (_F + ("links",), [["r0"]]), (_F + ("links",), [["r0", 1]]),
    # were accepted: a negative cache or finger count
    (("network", "cache_entries"), -1), (("network", "n_fingers"), -1),
]


@pytest.mark.parametrize("path, value", _MALFORMED, ids=[
    "{}={}".format(".".join(map(str, path)), reprlib.repr(value))
    for path, value in _MALFORMED])
def test_one_malformed_field_is_a_scenario_error_naming_it(path, value):
    assert Scenario.from_dict(_valid()).to_dict()["duration"] == 2.0
    started = time.perf_counter()
    tree = _valid()
    _holder(tree, path)[path[-1]] = value
    with pytest.raises(ScenarioError) as refusal:
        Scenario.from_dict(tree)
    key = next(key for key in reversed(path) if isinstance(key, str))
    assert key in str(refusal.value)
    assert "\n" not in str(refusal.value) and len(str(refusal.value)) < 250
    assert time.perf_counter() - started < 0.5


@pytest.mark.parametrize("network", [
    {"kind": "inter", "n_ases": 5}, {"kind": "inter", "n_ases": 3},
    {"kind": "inter", "cache_entries": -1}], ids=reprlib.repr)
def test_a_network_size_the_builder_refuses_is_refused_by_field(network):
    """These passed validation and then failed mid-build with a traceback
    about tier fractions no caller can set (3 to 5 ASes), or were taken
    (a negative cache).  The bounds are the generators' own constants."""
    with pytest.raises(ScenarioError) as refusal:
        Scenario.from_dict({"name": "x", "network": network})
    [field] = [key for key in network if key != "kind"]
    assert str(refusal.value).startswith(field + " must be")
    assert "\n" not in str(refusal.value)


def test_a_missing_required_key_is_refused_by_name():
    for path, key in [((), "name"), (_P, "end"), (_P + ("churn",),
                      "arrival_rate"), (_F, "at"), (_F, "kind"),
                      (_P + ("churn", "lifetime"), "scale")]:
        tree = _valid()
        del _holder(tree, path + (key,))[key]
        with pytest.raises(ScenarioError, match="missing '{}'".format(key)):
            Scenario.from_dict(tree)


def test_an_injector_declares_its_parameters_beside_its_needs():
    """A ``FaultSpec`` built in Python is checked like a parsed one, in
    ``validate()``; the injector gets its parameters as declared."""
    from repro.workload.faults import INJECTORS, LinkCut
    assert set(INJECTORS) == {
        "link_cut", "router_crash", "pop_partition", "host_crash",
        "as_depeer"}
    cut = FaultSpec("link_cut", 3, {"links": [["r0", "r1"]],
                                    "restore_after": 2}).injector()
    assert cut == LinkCut(at=3.0, count=1, links=[("r0", "r1")],
                          restore_after=2.0)
    for params, refusal in [({"count": "two"}, "count must be an integer"),
                            ({"hosts": 3}, "unknown key 'hosts'"),
                            ({"pop": "0"}, "pop must be an integer")]:
        with pytest.raises(ScenarioError, match=refusal):
            FaultSpec("pop_partition" if "pop" in params else "host_crash",
                      1.0, params).validate()
    # A fault comes back only through its injector's ``restore_after``.
    for retired in ("link_restore", "as_restore"):
        with pytest.raises(ScenarioError,
                           match="unknown fault kind '{}'".format(retired)):
            FaultSpec(retired, 1.0).validate()


def _scenario_mappings():
    """Builtins and the example file, keyed as the golden keys them."""
    found = {"builtin:" + name: builtin_scenario(name).to_dict()
             for name in BUILTIN_SCENARIOS}
    for path in sorted((ROOT / "examples" / "scenarios").glob("*.json")):
        found["examples/scenarios/" + path.name] = json.loads(path.read_text())
    return found


def test_round_trip_is_what_the_hand_written_codecs_returned():
    """``from_dict(d).to_dict()`` against the parent commit's capture
    (``tests/golden_scenario_dicts.json``; its ``captured`` line says
    how): builtins, the example file and ``bench/``'s churn scenarios."""
    from bench import inputs
    golden = json.loads((ROOT / "tests" / "golden_scenario_dicts.json")
                        .read_text())["to_dict"]
    mappings = _scenario_mappings()
    victims = ([["r0", "r1"], ["r2", "r3"], ["r4", "r5"]], ["r6"])
    for kind in ("intra", "inter"):
        for seed in range(4):
            mappings["bench:{}:{}".format(kind, seed)] = \
                inputs.churn_scenario(kind, seed, 1.0, victims=victims)
    assert sorted(mappings) == sorted(golden) and len(golden) == 12
    for key, mapping in mappings.items():
        assert Scenario.from_dict(mapping).to_dict() == golden[key], key
    for name in BUILTIN_SCENARIOS:
        assert mappings["builtin:" + name] == golden["builtin:" + name]


def _subtrees(tree, path=()):
    """Every path into ``tree``, leaves and containers alike."""
    if isinstance(tree, (dict, list)):
        for key in (tree if isinstance(tree, dict) else range(len(tree))):
            yield path + (key,)
            yield from _subtrees(tree[key], path + (key,))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([10 ** 400, float("inf"), float("-inf"), float("nan")]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3), max_leaves=6)


@given(st.data())
@settings(deadline=None)     # the example count is the profile's
def test_fuzz_one_mutation_is_refused_or_round_trips(data):
    """Any one leaf or subtree of a good scenario replaced by arbitrary
    JSON, dropped, or its key misspelt: ``from_dict`` refuses with a
    ``ScenarioError`` or returns a scenario that round-trips, and raises
    nothing else.  CI runs it at 10⁴ examples (``--hypothesis-profile
    fuzz``, registered in ``tests/conftest.py``)."""
    mappings = _scenario_mappings()
    tree = json.loads(json.dumps(mappings[data.draw(
        st.sampled_from(sorted(mappings)))]))
    path = data.draw(st.sampled_from(sorted(_subtrees(tree), key=repr)))
    node = _holder(tree, path)
    how = data.draw(st.sampled_from(["replace", "drop", "misspell"]))
    if how == "replace":
        node[path[-1]] = data.draw(_JSON)
    elif how == "drop" or isinstance(node, list):
        del node[path[-1]]
    else:
        node[path[-1] + data.draw(st.text(min_size=1, max_size=2))] = \
            node.pop(path[-1])
    try:
        scenario = Scenario.from_dict(tree)
    except ScenarioError:
        return
    dumped = scenario.to_dict()
    assert Scenario.from_dict(dumped).to_dict() == dumped
