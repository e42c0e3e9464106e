"""Random scenario JSON never ends in a traceback.

``run_scenario`` returns a report, or raises ``scenario-invalid`` (or
``window-too-large``: a vertex cap the built window exceeds is a cap
violation, not a malformed scenario; it too ends the run with exit 1).
Blocks draw their keys from their analysis's parameter table plus one
unknown name, and their values from every JSON type, mostly small integers.
Subgroup W specs draw every spec kind with words, unknown generators and
values of every JSON type.
Windows have radius <= 4, so each example runs in milliseconds; each
analysis gets a fixed, derandomized budget of examples.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coarsetop.cli import ANALYSES, CAPS, REQUIRED, run_scenario
from coarsetop.errors import CoarseTopError
from coarsetop.fixtures import list_fixtures

GENERATORS = {"Z": "a", "Z^2": "b", "F_2": "a", "lamplighter": "t", "amalgam_z2_z_z2": "y"}
FIXTURES = sorted(list_fixtures())
UNKNOWN = "colar"

small_ints = st.integers(-3, 4)
scalars = st.one_of(
    small_ints, st.floats(-2, 4), st.booleans(), st.none(),
    st.sampled_from(["auto", "basepoint", "crossing", "fundamental", "edge-cut", "0", "1", "upper", "x", "a"]),
)
anything = st.one_of(
    scalars,
    st.lists(scalars, max_size=3),
    st.lists(st.lists(small_ints, min_size=5, max_size=5), max_size=3),
    st.fixed_dictionaries({"auto": st.dictionaries(st.sampled_from(["collar", "scales", "count"]), st.one_of(
        small_ints, st.lists(small_ints, min_size=2, max_size=2), scalars), max_size=3)}),
    st.fixed_dictionaries({"sample": scalars}),
)


@st.composite
def values(draw):
    # most parameters are integers or integer lists, so 17 draws in 20 are:
    # an out-of-range integer of the right type is what reaches the maths
    kind = draw(st.integers(0, 19))
    if kind < 14:
        return draw(small_ints)
    return draw(st.lists(small_ints, max_size=4) if kind < 17 else anything)


words = st.sampled_from(["a", "b", "t", "s", "x", "y", "z", "q", "a^2", "b^-1 a", "a^x", "", "a a^-1"])
spec_values = st.one_of(
    words, anything, st.lists(words, max_size=2),
    st.dictionaries(st.sampled_from(["k", "coords", "kk"]), st.one_of(small_ints, st.lists(small_ints, max_size=3)),
                    max_size=2),
)


@st.composite
def subgroup_specs(draw, family: str):
    """Mostly the family's own cyclic W; one in four draws any spec kind with any value."""
    if draw(st.integers(0, 3)):
        return {"cyclic": GENERATORS[family]}
    kind = draw(st.sampled_from(["cyclic", "factor", "sublattice", "generators", "bogus"]))
    return {kind: draw(spec_values)}


@st.composite
def scenarios(draw, first: str):
    radius = draw(st.integers(1, 4))
    if draw(st.booleans()):
        family = draw(st.sampled_from(sorted(GENERATORS)))
        space = {"kind": "group", "family": family, "radius": radius}
        spec = draw(subgroup_specs(family))
        fitting = [{"kind": "point"}, {"kind": "subgroup", "spec": spec}]
    else:
        space = {"kind": "fixture", "name": draw(st.sampled_from(FIXTURES)), "radius": radius}
        spec = {"cyclic": "a"}
        fitting = [None, {"kind": "fixture-w"}]
    scenario = {"schema": 1, "space": space}
    # mostly a W that fits the space, sometimes any W block or a malformed one
    w = draw(st.sampled_from(fitting * 4 + [
        None, {"kind": "point"}, {"kind": "fixture-w"}, {"kind": "subgroup", "spec": spec}, {"kind": "bogus"},
        {"kind": "subgroup"},
    ]))
    if w is not None:
        scenario["w"] = w
    # a simplex cap keeps each example to milliseconds; one in five draws random caps instead
    scenario["caps"] = {"max_simplices": 20_000}
    if draw(st.integers(0, 4)) == 0:
        scenario["caps"] = draw(st.dictionaries(st.sampled_from(sorted(CAPS) + ["max_simplex"]), values(), max_size=2))
    blocks = []
    for name in [first] + draw(st.lists(st.sampled_from(sorted(ANALYSES)), max_size=2)):
        table = ANALYSES[name].params
        block = {"analysis": name}
        # the required names, and one name of the table or the unknown one
        names = [param for param, p in table.items() if p.default is REQUIRED]
        for param in names + [draw(st.sampled_from([*table, UNKNOWN]))]:
            block[param] = draw(values())
        blocks.append(block)
    scenario["analyses"] = blocks
    return scenario


def ends_well(scenario) -> bool:
    """Run a scenario: a report, or an expected up-front error. True when it ran.

    A scenario of two or more blocks that ran gives each block the entry
    that the block run alone gives: what the scenario shares between its
    analyses (component sets, the whole-space complex) changes no answer.
    """
    try:
        report, code = run_scenario(scenario)
    except CoarseTopError as err:
        assert err.code in ("scenario-invalid", "window-too-large"), err
        return False
    assert code in (0, 1, 2)
    assert len(report["results"]) == len(scenario["analyses"])
    if len(scenario["analyses"]) > 1:
        for block, entry in zip(scenario["analyses"], report["results"]):
            alone, _ = run_scenario({**scenario, "analyses": [block]})
            assert alone["results"] == [entry], block
    return True


@pytest.mark.parametrize("first", sorted(ANALYSES))
@settings(max_examples=45, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_scenario_ends_as_report_or_invalid(first, data):
    scenario = data.draw(scenarios(first))
    if not ends_well(scenario) and len(scenario["analyses"]) > 1:
        # one malformed block rejects the whole scenario; each block on its
        # own still reaches the analyses of the well-formed ones
        for block in scenario["analyses"]:
            ends_well({**scenario, "analyses": [block]})


MULTI_BLOCK = {
    "z2": {
        "schema": 1,
        "space": {"kind": "group", "family": "Z^2", "radius": 8},
        "w": {"kind": "subgroup", "spec": {"cyclic": "a"}},
        "analyses": [
            {"analysis": "mobility", "class": "fundamental", "D_schedule": [1, 2]},
            {"analysis": "mv", "r": 2, "cap": 3},
            {"analysis": "pd-signature", "n": 1},
            {"analysis": "acyclicity"},
            {"analysis": "essential", "n": 1},
        ],
    },
    "line_in_plane": {
        "schema": 1,
        "space": {"kind": "fixture", "name": "line_in_plane", "radius": 8},
        "analyses": [
            {"analysis": "mv"},
            {"analysis": "mobility"},
            {"analysis": "essential", "n": 1},
            {"analysis": "almost-essential"},
        ],
    },
    "amalgam": {
        "schema": 1,
        "space": {"kind": "group", "family": "amalgam_z2_z_z2", "radius": 5},
        "w": {"kind": "subgroup", "spec": {"cyclic": "y"}},
        "analyses": [
            {"analysis": "separate", "windows": [4, 5], "invariance_generators": ["y"]},
            {"analysis": "almost-invariant"},
            {"analysis": "separate"},
        ],
    },
}

@pytest.mark.parametrize("name", sorted(MULTI_BLOCK))
def test_multi_block_scenario_entries_equal_each_block_alone(name):
    # the drawn scenarios reach few multi-block reports; these share component
    # sets, the whole-space complex and the W gate between their analyses
    assert ends_well(MULTI_BLOCK[name])
