"""Channel metadata and the published-dataset layout."""
import numpy as np
import pytest

from concealab.errors import SpecError
from concealab.schema import Channel, SensorSchema, batadal_schema


def test_binary_channels_get_zero_one_values():
    ch = Channel("s", "binary", plc=1)
    assert ch.allowed_values == (0.0, 1.0)


def test_duplicate_names_rejected():
    with pytest.raises(SpecError):
        SensorSchema((Channel("a", "continuous", 1), Channel("a", "binary", 1)))


def test_dependency_must_point_at_discrete_channel():
    with pytest.raises(SpecError):
        SensorSchema((
            Channel("f", "continuous", 1, depends_on="g"),
            Channel("g", "continuous", 1),
        ))
    with pytest.raises(SpecError):
        SensorSchema((Channel("f", "continuous", 1, depends_on="nope"),))


def test_index_lookup(toy_schema):
    assert toy_schema.index("flow") == 1
    assert toy_schema.index("switch") == 2
    with pytest.raises(SpecError):
        toy_schema.index("ghost")


def test_discrete_and_dependent_views(toy_schema):
    assert toy_schema.discrete_indices() == (2, 4)
    assert toy_schema.dependent_pairs() == ((1, 2),)


def test_plc_grouping(toy_schema):
    assert {c.plc for c in toy_schema} == {1, 2}
    assert toy_schema.plc_indices(1) == (0, 1, 2)
    assert toy_schema.plc_indices(2) == (3, 4)
    assert toy_schema.plc_indices(99) == ()


def test_ranges_from_matrix(toy_schema):
    data = np.array([[1.0, 5.0, 0.0, 2.0, 0.0],
                     [3.0, 9.0, 1.0, 8.0, 5.0]])
    withr = toy_schema.with_ranges_from(data)
    ch = withr.channels[0]
    assert (ch.vmin, ch.vmax) == (1.0, 3.0)


def test_schema_json_round_trip(tmp_path, toy_schema):
    path = tmp_path / "schema.json"
    toy_schema.save(path)
    back = SensorSchema.load(path)
    assert back.names == toy_schema.names
    assert back.dependent_pairs() == toy_schema.dependent_pairs()
    assert back.channels[4].allowed_values == (0.0, 2.0, 5.0)


def test_published_layout_has_43_channels():
    schema = batadal_schema()
    names = schema.names
    assert len(names) == 43
    assert names[0] == "L_T1"
    assert names[7] == "F_PU1"
    assert names[8] == "S_PU1"
    assert names[-1] == "P_J422"
    # every pump flow is tied to its own switch
    pairs = dict(schema.dependent_pairs())
    for i in range(1, 12):
        f = schema.index(f"F_PU{i}")
        s = schema.index(f"S_PU{i}")
        assert pairs[f] == s
    assert pairs[schema.index("F_V2")] == schema.index("S_V2")
    # nine substations
    assert {c.plc for c in schema} == set(range(1, 10))
