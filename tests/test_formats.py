import random

import pytest

from glab import formats
from glab.generators import group_payload, random_instance
from glab.groups import cyclic_group
from glab.groupoids import FiniteGroupoid


def z2_payload():
    return group_payload(cyclic_group(2))


class TestParsing:
    def test_parse_error_has_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1,\n  "kind": }')
        with pytest.raises(formats.InstanceFormatError) as err:
            formats.load_instance(path)
        assert err.value.line == 2
        assert str(path) in str(err.value)

    def test_missing_file(self):
        with pytest.raises(formats.InstanceFormatError):
            formats.load_instance("/nonexistent/instance.json")

    def test_unknown_kind(self):
        with pytest.raises(formats.InstanceFormatError, match="unknown kind"):
            formats.instance_from_dict({"version": 1, "kind": "mystery"})

    def test_version_checked(self):
        with pytest.raises(formats.InstanceFormatError, match="version"):
            formats.instance_from_dict({"version": 2, "kind": "pair", "points": [1]})

    @pytest.mark.parametrize("version", [True, False, 1.0, "1"])
    def test_version_type_checked(self, version):
        with pytest.raises(formats.InstanceFormatError, match="'version'.*has type"):
            formats.instance_from_dict(
                {"version": version, "kind": "pair", "points": [1, 2]})

    def test_missing_field_named(self):
        with pytest.raises(formats.InstanceFormatError, match="'points'"):
            formats.instance_from_dict({"version": 1, "kind": "pair"})


class TestGroupPayload:
    def test_bad_table_shape(self):
        payload = z2_payload()
        payload["table"] = [payload["table"][0]]
        with pytest.raises(formats.InstanceFormatError, match="table"):
            formats.group_from_dict(payload)

    def test_non_group_table(self):
        payload = {
            "elements": ["a", "b"],
            "table": [["a", "a"], ["a", "a"]],
        }
        with pytest.raises(formats.InstanceFormatError, match="identity"):
            formats.group_from_dict(payload)


class TestKinds:
    def test_action(self):
        instance = formats.instance_from_dict({
            "version": 1,
            "kind": "action",
            "group": z2_payload(),
            "space": ["a", "b", "c"],
            "maps": {
                "r0": {"a": "a", "b": "b", "c": "c"},
                "r1": {"a": "b", "b": "a", "c": "c"},
            },
        })
        g = instance.groupoid()
        assert len(g) == 6

    def test_action_requires_total_maps(self):
        with pytest.raises(formats.InstanceFormatError, match="totally defined"):
            formats.instance_from_dict({
                "version": 1,
                "kind": "action",
                "group": z2_payload(),
                "space": ["a", "b"],
                "maps": {"r0": {"a": "a", "b": "b"}, "r1": {}},
            })

    def test_partial_action(self):
        instance = formats.instance_from_dict({
            "version": 1,
            "kind": "partial-action",
            "group": z2_payload(),
            "space": ["a", "b", "c"],
            "maps": {"r0": {"a": "a", "b": "b", "c": "c"}, "r1": {"c": "c"}},
        })
        assert len(instance.groupoid()) == 4

    def test_group_bundle(self):
        instance = formats.instance_from_dict({
            "version": 1,
            "kind": "group-bundle",
            "units": ["u"],
            "fibers": {"u": z2_payload()},
        })
        assert len(instance.groupoid()) == 2

    def test_bundle_unit_mismatch(self):
        with pytest.raises(formats.InstanceFormatError, match="unit list"):
            formats.instance_from_dict({
                "version": 1,
                "kind": "group-bundle",
                "units": ["u", "v"],
                "fibers": {"u": z2_payload()},
            })

    @pytest.mark.parametrize("payload", [
        {"version": 1, "kind": "pair", "points": [[1], [2]]},
        {"version": 1, "kind": "group-bundle", "units": [["u"]],
         "fibers": {"u": z2_payload()}},
    ])
    def test_non_scalar_identifiers(self, payload):
        with pytest.raises(formats.InstanceFormatError, match="non-scalar"):
            formats.instance_from_dict(payload)

    def test_pair(self):
        instance = formats.instance_from_dict(
            {"version": 1, "kind": "pair", "points": ["1", "2", "3"]}
        )
        assert len(instance.groupoid()) == 9

    def test_groupoid_tables(self):
        payload = {
            "version": 1,
            "kind": "groupoid-tables",
            "elements": ["u", "g"],
            "units": ["u"],
            "source": {"u": "u", "g": "u"},
            "range": {"u": "u", "g": "u"},
            "inverse": {"u": "u", "g": "g"},
            "compose": [["u", "u", "u"], ["u", "g", "g"], ["g", "u", "g"],
                        ["g", "g", "u"]],
        }
        instance = formats.instance_from_dict(payload)
        assert isinstance(instance.obj, FiniteGroupoid)
        assert len(instance.obj) == 2

    def test_groupoid_tables_invalid_axiom(self):
        payload = {
            "version": 1,
            "kind": "groupoid-tables",
            "elements": ["u", "g"],
            "units": ["u"],
            "source": {"u": "u", "g": "u"},
            "range": {"u": "u", "g": "u"},
            "inverse": {"u": "u", "g": "g"},
            "compose": [["u", "u", "u"], ["u", "g", "g"], ["g", "u", "g"],
                        ["g", "g", "g"]],
        }
        with pytest.raises(formats.InstanceFormatError):
            formats.instance_from_dict(payload)

    def test_graph_kind_has_no_groupoid(self):
        instance = formats.instance_from_dict(
            {"version": 1, "kind": "graph", "vertices": ["v"],
             "edges": [{"id": "e", "src": "v", "dst": "v"}]}
        )
        with pytest.raises(formats.InstanceFormatError, match="does not define"):
            instance.groupoid()

    def test_dynsys(self):
        instance = formats.instance_from_dict(
            {"version": 1, "kind": "dynsys", "space": ["x"], "map": {"x": "x"}}
        )
        assert len(instance.obj.space) == 1


class TestElementCount:
    """``element_count`` reads the arrow count off a payload exactly."""

    @pytest.mark.parametrize("kind", ["action", "partial-action"])
    def test_action_kinds(self, kind):
        for seed in range(5):
            payload = random_instance(random.Random(seed), kind, 6)
            instance = formats.instance_from_dict(payload)
            assert formats.element_count(payload) == len(instance.groupoid())

    def test_other_groupoid_kinds(self):
        payloads = [
            {"version": 1, "kind": "pair", "points": ["1", "2", "3"]},
            {"version": 1, "kind": "group-bundle", "units": ["u", "v"],
             "fibers": {"u": z2_payload(), "v": group_payload(cyclic_group(3))}},
            {"version": 1, "kind": "groupoid-tables", "elements": ["u"],
             "units": ["u"], "source": {"u": "u"}, "range": {"u": "u"},
             "inverse": {"u": "u"}, "compose": [["u", "u", "u"]]},
        ]
        for payload in payloads:
            instance = formats.instance_from_dict(payload)
            assert formats.element_count(payload) == len(instance.groupoid())

    def test_malformed_and_other_kinds_count_zero(self):
        assert formats.element_count([]) == 0
        assert formats.element_count({"kind": "pair", "points": 7}) == 0
        assert formats.element_count({"kind": "group-bundle", "fibers": ["u"]}) == 0
        assert formats.element_count({"kind": "dynsys", "space": [1, 2]}) == 0

    def test_cap_checked_before_building(self, tmp_path, monkeypatch):
        from glab.errors import CapExceededError

        built = []
        monkeypatch.setattr(formats.groupoids, "pair_groupoid", built.append)
        path = tmp_path / "pair.json"
        path.write_text(formats.dump_instance(
            {"version": 1, "kind": "pair", "points": list(range(5))}))
        with pytest.raises(CapExceededError, match="25 elements"):
            formats.load_instance(path, max_elements=24)
        assert not built


class TestRoundTrips:
    @pytest.mark.parametrize("kind", ["action", "partial-action", "graph", "dynsys"])
    def test_emitted_instances_parse_back_equal(self, kind, tmp_path):
        payload = random_instance(random.Random(5), kind, 5)
        text = formats.dump_instance(payload)
        path = tmp_path / "inst.json"
        path.write_text(text)
        loaded = formats.load_instance(path)
        assert loaded.payload == payload
        assert formats.dump_instance(loaded.payload) == text
