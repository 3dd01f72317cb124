import json

import pytest

from wcelab.checks import CheckContext
from wcelab.errors import ParseError
from wcelab.generator import GeneratorConfig, gen_instance
from wcelab.instance_io import (
    InstanceBundle,
    instance_digest,
    parse_instance,
    serialize_instance,
)
from wcelab.measure import FiniteMeasureSpace, MeasurableFunction, Partition
from wcelab.wce import WceInstance


def small_doc(**overrides):
    doc = {
        "weights": [1.0, 3.0],
        "partition": [[0, 1]],
        "u": [[2.0, 0.0], [0.0, 0.0]],
        "w": [[0.0, 0.0], [1.0, 0.0]],
    }
    doc.update(overrides)
    return json.dumps(doc)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [1, 2, 3, 17])
    def test_generated_instances(self, seed):
        bundle = gen_instance(GeneratorConfig(
            seed=seed, n=6, block_count=2,
            with_point_map=(seed % 2 == 0), zero_blocks=(seed % 3 == 0)))
        # The round trip is byte-exact on the document.
        text = serialize_instance(bundle)
        assert serialize_instance(parse_instance(text)) == text

    def test_labels_survive(self):
        sp = FiniteMeasureSpace([1.0, 2.0], labels=["a", "b"])
        inst = WceInstance(
            Partition(sp, [[0], [1]]),
            MeasurableFunction(sp, [1, 2]),
            MeasurableFunction(sp, [3, 4]),
        )
        bundle = InstanceBundle(inst)
        again = parse_instance(serialize_instance(bundle))
        assert again.instance.space.labels == ("a", "b")

    def test_digest_tracks_content(self):
        def digest(bundle):
            return instance_digest(serialize_instance(bundle))

        a = parse_instance(small_doc())
        b = parse_instance(small_doc(u=[[2.0, 0.0], [0.5, 0.0]]))
        assert digest(a) != digest(b)
        assert digest(a) == digest(parse_instance(small_doc()))
        # Reports name an instance by this same digest.
        assert CheckContext(a).digest == digest(a)


class TestParseErrors:
    def test_invalid_json_names_location(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_instance("{broken")

    def test_root_must_be_object(self):
        with pytest.raises(ParseError, match="root"):
            parse_instance("[1, 2]")

    def test_unknown_field_rejected(self):
        with pytest.raises(ParseError, match="mystery"):
            parse_instance(small_doc(mystery=1))

    def test_missing_field_named(self):
        doc = json.loads(small_doc())
        del doc["w"]
        with pytest.raises(ParseError, match="'w'"):
            parse_instance(json.dumps(doc))

    def test_overlapping_blocks_named(self):
        with pytest.raises(ParseError, match=r"\[0, 1\]"):
            parse_instance(small_doc(partition=[[0, 1], [1]]))

    def test_nonpositive_weight(self):
        with pytest.raises(ParseError, match="weights"):
            parse_instance(small_doc(weights=[1.0, -3.0]))

    def test_bad_complex_pair(self):
        with pytest.raises(ParseError, match="'u' entry 1"):
            parse_instance(small_doc(u=[[2.0, 0.0], [1.0]]))

    def test_bad_phi_index(self):
        with pytest.raises(ParseError, match="phi"):
            parse_instance(small_doc(phi=[0, 9]))

    def test_weights_type_checked(self):
        with pytest.raises(ParseError, match="weights"):
            parse_instance(small_doc(weights=[1.0, "x"]))
