"""Auto-derived persistence round-trip for every RoundRecord field.

``RoundRecord.to_dict``/``from_dict`` are derived from
``dataclasses.fields``, so a new field persists by construction; the
tests enumerate the fields too, and pin the persisted byte layout (key
names and order) to a literal, since stored records are compared
byte for byte.
"""

import dataclasses
import json

import pytest

from repro.federated import History, RoundRecord


def synthesize(field: dataclasses.Field, index: int):
    """A distinct, non-default value for a field, keyed by its annotation."""
    synthesizers = {
        "int": lambda: 1000 + index,
        "float": lambda: 0.5 + index,
        "float | None": lambda: 0.25 + index,
        "str | None": lambda: f"value-{index}",
        "list[int]": lambda: [index, index + 1],
        "list[str]": lambda: [f"reason-{index}"],
        "list[float]": lambda: [index + 0.5, index + 1.5],
    }
    try:
        return synthesizers[field.type]()
    except KeyError:
        raise AssertionError(
            f"no synthesizer for RoundRecord.{field.name}: {field.type}; "
            "teach this test about the new field type"
        )


def distinct_record() -> RoundRecord:
    values = {
        field.name: synthesize(field, index)
        for index, field in enumerate(dataclasses.fields(RoundRecord))
    }
    return RoundRecord(**values)


class TestRoundRecordRoundTrip:
    def test_every_field_survives(self):
        record = distinct_record()
        # Through JSON, exactly as ResultStore persists histories.
        restored = RoundRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        for field in dataclasses.fields(RoundRecord):
            assert getattr(restored, field.name) == getattr(record, field.name), (
                f"RoundRecord.{field.name} did not survive to_dict/from_dict"
            )

    def test_persisted_layout_is_pinned(self):
        # Stored records are asserted byte-identical across --jobs and
        # after SIGKILL, so key spelling and key order are part of the
        # format: "round" (not round_index) first, then field order.
        assert json.dumps(distinct_record().to_dict()) == (
            '{"round": 1000, "test_accuracy": 1.25, "train_loss": 2.5, '
            '"participants": [3, 4], "bytes_communicated": 1004, '
            '"client_steps": [5, 6], "bytes_down": 1006, "bytes_up": 1007, '
            '"client_bytes_up": [8, 9], "sampled": [9, 10], '
            '"dropped": [10, 11], "drop_reasons": ["reason-11"], '
            '"slowdowns": [12.5, 13.5], "fallback": "value-13", '
            '"virtual_time": 14.5, "staleness": [15, 16], '
            '"buffer_flush": 1016}'
        )

    def test_to_dict_copies_lists(self):
        record = distinct_record()
        assert record.to_dict()["participants"] is not record.participants
        restored = RoundRecord.from_dict(record.to_dict())
        assert restored.participants is not record.participants

    def test_synthesized_values_differ_from_defaults(self):
        # The round trip only proves persistence if each probe value is
        # distinguishable from what from_dict would default to.
        record = distinct_record()
        for field in dataclasses.fields(RoundRecord):
            value = getattr(record, field.name)
            if field.default is not dataclasses.MISSING:
                assert value != field.default
            elif field.default_factory is not dataclasses.MISSING:
                assert value != field.default_factory()

    def test_none_accuracy_survives(self):
        record = distinct_record()
        record.test_accuracy = None
        restored = RoundRecord.from_dict(record.to_dict())
        assert restored.test_accuracy is None

    def test_legacy_record_defaults_new_fields(self):
        legacy = {"round": 2, "test_accuracy": 0.5, "train_loss": 1.0}
        restored = RoundRecord.from_dict(legacy)
        assert restored.virtual_time == 0.0
        assert restored.staleness == []
        assert restored.buffer_flush == 0


class TestHistoryRoundTrip:
    def test_history_round_trips_records(self):
        history = History()
        for index in range(3):
            record = distinct_record()
            record.round_index = index
            history.append(record)
        restored = History.from_dict(json.loads(json.dumps(history.to_dict())))
        assert len(restored) == 3
        for original, reloaded in zip(history.records, restored.records):
            assert original == reloaded

    def test_staleness_accessors(self):
        history = History()
        history.append(
            RoundRecord(0, 0.5, 1.0, [1, 2], staleness=[0, 2], virtual_time=3.5)
        )
        assert history.mean_staleness() == pytest.approx(1.0)
        assert history.virtual_times.tolist() == [3.5]

    def test_mean_staleness_empty(self):
        assert History().mean_staleness() == 0.0
