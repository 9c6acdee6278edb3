"""Submission validation, canonicalisation and response envelopes."""

from __future__ import annotations

import pytest

from repro import api
from repro.campaign.spec import RunSpec
from repro.core.results import RESULT_SCHEMA_VERSION
from repro.errors import ConfigurationError, SchemaError
from repro.service import validate_submission
from repro.service.schemas import error_body, response_body

PRESET_SUBMISSION = {
    "kind": "preset",
    "preset": "quickstart",
    "mode": "dlb",
    "n_steps": 10,
    "seed": 3,
}


class TestCanonicalizeSubmission:
    def test_hash_matches_campaign_spec_hash(self):
        canonical = api.canonicalize_submission(dict(PRESET_SUBMISSION))
        spec = RunSpec(**PRESET_SUBMISSION)
        assert canonical.run_hash == spec.spec_hash()
        assert canonical.content == spec.content()

    def test_rejects_non_object(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            api.canonicalize_submission([1, 2, 3])

    def test_rejects_unknown_fields_by_name(self):
        with pytest.raises(ConfigurationError, match="'bogus'"):
            api.canonicalize_submission(dict(PRESET_SUBMISSION, bogus=1))

    def test_rejects_unknown_preset_with_available_list(self):
        with pytest.raises(ConfigurationError, match="available"):
            api.canonicalize_submission(dict(PRESET_SUBMISSION, preset="nope"))

    @pytest.mark.parametrize("fields", [
        # The pair-search axis is gone: "backend" is an unknown field.
        {"backend": "bogus"},
        {"backend": "cells", "engine": "multiprocess"},
        # 5.0 would canonicalise, then fail at execution; True would hash
        # apart from 1 and run the same physics twice.
        {"n_steps": 5.0},
        {"seed": True},
    ])
    def test_rejects_backends_the_worker_cannot_run(self, fields):
        name = next(iter(fields))  # the offending field, named in the error
        with pytest.raises(
            ConfigurationError, match=f"field.*'{name}'|{name} must be an integer"
        ):
            api.canonicalize_submission(dict(PRESET_SUBMISSION, **fields))

    def test_accepts_current_schema_version(self):
        submission = dict(PRESET_SUBMISSION,
                          schema_version=RESULT_SCHEMA_VERSION)
        canonical = api.canonicalize_submission(submission)
        assert canonical.run_hash == RunSpec(**PRESET_SUBMISSION).spec_hash()

    def test_rejects_unknown_major_schema_version(self):
        submission = dict(PRESET_SUBMISSION, schema_version="99.0")
        with pytest.raises(SchemaError, match="99.0"):
            api.canonicalize_submission(submission)


class TestValidateSubmission:
    def test_strips_service_keys_from_the_hash(self):
        plain = validate_submission(dict(PRESET_SUBMISSION))
        with_events = validate_submission(
            dict(PRESET_SUBMISSION, record_events=True)
        )
        assert plain.run_hash == with_events.run_hash
        assert not plain.record_events
        assert with_events.record_events

    def test_rejects_non_dict_body(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            validate_submission("not a dict")

    def test_rejects_non_bool_record_events(self):
        with pytest.raises(ConfigurationError, match="record_events"):
            validate_submission(dict(PRESET_SUBMISSION, record_events="yes"))


class TestEnvelopes:
    def test_response_body_is_schema_versioned(self):
        body = response_body({"status": "ok"})
        assert body["schema_version"] == RESULT_SCHEMA_VERSION

    def test_error_body_carries_message_and_status(self):
        body = error_body("boom", 400)
        assert body == {
            "error": "boom",
            "status": 400,
            "schema_version": RESULT_SCHEMA_VERSION,
        }
