"""``RunContext``: the run's fidelity/policy/fleet-jobs, parsed once.

Pins the parse contract (normalization, and error messages naming the
CLI flag plus the legal values), picklability — the context crosses
process boundaries into fleet and experiment workers — and the one
document reader's typed errors.
"""

import json
import pickle

import pytest

from repro.engine.context import RunContext, read_document


class ReaderError(ValueError):
    pass


def test_parse_defaults_leave_every_choice_open():
    assert RunContext.parse() == RunContext(None, None, 1)


def test_parse_normalizes_policy_aliases():
    assert RunContext.parse(policy="lfoc").policy == "lfoc_clustering"
    assert RunContext.parse(policy="Max-Performance").policy == "max_performance"


def test_parse_rejects_unknown_fidelity_listing_modes():
    with pytest.raises(ValueError) as info:
        RunContext.parse(fidelity="quantum")
    message = str(info.value)
    assert message.startswith("--fidelity: unknown fidelity 'quantum'")
    assert "['analytical', 'mixed', 'exact']" in message


def test_parse_rejects_unknown_policy_listing_registry():
    with pytest.raises(ValueError) as info:
        RunContext.parse(policy="banana")
    message = str(info.value)
    assert message.startswith("--policy: unknown allocation policy 'banana'")
    assert "max_fairness" in message and "reserved_pooled" in message


@pytest.mark.parametrize("jobs", [0, -3, 1.5, True, "2"])
def test_parse_rejects_bad_fleet_jobs(jobs):
    with pytest.raises(ValueError, match="--fleet-jobs: must be an integer >= 1"):
        RunContext.parse(fleet_jobs=jobs)


def test_context_is_frozen_and_pickles():
    ctx = RunContext.parse(fidelity="mixed", policy="lfoc", fleet_jobs=3)
    assert pickle.loads(pickle.dumps(ctx)) == ctx
    with pytest.raises(AttributeError):
        ctx.fleet_jobs = 1


class TestReadDocument:
    def test_dict_text_and_file_agree(self, tmp_path):
        doc = {"a": [1, 2]}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        for source in (doc, json.dumps(doc), path, str(path)):
            assert read_document(source, "doc", ReaderError) == doc

    def test_truncated_file_names_file_line_and_column(self, tmp_path):
        path = tmp_path / "cut.json"
        path.write_text('{"vms": [')
        expected = r"doc '.*cut\.json': invalid JSON at line 1 column 10"
        with pytest.raises(ReaderError, match=expected):
            read_document(path, "doc", ReaderError)

    def test_non_object_rejected(self):
        with pytest.raises(ReaderError, match="expected an object, got list"):
            read_document("[1, 2]", "doc", ReaderError)

    def test_neither_file_nor_json(self):
        with pytest.raises(ReaderError, match="neither a file nor valid JSON"):
            read_document("no/such/file.json", "doc", ReaderError)
