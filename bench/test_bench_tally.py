"""A failed timed operation makes the run incorrect; a failed probe is reported apart."""

import types

import pytest

import run


def _cli(argv):
    if argv[0] == "raise":
        raise ValueError("boom")
    print('{"ok": true}')
    return 3 if argv[0] == "fail" else 0


CLI = types.SimpleNamespace(main=_cli)


def _op(argv0, rejected=False):
    return run.Op(argv0, [[argv0]], lambda texts: ["wrong"] if rejected else [])


def _tally(timed, once=()):
    timed_records = [run.OpRecord() for _ in timed]
    once_records = [run.OpRecord() for _ in once]
    run.run_ops(CLI, timed, timed_records, 0)
    run.run_ops(CLI, list(once), once_records, 0)
    return run.tally(timed, timed_records, list(once), once_records)


def test_run_of_good_operations_is_correct():
    result = _tally([_op("ok"), _op("ok")])
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0


@pytest.mark.parametrize("bad", [_op("fail"), _op("raise"), _op("ok", rejected=True)],
                         ids=["exit-non-zero", "exception", "rejected-output"])
def test_failed_timed_operation_makes_run_incorrect(bad):
    result = _tally([_op("ok"), bad])
    assert not result["correct"]
    assert result["failed"] == 1 and len(result["problems"]) == 1


def test_failed_probe_after_the_window_is_reported_apart():
    result = _tally([_op("ok")], [_op("fail"), _op("raise"), _op("ok", rejected=True)])
    assert result["correct"]
    assert result["attempted"] == 1 and result["failed"] == 0
    assert result["probe_attempted"] == 3 and result["probe_failed"] == 3
    assert len(result["known"]) == 3
