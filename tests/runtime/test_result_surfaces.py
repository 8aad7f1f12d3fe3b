"""One result, every surface: the façade, the batch runtime, the store, the
broker spool and the telemetry manifest must all report the same outcome.

Each surface runs (or carries) one ``ok`` job and one job that fails inside
the planner, and the fields a consumer reads — identity, status, the paper's
columns, the plan, the planner's ``extra`` and the error — must agree across
all of them.  Separate executions differ only in wall-clock readings, so
those are compared with every ``*seconds*`` key dropped; a surface that only
carries an existing result (store, broker marker, manifest) must reproduce it
exactly.  The wire shapes the surfaces persist are pinned by key set.
"""

import json

import pytest

import repro
from repro.dist import Broker
from repro.evaluation import run_comparison
from repro.runtime import PlanJob, PlannerSpec, ResultStore, Telemetry, run_jobs
from repro.runtime.jobs import execute_job

FIELDS = (
    "job_id", "case", "label", "planner", "status",
    "writing_time", "num_selected", "plan", "extra", "error",
)
RESULT_KEYS = {
    "job_id", "case", "label", "planner", "status", "error",
    "writing_time", "num_selected", "runtime_seconds", "wall_seconds",
    "worker_pid", "attempts", "cache_hit", "plan", "instance_summary", "extra",
}
MANIFEST_JOB_KEYS = {"ts", "v", "record"} | RESULT_KEYS - {"plan", "instance_summary"}
CELL_KEYS = {"algorithm", "case", "writing_time", "num_selected", "runtime_seconds", "extra"}


def _ok_job():
    return PlanJob(spec=PlannerSpec("eblow-1d"), case="1T-1", scale=1.0, label="e")


def _bad_job():
    # A 1D planner on a 2D case fails inside the planner, not at validation.
    return PlanJob(spec=PlannerSpec("greedy-1d"), case="2T-1", scale=1.0, label="bad")


def _timeless(value):
    if isinstance(value, dict):
        return {k: _timeless(v) for k, v in value.items() if "seconds" not in k}
    if isinstance(value, list):
        return [_timeless(v) for v in value]
    return value


def _fields(result) -> dict:
    data = result if isinstance(result, dict) else result.to_dict()
    return {name: data.get(name) for name in FIELDS}


@pytest.fixture(scope="module")
def reference():
    """The inline batch runtime's results: the baseline every surface meets."""
    ok, bad = run_jobs([_ok_job(), _bad_job()], max_workers=1)
    assert ok.ok, ok.error
    assert bad.status == "error" and bad.error
    assert ok.extra, "the ok job must carry planner extra to compare"
    return ok, bad


def _assert_same_outcome(result, expected, exact=False):
    got, want = _fields(result), _fields(expected)
    if not exact:
        got, want = _timeless(got), _timeless(want)
    assert got == want


def test_facade_agrees(reference):
    ok, bad = reference
    _assert_same_outcome(repro.plan("1T-1", planner="eblow-1d", scale=1.0, label="e"), ok)
    failed = repro.plan("2T-1", planner="greedy-1d", scale=1.0, label="bad", check=False)
    _assert_same_outcome(failed, bad)


def test_pooled_run_jobs_agrees(reference):
    ok, bad = reference
    pooled_ok, pooled_bad = run_jobs([_ok_job(), _bad_job()], max_workers=2)
    _assert_same_outcome(pooled_ok, ok)
    _assert_same_outcome(pooled_bad, bad)


def test_store_round_trip_agrees(tmp_path, reference):
    ok, bad = reference
    store = ResultStore(tmp_path / "store")
    path = store.put(_ok_job(), ok)
    cached = store.get(_ok_job())
    assert cached is not None and cached.cache_hit
    _assert_same_outcome(cached, ok, exact=True)
    # Failed results are never persisted.
    assert store.put(_bad_job(), bad) is None
    assert store.get(_bad_job()) is None

    envelope = json.loads(path.read_text())
    assert set(envelope) == {"record", "v", "sha256", "result"}
    assert set(envelope["result"]) == RESULT_KEYS


def test_broker_round_trip_agrees(tmp_path, reference):
    ok, bad = reference
    broker = Broker.create(tmp_path / "spool")
    jobs = [_ok_job(), _bad_job()]
    for job in jobs:
        assert broker.enqueue(job) == "queued"
    for _ in jobs:
        lease = broker.claim("w1")
        assert lease is not None
        assert broker.commit(lease, execute_job(lease.job)) == "committed"
    _assert_same_outcome(broker.fetch(jobs[0]), ok)
    _assert_same_outcome(broker.fetch(jobs[1]), bad)

    for job in jobs:
        marker = json.loads((broker.done / f"{job.job_id}.json").read_text())
        assert set(marker["result"]) == RESULT_KEYS


def test_telemetry_record_agrees(reference):
    telemetry = Telemetry()
    for result in reference:
        record = telemetry.record(result)
        assert set(record) == MANIFEST_JOB_KEYS
        expected = {k: v for k, v in _fields(result).items() if k != "plan"}
        assert {k: record[k] for k in expected} == expected


def test_comparison_cell_agrees(reference):
    ok, _ = reference
    comparison = run_comparison(["1T-1"], {"e": "eblow-1d"}, scale=1.0)
    cell = comparison.to_dict()["rows"][0]["results"]["e"]
    assert set(cell) == CELL_KEYS
    assert cell["algorithm"] == ok.label
    assert cell["case"] == ok.case
    assert cell["writing_time"] == ok.writing_time
    assert cell["num_selected"] == ok.num_selected
    assert _timeless(cell["extra"]) == _timeless(ok.extra)
