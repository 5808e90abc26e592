"""Self-tests of the benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import measure
import run
from deployments import WORKLOADS, Reaper
from inputs import make_inputs
from span_tools import Span, covered, inherit_rids, per_request, self_times
from stat_tools import (
    TAIL_MIN_BEYOND,
    Window,
    percentile,
    split_windows,
    spread,
    summarize,
    supported_tail,
)

HERE = Path(__file__).resolve().parent
CONTRACT = run.load_contract()


# -- percentiles and windows --------------------------------------------------


def test_percentile_is_nearest_rank():
    hundred = list(range(1, 101))
    assert percentile(hundred, 50) == 50
    assert percentile(hundred, 99) == 99
    assert percentile(hundred, 100) == 100
    assert percentile([1, 2, 3, 4], 50) == 2
    assert percentile([1, 2, 3, 4], 51) == 3
    assert percentile([7], 99) == 7
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("count", [11, 127, 999, 1000, 1001, 50_000])
def test_tail_leaves_ten_samples_beyond(count):
    pct = supported_tail(count)
    assert pct <= 99.0
    ordered = list(range(count))
    beyond = sum(1 for sample in ordered if sample > percentile(ordered, pct))
    assert beyond >= TAIL_MIN_BEYOND
    if count >= 1000:
        assert pct == 99.0
    else:
        # the highest such percentile: one rank further leaves only nine
        assert count - (ordered.index(percentile(ordered, pct)) + 2) < TAIL_MIN_BEYOND


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        supported_tail(TAIL_MIN_BEYOND)


def test_windows_drop_the_warm_up_and_the_overrun():
    starts = [0.0, 0.9, 1.1, 2.5, 3.9, 4.1]
    ends = [0.5, 1.0, 1.4, 2.9, 4.0, 4.2]
    windows = split_windows(starts, ends, begin=1.0, width=1.0, count=3)
    assert [len(w.rtts) for w in windows] == [2, 1, 0]
    assert windows[0].rtts == pytest.approx([0.1, 0.3])
    assert windows[1].rtts == pytest.approx([0.4])


def test_rate_and_latency_come_from_the_least_disturbed_window():
    windows = [Window(1.0, [0.010] * 100) for _ in range(3)]
    windows.append(Window(1.0, [0.012] * 80))
    windows.append(Window(1.0, [0.500] * 10))  # the host stalled
    result = summarize(windows)
    assert result["req_per_s"] == 100
    assert result["rtt_p50_ms"] == pytest.approx(10.0)
    assert result["samples"] == 390
    # the tail is pooled, so it does see the stall: 390 samples support
    # p97.4, which leaves exactly the ten slow ones beyond it
    assert result["rtt_tail_pct"] == pytest.approx(100 * 380 / 390)
    assert result["rtt_p99_ms"] == pytest.approx(12.0)


def test_a_stalled_window_is_passed_over_but_not_a_stalled_run():
    result = summarize([Window(1.0, [0.01] * 20), Window(1.0, [])])
    assert result["req_per_s"] == 20
    assert result["rtt_p50_ms"] == pytest.approx(10.0)
    with pytest.raises(ValueError):
        summarize([Window(1.0, []), Window(1.0, [])])


def test_spread_is_interquartile_over_median():
    assert spread([10, 10, 10, 10]) == 0
    assert spread([8, 9, 10, 11, 12]) == pytest.approx(3 / 10)


# -- spans ------------------------------------------------------------------


def _span(id, name, start, end, parent=0, rid=None, ok=True):
    return Span(id, name, start, end, parent, rid, ok)


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered([], 0, 10) == 0


def test_self_time_is_duration_minus_what_children_cover():
    spans = [
        _span(1, "root", 0.0, 10.0, rid="c#1"),
        _span(2, "child", 1.0, 3.0, parent=1),
        _span(3, "child", 2.0, 5.0, parent=1),  # overlaps span 2
        _span(4, "child", 7.0, 8.0, parent=1),
        _span(5, "grandchild", 7.2, 7.7, parent=4),
        _span(6, "stranger", 4.0, 6.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - 4 - 1)
    assert own[2] == pytest.approx(2)
    assert own[4] == pytest.approx(0.5)
    assert own[5] == pytest.approx(0.5)
    assert own[6] == pytest.approx(2)
    # self times of a tree add up to its root's duration when children nest
    nested = [s for s in spans if s.id in (4, 5)]
    assert sum(self_times(nested).values()) == pytest.approx(1.0)


def test_rids_are_inherited_and_summed_per_request():
    spans = [
        _span(1, "core.server.process_one", 0, 4, rid="c#1"),
        _span(2, "queueing.manager.dequeue", 0, 1, parent=1),
        _span(3, "transaction.commit", 2, 4, parent=1),
        _span(4, "storage.disk.flush", 3, 4, parent=3),
        _span(5, "core.server.process_one", 5, 6, ok=False),  # empty poll
        _span(6, "queueing.manager.dequeue", 5, 6, parent=5),
    ]
    rids = inherit_rids(spans)
    assert [rids[i] for i in range(1, 7)] == ["c#1"] * 4 + [None, None]
    own = self_times(spans)
    commits = per_request(spans, own, lambda s: s.name == "transaction.commit")
    assert commits == {"c#1": pytest.approx(1.0)}


def test_layer_table_takes_waiting_out_of_the_layers():
    spans = [
        _span(1, "core.clerk.send", 0.0, 1.0, rid="c#1"),
        _span(2, "queueing.manager.enqueue", 0.1, 0.9, parent=1),
        _span(3, "core.clerk.receive", 1.0, 5.0, rid="c#1"),
        _span(4, "queueing.manager.dequeue", 1.2, 4.8, parent=3),
        # the server polled at 0.5, half a second before the Send returned
        _span(5, "core.server.process_one", 0.5, 4.0, rid="c#1"),
        _span(6, "queueing.manager.dequeue", 0.6, 2.0, parent=5),
        _span(7, "core.server.process_one", 4.0, 4.5, ok=False),
    ]
    table = measure.layer_table(
        spans, "queueing.manager.dequeue", "queueing.manager.dequeue")
    assert table["core.clerk.self_us"] == pytest.approx((0.2 + 0.4) * 1e6)
    # the dequeue a clerk is blocked in is waiting, not queue-manager work
    assert table["core.reply_wait_us"] == pytest.approx(3.6e6)
    # ... and so are the 0.4 s the server's dequeue spent before the Send
    assert table["queueing.manager.self_us"] == pytest.approx((0.8 + 1.0) * 1e6)
    assert table["core.server.self_us"] == pytest.approx(2.1e6)
    assert table["server_busy_s"] == pytest.approx(3.5 - 0.4)
    assert table["trace.accounted_ratio"] == pytest.approx(1.0)
    assert table["gateway.submit_us"] == 0.0


# -- inputs -------------------------------------------------------------------


def test_inputs_follow_the_seed():
    kwargs = dict(clients=2, shards=1, bulk=False)
    again = make_inputs("tcp_echo", 7, **kwargs)
    assert make_inputs("tcp_echo", 7, **kwargs) == again
    assert make_inputs("tcp_echo", 8, **kwargs).sha256 != again.sha256
    assert all(56 <= size <= 72 for size in again.body_sizes)
    bulk = make_inputs("tcp_bulk", 7, clients=2, shards=1, bulk=True)
    assert all(7 * 1024 <= size <= 9 * 1024 for size in bulk.body_sizes)


def test_gateway_reply_queues_split_evenly_for_any_seed():
    from repro.queueing.placement import ConsistentHashPlacement

    placement = ConsistentHashPlacement()
    for seed in range(5):
        ids = make_inputs("gateway_fanin", seed, clients=16, shards=2,
                          bulk=False).client_ids
        assert len(set(ids)) == 16
        on_zero = sum(placement.shard_for(f"reply.{cid}", 2) == 0 for cid in ids)
        assert on_zero == 8


# -- contract -----------------------------------------------------------------


def test_contract_names_and_workloads():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in CONTRACT[section]]
    assert len(names) == len(set(names))
    assert all(name.fullmatch(n) for n in names)
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert unit.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert CONTRACT["paths"] == ["benchmarks/e2e"]


def test_smoke_run_prints_every_declared_metric(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    printed = {tuple(line.split()[:2]) for line in done.stdout.splitlines()}
    for workload in WORKLOADS:
        for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
            assert (workload, metric["name"]) in printed
        assert (workload, "fail_ratio") in printed
    document = json.loads(out.read_text())
    assert document["seed"] == run.DEFAULT_SEED
    assert set(document["inputs_sha256"]) == set(WORKLOADS)
    for key in ("seconds", "nproc", "cpus", "python", "platform",
                "data_root_fs", "git_commit", "load_threads"):
        assert key in document["env"]
    # predictions that hold whatever the machine
    layers = {w: document["runs"][0]["workloads"][w]["per_layer"] for w in WORKLOADS}
    for metric, value in layers["inproc_echo"].items():
        run_time = metric.endswith(("self_us", "wait_us", "per_req", "ratio"))
        if metric.startswith(("comm.", "serve.", "gateway.")) and run_time:
            assert value == 0, metric
    for workload, table in layers.items():
        cross = table["transaction.cross_shard_ratio"]
        assert (cross > 0) == (workload == "gateway_fanin")
        assert table["trace.accounted_ratio"] >= 0.9
    assert not list((HERE / "out").glob("data-*"))  # nothing left behind


# -- compare ------------------------------------------------------------------


def _document(seconds, **values):
    runs = [
        {"workloads": {"tcp_echo": {"end_to_end": {
            metric: series[i] for metric, series in values.items()}}}}
        for i in range(3)
    ]
    return {"env": {"seconds": seconds}, "runs": runs}


_BOUNDS = {
    "workloads": [{"name": "tcp_echo"}],
    "end_to_end": [
        {"name": "req_per_s", "better": "higher", "bound": 0.10},
        {"name": "rtt_p50_ms", "better": "lower", "bound": 0.10},
        {"name": "recovery_s", "better": "lower", "bound": 0.10},
    ],
}


def test_compare_verdicts(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_document(
        10, req_per_s=[300, 301, 302], rtt_p50_ms=[6.0, 6.1, 6.2],
        recovery_s=[0.20, 0.30, 0.40])))
    b.write_text(json.dumps(_document(
        10, req_per_s=[250, 251, 252], rtt_p50_ms=[6.1, 6.2, 6.3],
        recovery_s=[0.20, 0.30, 0.40])))
    assert run.compare(str(a), str(b), _BOUNDS) == 2
    verdicts = {
        line.split()[1]: line.split()[6]
        for line in capsys.readouterr().out.splitlines()[1:]
    }
    assert verdicts == {
        "req_per_s": "worse", "rtt_p50_ms": "ok", "recovery_s": "unresolved"}


def test_compare_refuses_different_run_lengths(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_document(10, req_per_s=[1, 1, 1])))
    b.write_text(json.dumps(_document(20, req_per_s=[1, 1, 1])))
    with pytest.raises(SystemExit):
        run.compare(str(a), str(b), _BOUNDS)


# -- process hygiene ----------------------------------------------------------


def test_no_shard_survives_a_failure_mid_workload(tmp_path, monkeypatch):
    workload = WORKLOADS["tcp_echo"]
    inputs = make_inputs("tcp_echo", 1, clients=2, shards=1, bulk=False)
    reaper = Reaper(str(tmp_path / "data"))
    pids = []

    def explode(front, _seconds):
        front.drive(count=3)
        pids.extend(shard.pid for shard in front.system.supervisor.shards)
        raise RuntimeError("mid-workload failure")

    monkeypatch.setattr(measure, "steady", explode)
    with pytest.raises(RuntimeError, match="mid-workload"):
        measure._run(workload, inputs, reaper, 1.0)
    assert len(pids) == 1
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert os.listdir(reaper.root) == []


def test_the_reaper_alone_is_enough(tmp_path):
    """``atexit`` has only the reaper: no front, no ``system.close()``."""
    from deployments import make_front

    inputs = make_inputs("tcp_echo", 1, clients=2, shards=1, bulk=False)
    reaper = Reaper(str(tmp_path / "data"))
    front = make_front(WORKLOADS["tcp_echo"], inputs, reaper)
    front.setup()
    try:
        pids = [shard.pid for shard in front.system.supervisor.shards]
        reaper.reap()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert os.listdir(reaper.root) == []
    finally:
        front.system.request_repo.close()
