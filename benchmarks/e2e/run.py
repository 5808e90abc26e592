#!/usr/bin/env python3
"""Closed-loop Send -> Receive benchmark over the in-process, TCP and
gateway deployments, with a per-layer table.  See README.md beside
this file for what each workload and metric is and why it exists.

One command runs everything and prints every metric by name::

    python3 benchmarks/e2e/run.py [--seed N] [--seconds S] [--workload NAME]
                                  [--out PATH] [--repeat N] [--smoke]

``--trace 0`` limits a run to the untraced end-to-end pass and
``--trace 1`` to the per-layer passes (traced, single-stepped counts,
micro-calls).  With ``--workload`` and ``--trace`` both given, the last
line of standard output is the run's result as one JSON object.

    python3 benchmarks/e2e/run.py --compare A.json B.json

prints, per workload and end-to-end metric, both medians, their ratio
and ``ok``, ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

DEFAULT_SEED = 1990
DEFAULT_SECONDS = 20.0
#: length of the traced pass when it runs beside a full end-to-end pass
TRACED_SECONDS = 5.0
SMOKE_SECONDS = 1.0


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def import_program() -> None:
    """Put the program under test on the path: the checkout's own
    ``src/``, never an installed copy."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def run_workloads(reaper, names: list[str], seed: int, seconds: float,
                  trace: int | None, smoke: bool = False) -> tuple[dict, dict]:
    """One pass over ``names``; returns the per-workload results and the
    digests of their inputs.  ``smoke`` cuts the repeated set-ups and
    micro-calls to a tenth or so: the run then shows that every metric
    is produced, not what it is."""
    from deployments import WORKLOADS
    from inputs import make_inputs
    import measure
    import micro

    os.makedirs(OUT, exist_ok=True)
    workloads: dict = {}
    digests: dict = {}
    try:
        micro_metrics = {}
        if trace != 0:
            micro_metrics = micro.run_micro(seed, reaper, scale=0.1 if smoke else 1.0)
        for name in names:
            workload = WORKLOADS[name]
            inputs = make_inputs(
                name, seed, clients=workload.clients, shards=workload.shards,
                bulk=workload.bulk)
            digests[name] = inputs.sha256
            entry = workloads[name] = {}
            base = None
            if trace != 1:
                budget = {"setups": 2, "probe_seconds": 0.0} if smoke else {}
                entry["end_to_end"], base = measure.end_to_end(
                    workload, inputs, reaper, seconds, **budget)
            if trace != 0:
                # Beside a full untraced pass the traced one is a fixed
                # 5 s; on its own it splits ``--seconds`` with the
                # untraced run it needs as the overhead's base.
                traced_seconds = (
                    min(seconds, TRACED_SECONDS) if base else seconds / 2)
                entry["per_layer"] = measure.per_layer(
                    workload, inputs, reaper, traced_seconds, micro_metrics,
                    str(OUT / f"trace-{name}.jsonl"), base)
    finally:
        reaper.reap()
        try:
            os.rmdir(reaper.root)
        except OSError:
            pass
    return workloads, digests


def environment(seconds: float, reaper) -> dict:
    from deployments import WORKLOADS

    return {
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "cpus": {"driver": sorted(reaper.driver_cpus),
                 "shards": sorted(reaper.shard_cpus)},
        "python": platform.python_version(),
        "platform": platform.platform(),
        "data_root": str(OUT.relative_to(ROOT)),
        "data_root_fs": filesystem_of(OUT if OUT.exists() else HERE),
        "git_commit": git_commit(),
        "load_threads": {
            name: {
                "client_threads": 1 if w.front == "gateway" else w.clients,
                "clients": w.clients,
                "server_threads": 1,
            }
            for name, w in WORKLOADS.items()
        },
    }


def filesystem_of(path: Path) -> str:
    """File-system type of the mount holding ``path`` (``/proc/mounts``)."""
    best, fs_type = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                _device, mount, kind = line.split()[:3]
                inside = mount == "/" or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fs_type = mount, kind
    except OSError:
        pass
    return fs_type


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly: running
    ``git`` in a checkout that is not a repository searches its parents."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def units(contract: dict) -> dict[str, str]:
    table = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    table["fail_ratio"] = "ratio"
    return table


def print_metrics(workloads: dict, contract: dict) -> None:
    """``workload metric value unit``, one line per metric."""
    unit_of = units(contract)
    for name, entry in workloads.items():
        end_to_end = entry.get("end_to_end", {})
        if end_to_end:
            tail = end_to_end["rtt_tail_pct"]
            if tail < 99.0:
                print(f"{name} note: too few samples for p99; rtt_p99_ms is "
                      f"the p{tail:.1f} of {end_to_end['samples']}")
        for section in ("end_to_end", "per_layer"):
            for metric, value in entry.get(section, {}).items():
                if metric in unit_of:
                    print(f"{name} {metric} {value:.6g} {unit_of[metric]}")
        if end_to_end:
            print(f"{name} samples {end_to_end['samples']} count")


def contract_line(entry: dict, contract: dict, trace: int) -> str:
    """The one-object result the driver reads from the last line."""
    section = "per_layer" if trace else "end_to_end"
    declared = contract[section]
    measured = entry[section]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise SystemExit(f"run.py: declared metrics not measured: {missing}")
    return json.dumps({
        "correct": True,
        "attempted": measured["attempted"],
        "failed": 0,
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    })


# ---------------------------------------------------------------------------
# Repeats and comparison
# ---------------------------------------------------------------------------


def repeat(args: argparse.Namespace, names: list[str]) -> dict:
    """``--repeat N``: N fresh processes, one document."""
    runs = []
    for index in range(args.repeat):
        part = OUT / f"repeat-{os.getpid()}-{index}.json"
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--out", str(part),
        ]
        for name in names:
            command += ["--workload", name]
        if args.trace is not None:
            command += ["--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        print(f"# repeat {index + 1}/{args.repeat}", flush=True)
        subprocess.run(command, check=True)
        with open(part, encoding="utf-8") as handle:
            document = json.load(handle)
        part.unlink()
        runs.extend(document["runs"])
    document["runs"] = runs
    return document


def compare(path_a: str, path_b: str, contract: dict) -> int:
    from stat_tools import spread

    with open(path_a, encoding="utf-8") as a, open(path_b, encoding="utf-8") as b:
        doc_a, doc_b = json.load(a), json.load(b)
    if doc_a["env"]["seconds"] != doc_b["env"]["seconds"]:
        sys.exit("run.py: the two documents were measured with different --seconds")

    def values(doc: dict, workload: str, metric: str) -> list[float]:
        return [run["workloads"][workload]["end_to_end"][metric]
                for run in doc["runs"]
                if metric in run["workloads"].get(workload, {}).get("end_to_end", {})]

    worst = 0
    print(f"{'workload':15s} {'metric':12s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            a = values(doc_a, workload, metric["name"])
            b = values(doc_b, workload, metric["name"])
            if not a or not b:
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            ratio = median_b / median_a
            change = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            spreads = [spread(v) for v in (a, b) if len(v) >= 2]
            if spreads and max(spreads) > metric["bound"]:
                verdict = f"unresolved (spread {max(spreads):.3f})"
                worst = max(worst, 1)
            elif change > metric["bound"]:
                verdict = "worse"
                worst = 2
            else:
                verdict = "ok"
            print(f"{workload:15s} {metric['name']:12s} {median_a:12.6g} "
                  f"{median_b:12.6g} {ratio:7.3f} {metric['bound']:6.2f}  {verdict}")
    return worst


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse(argv: list[str] | None, workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time per workload (forty windows)")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="run only this workload (repeatable)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end pass only; 1: per-layer passes only")
    parser.add_argument("--out", default=None, help="where to write the JSON")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run this many times, each in a fresh process")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS:g} s per workload: does it run at all")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    declared = [w["name"] for w in contract["workloads"]]
    args = parse(argv, declared)
    if args.compare:
        return compare(*args.compare, contract)
    import_program()
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    names = args.workload or declared

    if args.repeat > 1:
        document = repeat(args, names)
    else:
        from deployments import CheckFailed, Reaper

        reaper = Reaper(str(OUT / f"data-{os.getpid()}"))
        reaper.place_driver()
        atexit.register(reaper.reap)
        # SIGTERM must unwind through the ``finally`` blocks and
        # ``atexit``: shard processes outlive a parent that dies
        # without reaping them.
        signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
        try:
            workloads, digests = run_workloads(
                reaper, names, args.seed, args.seconds, args.trace, args.smoke)
        except CheckFailed as exc:
            print(f"run.py: output check failed: {exc}", file=sys.stderr)
            return 1
        print_metrics(workloads, contract)
        document = {
            "schema": 1,
            "seed": args.seed,
            "inputs_sha256": digests,
            "env": environment(args.seconds, reaper),
            "runs": [{"workloads": workloads}],
        }
    out = Path(args.out) if args.out else OUT / "e2e.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    if args.trace is not None and len(names) == 1 and args.repeat == 1:
        print(contract_line(
            document["runs"][0]["workloads"][names[0]], contract, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
