"""Chaos-campaign CLI: ``python -m repro.chaos``.

Runs ``--episodes`` seeded episodes starting at ``--base-seed``; every
failing episode is replayed to confirm determinism and shrunk to a
minimal counterexample, which is printed and included in the JSON
report (``--out``).  Exit status is non-zero iff any episode failed.

Examples::

    python -m repro.chaos --episodes 200 --base-seed 0
    python -m repro.chaos --seed 1234                  # replay one seed
    python -m repro.chaos --episodes 50 --planted-bug ack-no-force
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Any

from repro.chaos.engine import run_episode
from repro.chaos.schedule import ChaosConfig
from repro.chaos.shrink import shrink
from repro.transaction.cc import CC_POLICIES


def _build_config(args: argparse.Namespace) -> ChaosConfig:
    return ChaosConfig(
        clients=args.clients,
        requests_per_client=args.requests,
        servers=args.servers,
        max_faults=args.max_faults,
        planted_bug=args.planted_bug,
        shards=args.shards,
        checkpoint_interval_bytes=args.checkpoint_bytes,
        flight_dir=args.flight_dir,
        replicate=args.replicate,
        cc=args.cc,
    )


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Deterministic chaos campaigns over the recoverable-queue stack.",
    )
    parser.add_argument("--episodes", type=int, default=200,
                        help="number of episodes to run (default 200)")
    parser.add_argument("--base-seed", type=int, default=0,
                        help="first seed; episode i uses base+i (default 0)")
    parser.add_argument("--seed", type=int, default=None,
                        help="replay a single seed (ignores --episodes)")
    parser.add_argument("--clients", type=int, default=3,
                        help="concurrent clients per episode (default 3)")
    parser.add_argument("--requests", type=int, default=3,
                        help="requests each client sends (default 3)")
    parser.add_argument("--servers", type=int, default=2,
                        help="servers on the request queue (default 2)")
    parser.add_argument("--max-faults", type=int, default=6,
                        help="max faults sampled per episode (default 6)")
    parser.add_argument("--shards", type=int, default=1,
                        help="repository shards under the queue node; >1 "
                             "targets disk faults at individual shards and "
                             "adds 2PC crash points (default 1)")
    parser.add_argument("--checkpoint-bytes", type=int, default=None,
                        help="run a byte-triggered fuzzy checkpointer during "
                             "each episode (polled every step) and add the "
                             "ckpt.* crash points to the sampler (default off)")
    parser.add_argument("--replicate", action="store_true", default=False,
                        help="attach a warm standby + log shipper to every "
                             "shard and add the node.kill / failover / "
                             "standby.lag fault family to the sampler "
                             "(default off)")
    parser.add_argument("--cc", choices=CC_POLICIES, default="2pl",
                        help="concurrency-control policy under test: "
                             "'deterministic' routes queue-shaped "
                             "transactions through the plan-queue lane and "
                             "adds the det.plan.* crash points to the "
                             "sampler (default 2pl)")
    parser.add_argument("--flight-dir", default=None,
                        help="write flight-recorder JSONL dumps for failing "
                             "episodes into this directory (default off)")
    parser.add_argument("--planted-bug", default=None,
                        help="enable a known test-only bug (e.g. 'ack-no-force') "
                             "to demo failure finding and shrinking")
    parser.add_argument("--shrink", dest="shrink", action="store_true",
                        default=True, help="shrink failing schedules (default)")
    parser.add_argument("--no-shrink", dest="shrink", action="store_false",
                        help="skip shrinking failing schedules")
    parser.add_argument("--out", default=None,
                        help="write the JSON campaign report to this file")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only print failures and the summary")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    config = _build_config(args)
    seeds = (
        [args.seed]
        if args.seed is not None
        else [args.base_seed + i for i in range(args.episodes)]
    )

    outcomes: dict[str, int] = {}
    failures: list[dict[str, Any]] = []
    results: list[dict[str, Any]] = []
    for seed in seeds:
        result = run_episode(seed, config)
        outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
        results.append(result.to_record())
        if not args.quiet or result.failed:
            print(
                f"seed {seed}: {result.outcome}  "
                f"(steps={result.steps} restarts={result.restarts} "
                f"faults={result.faults_injected})  "
                f"[{result.schedule.describe()}]"
            )
        if not result.failed:
            continue

        failure: dict[str, Any] = {"seed": seed, "result": result.to_record()}
        if result.flight_dump is not None:
            failure["flight_dump"] = result.flight_dump
            print(f"  flight recorder dump: {result.flight_dump}")
        # Replay + shrinking re-run the episode many times; keep only
        # the original failure's flight dump instead of rewriting it on
        # every failing replay.
        quiet_config = replace(config, flight_dir=None)
        replay = run_episode(seed, quiet_config)
        failure["deterministic"] = replay.fingerprint == result.fingerprint
        if not failure["deterministic"]:
            print(f"seed {seed}: WARNING — replay fingerprint differs "
                  "(non-deterministic episode, shrinking skipped)")
        elif args.shrink:
            shrunk = shrink(result.schedule, quiet_config, failed=result)
            failure["shrink"] = shrunk.to_record()
            print(f"seed {seed}: shrunk {len(result.schedule.faults)} -> "
                  f"{len(shrunk.minimal.faults)} faults "
                  f"in {shrunk.replays} replays")
            print(f"  minimal schedule: {shrunk.minimal.describe()}")
            for violation in shrunk.result.violations:
                print(f"  {violation}")
            print("  minimal schedule (JSON): "
                  + json.dumps(shrunk.minimal.to_record(), sort_keys=True))
        for violation in result.violations:
            print(f"  {violation}")
        if result.error:
            print(f"  error: {result.error}")
        failures.append(failure)

    total = len(seeds)
    summary = ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
    print(f"\n{total} episodes: {summary}")
    if failures:
        print(f"{len(failures)} FAILING seed(s): "
              + ", ".join(str(f["seed"]) for f in failures))

    if args.out:
        report = {
            "episodes": total,
            "base_seed": args.base_seed if args.seed is None else args.seed,
            "config": {
                "clients": config.clients,
                "requests_per_client": config.requests_per_client,
                "servers": config.servers,
                "max_faults": config.max_faults,
                "planted_bug": config.planted_bug,
                "shards": config.shards,
                "checkpoint_interval_bytes": config.checkpoint_interval_bytes,
                "flight_dir": config.flight_dir,
                "replicate": config.replicate,
                "cc": config.cc,
            },
            "outcomes": outcomes,
            "failures": failures,
            "results": results,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report written to {args.out}")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
