#!/usr/bin/env python3
"""End-to-end benchmark of etkit, run against this checkout's own src/.

    python3 bench/run.py --workload envelope --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for the make-up of each):

    envelope  warm energy() + improved_energy() calls on unique inputs
    oracle    radial_eigenvalue() on two-body levels with exact answers
    cli       one fresh `python -m etkit.cli` process per operation

The load is closed-loop from one process and one thread.  A run is made
of whole rounds of operations, so the share of failed operations is the
same in every run.  Every output is checked.  End-to-end timings are
scaled by the host speed that hostspeed.py measures after every round.  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per-layer with --trace 1).  A fuller record
goes to bench/out/; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import OUT, SRC, WORKLOADS, setup  # noqa: E402

SETUP_SAMPLES = 5
# a tail percentile needs this many samples beyond it, and is only
# reported from this many samples up
TAIL_BEYOND = 10
TAIL_MIN_SAMPLES = 40


def _use_checkout_source() -> None:
    """Import etkit from this checkout's src/ or stop: never an installed copy."""
    if not (SRC / "etkit" / "__init__.py").is_file():
        sys.exit(f"bench: no etkit package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))


def _setup_sample(workload: str, seed: int) -> float:
    """Scaled set-up time of one fresh interpreter (cold import included)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    return float(proc.stdout.split()[-1])


def run_rounds(workload, first_round, seconds: float, tracer=None) -> dict:
    """Whole rounds until the next one would end past ``seconds``.

    Input generation happens between rounds and is not timed.  After each
    round the host speed factor is measured, and the round's timings are
    also kept scaled by it.  With a tracer, even-numbered rounds are
    traced and odd ones are not, so the tracing overhead can be read from
    the same run.
    """
    tally = {"attempted": 0, "failed": 0, "wrong": 0, "window_s": 0.0, "rounds": 0,
             "round_s": [], "factors": [], "ok_s": [], "scaled_ok_s": [],
             "traced_ok_s": [], "untraced_ok_s": [], "failures": {}, "problems": [],
             "traced_cases": []}
    cases = first_round
    while True:
        traced = tracer is not None and tally["rounds"] % 2 == 0
        ok_before = len(tally["ok_s"])
        t0 = perf_counter()
        for case in cases:
            parent = tracer.start("op") if traced else None
            elapsed, status, problems = workload.run_op(case, tracer if traced else None, parent)
            if traced:
                tracer.end(parent)
                tally["traced_cases"].append(case)
            tally["attempted"] += 1
            if status == "ok":
                tally["ok_s"].append(elapsed)
                if tracer is not None:
                    tally["traced_ok_s" if traced else "untraced_ok_s"].append(elapsed)
            elif status == "failed":
                tally["failed"] += 1
                key = problems[0].split(":")[0]
                tally["failures"][key] = tally["failures"].get(key, 0) + 1
            else:
                tally["wrong"] += 1
                tally["problems"] += problems
        tally["round_s"].append(perf_counter() - t0)
        tally["window_s"] += tally["round_s"][-1]
        factor = workload.host_factor()
        tally["factors"].append(factor)
        tally["scaled_ok_s"] += [factor * s for s in tally["ok_s"][ok_before:]]
        tally["rounds"] += 1
        mean_round = tally["window_s"] / tally["rounds"]
        if tally["window_s"] + mean_round > seconds:
            return tally
        cases = workload.new_round()


def _peak_rss_mb(workload_name: str) -> float:
    # ru_maxrss is in KiB on Linux; for children it is the largest one
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _tail(samples_s: list[float]) -> tuple[float, float] | None:
    """(percentile, ms) of the highest percentile with TAIL_BEYOND samples beyond it."""
    n = len(samples_s)
    if n < TAIL_MIN_SAMPLES:
        return None
    ordered = sorted(samples_s)
    return 100.0 * (n - TAIL_BEYOND) / n, 1e3 * ordered[n - TAIL_BEYOND - 1]


def end_to_end(workload_name: str, tally: dict, setup_s: list[float], scaled=True) -> dict:
    """The end-to-end metrics; timings scaled to the reference host unless not ``scaled``.

    Every round has the same make-up, so the median round gives the rate.
    """
    ok = len(tally["ok_s"])
    factors = tally["factors"] if scaled else [1.0] * tally["rounds"]
    ok_s = tally["scaled_ok_s"] if scaled else tally["ok_s"]
    round_s = statistics.median(f * s for f, s in zip(factors, tally["round_s"]))
    return {
        "ops_per_s": (ok / tally["rounds"] / round_s, "1/s"),
        "op_ms_p50": (1e3 * statistics.median(ok_s) if ok else float("nan"), "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (_peak_rss_mb(workload_name), "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_checkout_source()

    workload, first_round, setup_first = setup(args.workload, args.seed)
    setup_first *= workload.host_factor()
    try:
        if args.setup_probe:
            print(setup_first)
            return 0
        setup_s = [setup_first]
        if not args.trace:
            setup_s += [_setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        tracer = layers.Tracer() if args.trace else None
        tally = run_rounds(workload, first_round, args.seconds, tracer)

        OUT.mkdir(exist_ok=True)
        stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "rounds": tally["rounds"], "window_s": tally["window_s"],
            "round_s": tally["round_s"],
            "ok_samples": len(tally["ok_s"]), "failures": tally["failures"],
            "problems": tally["problems"][:50], "python": sys.version.split()[0],
        }
        if args.trace:
            with tempfile.TemporaryDirectory(dir=OUT) as workdir:
                values = layers.per_layer_metrics(workload, tracer, tally["traced_cases"],
                                                  Path(workdir))
            metrics = {name: (values[name], unit) for name, unit in layers.PER_LAYER_UNITS.items()}
            traced, untraced = tally["traced_ok_s"], tally["untraced_ok_s"]
            if traced and untraced:
                base = statistics.median(untraced)
                overhead = 100.0 * (statistics.median(traced) / base - 1.0)
                record["trace_overhead_pct"] = overhead
                print(f"trace overhead: {overhead:+.2f} % on the median operation "
                      f"({len(traced)} traced, {len(untraced)} untraced, "
                      f"untraced median {1e3 * base:.4g} ms)")
            else:
                print("trace overhead: not measured, the run held a single round")
            tracer.write(stem.with_suffix(".spans.json"), {"workload": args.workload,
                                                            "seed": args.seed})
        else:
            metrics = end_to_end(args.workload, tally, setup_s)
            record["setup_samples_s"] = setup_s
            record["host_factors"] = tally["factors"]
            record["unscaled"] = {name: value for name, (value, _) in
                                  end_to_end(args.workload, tally, setup_s, scaled=False).items()
                                  if name in ("ops_per_s", "op_ms_p50")}
            tail = _tail(tally["scaled_ok_s"])
            if tail is not None:
                record["op_ms_tail"] = {"percentile": tail[0], "ms": tail[1]}
                print(f"op_ms_tail: p{tail[0]:.2f} = {tail[1]:.6g} ms "
                      f"over {len(tally['ok_s'])} operations")
        for name, (value, unit) in metrics.items():
            print(f"{args.workload} {name} = {value:.6g} {unit}")
        if tally["problems"]:
            print("\n".join(tally["problems"][:10]), file=sys.stderr)
        result = {
            "correct": tally["wrong"] == 0,
            "attempted": tally["attempted"],
            "failed": tally["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        record["result"] = result
        stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
        print(json.dumps(result))
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
