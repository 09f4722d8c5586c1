"""Benchmark for the secureftl encrypted protocol.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Workloads: train-components, train-backprop, predict, experiment (see
workloads.py). With --trace 0 the run measures the end-to-end metrics with
tracing off. With --trace 1 it measures half the time untraced and half
traced, and reports the per-layer metrics of the traced half, the trace
health and the tracing overhead; the spans go to perfbench/out/. Every unit
is checked against the plaintext oracle outside the timed region.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# A share of party CPU outside every named span above which self-time
# differences between two traced runs cannot be trusted.
UNATTRIBUTED_LIMIT = 0.05

# Which layer each workload is meant to stress, checked on every traced run:
# (span, party or None for both, layer it must lead).
DOMINANT = {
    "train-components": ("paillier.encrypt", None),
    "train-backprop": ("protocol.backward", "source"),
    "predict": ("paillier.encrypt", None),
}


def _summary(values: list[float]) -> str:
    """Median and quartiles with the sample count, plus the highest tail
    percentile that has at least ten samples beyond it."""
    n = len(values)
    if n == 0:
        return "no samples"
    text = f"median {statistics.median(values):.6g}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f" [q1 {q1:.6g}, q3 {q3:.6g}]"
    for pct in (99, 95, 90):
        if n * (100 - pct) / 100 >= 10:
            text += f" p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.6g}"
            break
    return text + f" (n={n})"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(name: str, workload, tally) -> dict:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{name}: setup_s {_summary(tally.setup_s)} s")
    print(f"{name}: unit_s ({workload.metric}, per {workload.unit}, one sample per "
          f"{workload.sample}) {_summary(tally.unit_s)} s")
    print(f"{name}: wire_bytes_per_unit (per {workload.unit}) "
          f"{_summary(tally.unit_bytes)} bytes")
    print(f"{name}: peak_rss_mb {peak_rss_mb:.1f} MB")
    print(f"{name}: error_rate {error_rate:.6g} ({tally.failed} failed of "
          f"{tally.attempted} {workload.unit}s)")
    if not (tally.setup_s and tally.unit_s):
        return {}
    return {
        "setup_s": _metric(statistics.median(tally.setup_s), "s"),
        "unit_s": _metric(statistics.median(tally.unit_s), "s"),
        "wire_bytes_per_unit": _metric(statistics.median(tally.unit_bytes), "bytes"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def per_layer(name: str, workload, seed: int, seconds: float):
    """Untraced then traced halves; returns (per-layer metrics, tallies)."""
    from tracing import Tracer, add_phases, layer_metrics
    from workloads import measure

    plain = measure(workload, seed, seconds / 2)
    tracer = Tracer()
    with tracer.installed():
        traced = measure(workload, seed, seconds / 2, tracer)
    os.makedirs(HERE / "out", exist_ok=True)
    tracer.dump(str(HERE / "out" / f"spans-{name}-{seed}.jsonl"))
    units = max(traced.attempted, 1)
    values, party_cpu = layer_metrics(add_phases(tracer.spans), units)
    values["transport.transcript.all.bytes"] = traced.transcript_bytes / units
    if plain.unit_s and traced.unit_s:
        values["trace.overhead"] = (statistics.median(traced.unit_s)
                                    / statistics.median(plain.unit_s) - 1)
    print(f"{name}: per-layer figures are per {workload.unit}, over {traced.attempted} "
          f"traced {workload.unit}s; trace.overhead {values['trace.overhead']:.4f}")
    for party, cpu in party_cpu.items():
        share = values[f"trace.unattributed.{party}.cpu_s"] / cpu if cpu else 0.0
        verdict = "ok" if share <= UNATTRIBUTED_LIMIT else "TOO HIGH to trust self-time deltas"
        print(f"{name}: trace health {party}: unattributed CPU {share:.2%} of {cpu:.4g} s "
              f"-> {verdict}")
    if name in DOMINANT:
        print(f"{name}: dominant layer {_dominance(values, *DOMINANT[name])}")
    top = sorted((k for k in values if k.endswith(".cpu_s") and not k.startswith("trace.")),
                 key=values.get, reverse=True)[:6]
    print(f"{name}: top CPU spans " + ", ".join(f"{k} {values[k]:.4g}" for k in top))
    return values, (plain, traced)


def _dominance(values: dict, span: str, party: str | None) -> str:
    """Check that span has the largest cpu_s of its layer (summed over both
    parties when party is None)."""
    layer = span.split(".", 1)[0]
    totals: dict[str, float] = {}
    for key, value in values.items():
        parts = key.split(".")
        if (len(parts) == 4 and parts[0] == layer and parts[3] == "cpu_s"
                and (party is None or parts[2] == party)):
            op = f"{parts[0]}.{parts[1]}"
            totals[op] = totals.get(op, 0.0) + value
    leader = max(totals, key=totals.get)
    who = party or "both parties"
    verdict = "ok" if leader == span else f"NOT MET, {leader} leads"
    return (f"{span} ({who}) {totals.get(span, 0.0):.4g} s of {sum(totals.values()):.4g} s "
            f"{layer} CPU -> {verdict}")


def run_one(name: str, workload, seed: int, seconds: float, trace: bool):
    from workloads import measure

    if trace:
        metrics, tallies = per_layer(name, workload, seed, seconds)
    else:
        tally = measure(workload, seed, seconds)
        metrics, tallies = end_to_end(name, workload, tally), (tally,)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    if trace:
        print(f"{name}: error_rate {failed / max(attempted, 1):.6g} ({failed} failed of "
              f"{attempted} {workload.unit}s)")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "secureftl" / "__init__.py").is_file():
        print(f"perfbench: no secureftl source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import build

    workloads = build(str(HERE / "out" / "experiment"))
    if args.workload == "all":
        chosen = [(name, trace) for name in workloads for trace in (False, True)]
    elif args.workload in workloads:
        chosen = [(args.workload, bool(args.trace))]
    else:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads)} or all", file=sys.stderr)
        return 2

    metrics: dict = {}
    attempted = failed = 0
    for name, trace in chosen:
        values, tried, bad = run_one(name, workloads[name], args.seed, args.seconds, trace)
        if not values or not tried:
            print(f"perfbench: {name} measured nothing", file=sys.stderr)
            return 1
        if len(chosen) > 1:
            values = {f"{name}/{k}": v for k, v in values.items()}
        if trace:
            values = {k: _metric(v, _unit(k)) for k, v in values.items()}
        metrics.update(values)
        attempted += tried
        failed += bad
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    return {"count": "count", "cpu_s": "s", "wait_s": "s", "bytes": "bytes",
            "us_per_op": "us", "overhead": "ratio"}[stat]


if __name__ == "__main__":
    sys.exit(main())
