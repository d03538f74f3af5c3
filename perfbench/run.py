"""Benchmark of the paper pipeline and the cluster serve path at paper
model size (tree-LSTM 120/100, default ``numpy64`` backend).

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 12 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):
``pipeline`` and ``serve-hot``. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
(plus the untraced run it is compared with). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. The exit code is non-zero when any output is wrong or the
program cannot be run from this directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (BENCH_DIR, WORK, BenchError, Spans, child_env,  # noqa: E402
                    hash_seed, host_steal_s, load_spec, median, percentile,
                    require_program, stamp)

#: Set-up-only launches of the pipeline child per run (its set-up is
#: short; the median over these and the full runs is reported).
PIPELINE_SETUP_ONLY = 12
#: Full pipeline runs per untraced run: back to back until --seconds
#: have passed, within these limits. Three or more let the median
#: vote out one run slowed by the host.
PIPELINE_MIN_ITERATIONS = 3
PIPELINE_MAX_ITERATIONS = 5
#: Requests per window of a traced serve run (untraced and traced).
TRACE_REQUESTS = 4000
PIPELINE_SEGMENT_REQUESTS = 100


def latency_limit_ms(spec: dict, workload: str) -> float:
    """The workload's p99 limit, fixed in BENCHMARK.json's ``why``."""
    for entry in spec["workloads"]:
        if entry["name"] == workload:
            found = re.search(r"p99 <= (\d+) ms", entry["why"])
            if found:
                return float(found.group(1))
    raise BenchError(f"BENCHMARK.json fixes no p99 limit for {workload}")


# --- pipeline --------------------------------------------------------------
def _launch_pipeline(seed: int, out: Path, *flags: str) -> tuple[float, dict]:
    """Run one pipeline child; returns (set-up seconds, its report)."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "pipeline_child.py"), "--seed",
         str(seed), "--out", str(out), *flags],
        env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = time.monotonic() - start
        proc.stdout.read()
        code = proc.wait(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"pipeline child failed (exit {code})")
    report = json.loads(out.read_text()) if out.exists() else {}
    return setup_s, report


def _pipeline_figures(report: dict) -> dict:
    return {"corpus_subs_per_s": report["submissions"] / report["collect_s"],
            "train_pairs_per_s": report["pair_visits"] / report["fit_s"],
            "eval_pairs_per_s": report["eval_pairs"] / report["eval_s"],
            "pipeline_s": report["pipeline_s"],
            "test_accuracy": report["accuracy"]}


def run_pipeline(seed: int, seconds: float, trace: bool, spec: dict,
                 workdir: Path, spans: Spans) -> dict:
    reports, setups = [], []
    if not trace:
        for _ in range(PIPELINE_SETUP_ONLY):
            setups.append(_launch_pipeline(seed, workdir / "none.json",
                                           "--setup-only")[0])
        # back-to-back runs until `seconds` have passed
        started = time.monotonic()
        while len(reports) < PIPELINE_MIN_ITERATIONS or (
                time.monotonic() - started < seconds
                and len(reports) < PIPELINE_MAX_ITERATIONS):
            out = workdir / f"pipeline-{len(reports)}.json"
            setup_s, report = _launch_pipeline(seed, out)
            setups.append(setup_s)
            reports.append(report)
    else:
        reports.append(_launch_pipeline(seed, workdir / "untraced.json")[1])
        checkpoint = workdir / "trained.npz"
        _, traced = _launch_pipeline(
            seed, workdir / "traced.json", "--trace", "1",
            "--checkpoint", str(checkpoint))
        reports.append(traced)
        spans.extend(traced["spans"])

    agree = all((r["digest"], r["accuracy"]) ==
                (reports[0]["digest"], reports[0]["accuracy"])
                for r in reports)
    attempted = sum(r["submissions"] + r["eval_pairs"] for r in reports)
    result = {
        "correct": agree, "attempted": attempted,
        "failed": 0 if agree else attempted,
        "details": {"digest": reports[0]["digest"],
                    "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
                    "runs": [_pipeline_figures(r) for r in reports],
                    "identical_across_runs": agree}}
    if not trace:
        judged = [1000 * s for r in reports for s in r["judge_s"]]
        result["metrics"] = {
            "setup_s": median(setups),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
            "p50_ms": 1000 * median([r["pipeline_s"] for r in reports]),
            "throughput_per_s": median([r["pair_visits"] / r["fit_s"]
                                        for r in reports])}
        result["details"]["judge_ms"] = {"p50": percentile(judged, 50),
                                         "p95": percentile(judged, 95),
                                         "samples": len(judged)}
        result["details"]["setup_s"] = setups
        result["details"]["judged_mcycles"] = reports[0]["judge_cycles"] / 1e6
        return result

    import serve

    layer = dict(traced["layer"])
    figures = _pipeline_figures(traced)
    layer["engine.eval_pairs_per_s"] = figures["eval_pairs_per_s"]
    layer["quality.test_accuracy"] = figures["test_accuracy"]
    layer["trace.overhead_share"] = (traced["pipeline_s"]
                                     / reports[0]["pipeline_s"] - 1)
    cycle = itertools.cycle(traced["serve_requests"])
    driver = serve.Driver(checkpoint,
                          lambda n: [dict(next(cycle)) for _ in range(n)],
                          latency_limit_ms(spec, "serve-hot"), spans)
    try:
        with spans.span("serve.segment"):
            driver.boot([])     # cold caches: the window's misses encode
            _, counters = driver.traced_step(serve.REF_RATE["pipeline"],
                                             PIPELINE_SEGMENT_REQUESTS)
        rss = driver.peak_rss()
    finally:
        driver.close()
    layer.update(counters)
    checked = _check_serve(driver, checkpoint, layer, rss, workdir)
    result["correct"] = agree and checked["ok"]
    result["attempted"] += checked["attempted"]
    result["failed"] += checked["failed"]
    result["details"]["serve_segment"] = checked["counts"]
    result["metrics"] = layer
    return result


# --- serving ---------------------------------------------------------------
def _check_serve(driver, checkpoint: Path, layer: dict | None,
                 rss: dict, workdir: Path) -> dict:
    """Reference-check every reply of the run; fill the workload and
    process layers when ``layer`` is given."""
    import inputs
    import serve

    requests, records = driver.session.requests, driver.session.records
    refs = serve.reference(checkpoint, requests, workdir)
    counts = serve.check_replies(requests, records, refs)
    shares = {"workload.text_repeat_share":
              inputs.text_repeat_share(requests),
              "workload.ast_repeat_share":
              serve.ast_repeat_share(requests, refs)}
    if layer is not None:
        layer.update(shares)
        layer["process.frontdoor_rss_mb"] = rss["frontdoor"]
        layer["process.worker_rss_mb"] = max(rss["workers"])
    failed = counts["failed"] + counts["dropped"] + counts["mismatched"]
    return {"ok": counts["mismatched"] == 0 and counts["dropped"] == 0,
            "attempted": counts["attempted"], "failed": failed,
            "counts": dict(counts, op_mix=inputs.op_mix(requests),
                           **shares)}


def run_serve(workload: str, seed: int, seconds: float, trace: bool,
              spec: dict, workdir: Path, spans: Spans) -> dict:
    import inputs
    import serve

    stream = inputs.ServeStream(seed)
    checkpoint = serve.make_checkpoint(seed, workdir / "model.npz")
    rate = serve.REF_RATE[workload]
    driver = serve.Driver(checkpoint, stream.take,
                          latency_limit_ms(spec, workload), spans)
    try:
        if trace:
            # two boots, each prewarmed as in the untraced run: the
            # untraced and the traced window start from the same state
            driver.boot(stream.prewarm())
            untraced = driver.step(rate, TRACE_REQUESTS)
            with spans.span("setup"):
                driver.boot(stream.prewarm())
            traced, counters = driver.traced_step(rate, TRACE_REQUESTS)
            measured = driver.last_window[0]
            rss = driver.peak_rss()
        else:
            setups = [driver.boot(stream.prewarm())
                      for _ in range(serve.SETUPS)]
            ref = driver.step(rate, serve.REF_REQUESTS)
            # memory after a fixed amount of work, before the sweep
            rss = driver.peak_rss()
            found = serve.sweep(driver, ref, seconds)
    finally:
        driver.close()

    layer = None
    if trace:
        layer = dict(counters)
        layer["trace.overhead_share"] = traced["p50_ms"] / untraced["p50_ms"] - 1
        layer.update(serve.serve_replays(spans, checkpoint, measured))
    checked = _check_serve(driver, checkpoint, layer, rss, workdir)
    result = {"correct": checked["ok"], "attempted": checked["attempted"],
              "failed": checked["failed"],
              "details": {"replies": checked["counts"],
                          "latency_limit_ms": driver.limit_ms}}
    if trace:
        result["details"]["windows"] = {"untraced": untraced,
                                        "traced": traced}
        result["metrics"] = layer
        return result
    result["details"]["sweep"] = found
    result["details"]["reference_window"] = ref
    result["details"]["setup_s"] = setups
    result["metrics"] = {
        "setup_s": median(setups),
        "peak_rss_mb": rss["frontdoor"] + sum(rss["workers"]),
        "p50_ms": ref["p50_ms"],
        "throughput_per_s": found["max_rps_at_slo"]}
    return result


# --- entry point -----------------------------------------------------------
#: Per-layer metrics of the layers a workload does not run. Its traced
#: run measures every other per-layer metric, and prints these as 0
#: (every workload prints every per-layer name) with the list on its
#: details line. The pipeline runs every layer: its traced run serves
#: its checkpoint to a cold cluster.
BYPASSED = {
    "pipeline": (),
    "serve-hot": ("corpus.generate_ms", "corpus.subs_per_s",
                  "judge.judge_ms", "judge.mcycles_per_s",
                  "engine.prepare_s", "engine.step_ms_p50",
                  "engine.step_ms_p99", "engine.train_pairs_per_s",
                  "engine.eval_pairs_per_s", "nn.forward_ms",
                  "nn.backward_ms", "nn.optimizer_ms",
                  "quality.test_accuracy"),
}


def _final_line(result: dict, names: list[dict],
                bypassed=()) -> dict:
    """The result line: exactly the metrics ``names``. A name in
    ``bypassed`` must not have been measured and reads 0; every other
    name must have been."""
    metrics = dict(result["metrics"])
    wanted = [m["name"] for m in names]
    missing = [name for name in wanted
               if name not in metrics and name not in bypassed]
    unlisted = [name for name in metrics if name not in wanted]
    ran = [name for name in bypassed if name in metrics]
    if missing or unlisted or ran:
        raise BenchError(f"metrics not measured: {missing}; "
                         f"not in BENCHMARK.json: {unlisted}; "
                         f"measured on a workload that bypasses them: "
                         f"{ran}")
    metrics.update({name: 0.0 for name in bypassed})
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                    "unit": m["unit"]} for m in names}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_program()
        spec = load_spec()
    except (BenchError, OSError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    # a terminated run still shuts its cluster and children down
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    wanted = hash_seed(args.seed)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        # every process of the run, this one included, gets the hash
        # seed of the workload seed (see README: the corpus depends on it)
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=wanted))

    trace = bool(args.trace)
    spans = Spans(enabled=trace)
    started, stolen = time.monotonic(), host_steal_s()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "pipeline":
            result = run_pipeline(args.seed, args.seconds, trace, spec,
                                  workdir, spans)
        else:
            result = run_serve(args.workload, args.seed, args.seconds,
                               trace, spec, workdir, spans)
        if trace:
            bypassed = BYPASSED[args.workload]
            result["details"]["bypassed_layers"] = list(bypassed)
            line = _final_line(result, spec["per_layer"], bypassed)
        else:
            line = _final_line(result, spec["end_to_end"])
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        spans.write(WORK / "traces" / f"{args.workload}-{args.seed}.json")
    # share of the machine's CPU time the hypervisor gave to others
    # during the run: context for a run that reads slow
    result["details"]["host_steal_share"] = (
        (host_steal_s() - stolen)
        / ((time.monotonic() - started) * (os.cpu_count() or 1)))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": trace, "stamp": stamp(),
                      "details": result["details"]}, default=str))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
