"""Run one perfbench workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload verify-catalog --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Untraced (`--trace 0`): this process, pinned to one CPU, sets up the
workload and makes timed passes for about `--seconds` seconds, with set-up
probes in fresh interpreters between them.  `wall_s` and `setup_s` are
medians of pass and probe times rescaled to a reference speed sampled
during each pass and next to each probe (speed.py); README.md says why.  The last stdout line carries the
end-to-end metrics named in BENCHMARK.json.
Traced (`--trace 1`): untraced passes for half of `--seconds`, then
exactly one pass under the outside tracer; the last line carries the
per-layer metrics.  `--workload all` runs every workload, each in a fresh
interpreter, and prints a table.  A run record and, when traced, the span
arrays are written under `.perfbench/` in the checkout.

Exit code 0 whenever a result was printed, correct or not; 2 when the
benchmark could not run at all, for instance outside a checkout with
sources.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import bootstrap

HERE = bootstrap.HERE
OUT = bootstrap.ROOT / ".perfbench"
SETUP_PROBES = 5


def spec_file() -> dict:
    with open(bootstrap.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Wall time of one fresh interpreter that imports euciso and builds the
    inputs, with the reference tick timed right before and right after it."""
    import speed

    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    before = speed.reference_s()
    start = time.perf_counter()
    # no timeout: Popen.wait with one polls the child in 50 ms steps
    subprocess.run(cmd, check=True, cwd=bootstrap.ROOT)
    elapsed = time.perf_counter() - start
    return elapsed, (before + speed.reference_s()) / 2


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def fresh_inputs(w, state):
    """The next pass's inputs, built once the earlier passes' garbage is gone.

    Specs and their quotients point at each other, so a finished pass
    leaves cycles that only a full collection frees; collecting here keeps
    that work and memory out of the next timed pass.
    """
    gc.collect()
    return w.inputs(state)


def measure(w, state, budget_s: float, probe=None):
    """Timed passes, each sampled for speed while it runs, with probes between.

    Makes one pass, then more while the next one, at the median pace so
    far, still ends within the budget.  Before each pass one of the
    SETUP_PROBES probes runs, if any is left, so that probes and passes
    sample the same stretch of time; leftover probes run at the end.
    Returns (pass_s, tick_s, rss_mb, items) per pass, pass_s without the
    sampler's own time and rss_mb the process's peak RSS so far, and
    (probe_s, tick_s) per probe.
    """
    import speed

    passes: list[tuple[float, float, float, list[tuple[bool, float]]]] = []
    probes: list[tuple[float, float]] = []
    began = time.perf_counter()
    while True:
        if probe is not None and len(probes) < SETUP_PROBES:
            probes.append(probe())
        inputs = fresh_inputs(w, state)
        sampler = speed.Sampler()
        start = time.perf_counter()
        with sampler:
            items = w.run(state, inputs)
        elapsed = time.perf_counter() - start
        passes.append((elapsed - sampler.spent, sampler.mean_tick, peak_rss_mb(), items))
        del inputs
        pace = statistics.median(p[0] for p in passes)
        if time.perf_counter() - began + pace > budget_s:
            break
    while probe is not None and len(probes) < SETUP_PROBES:
        probes.append(probe())
    return passes, probes


def traced_pass(w, state, record: dict) -> tuple[dict, list[tuple[bool, float]], float]:
    """One pass under the tracer: its per-layer values, its items, and the
    reference tick timed right before and right after it."""
    import speed
    from tracer import Tracer

    inputs = fresh_inputs(w, state)
    tracer = Tracer()
    before = speed.reference_s()
    tracer.install()
    try:
        start = time.perf_counter()
        outcomes = w.run(state, inputs)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tick = (before + speed.reference_s()) / 2
    values = tracer.metrics()
    values["trace_wall_s"] = wall
    values["trace_span_share"] = values["top_level_s"] / wall
    path = OUT / f"spans-{record['workload']}-seed{record['seed']}.npz"
    tracer.save(path)
    record["spans"] = str(path.relative_to(bootstrap.ROOT))
    return values, outcomes, tick


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((bootstrap.SRC / "euciso").rglob("*.py")))


def environment(seed: int) -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": dict(bootstrap.BLAS_THREADS),
        "seed": seed,
        "src_lines": src_lines(),
    }


def run_one(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import speed
    import workloads

    bench = spec_file()
    record = {"workload": name, "trace": int(trace), **environment(seed)}
    OUT.mkdir(exist_ok=True)

    w = workloads.WORKLOADS[name]
    record["cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {record["cpu"]})  # the probes inherit the pin
    state = w.setup(seed)
    rescaled = speed.at_reference_speed
    if trace:
        passes, _ = measure(w, state, seconds / 2)
        values, traced, tick = traced_pass(w, state, record)
        items = [p[-1] for p in passes] + [traced]
        values["trace_overhead_s"] = (
            rescaled(values["trace_wall_s"], tick)
            - statistics.median(rescaled(t, tk) for t, tk, _, _ in passes))
        wanted = bench["per_layer"]
    else:
        passes, probes = measure(w, state, seconds, lambda: probe_setup(name, seed))
        items = [p[-1] for p in passes]
        values = {
            "wall_s": statistics.median(rescaled(t, tick) for t, tick, _, _ in passes),
            "setup_s": statistics.median(rescaled(t, tick) for t, tick in probes),
            # later passes add only allocator growth, and how many fit
            # depends on the host's speed, so the first pass sets the peak
            "peak_rss_mb": passes[0][2],
        }
        record.update(passes=passes, probes=probes,
                      raw_wall_median_s=statistics.median(p[0] for p in passes),
                      raw_setup_median_s=statistics.median(t for t, _ in probes))
        wanted = bench["end_to_end"]
    record["pass_s"] = [p[0] for p in passes]
    oks = [ok for pass_items in items for ok, _ in pass_items]
    values["pass_ratio"] = oks.count(True) / len(oks)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": all(oks), "attempted": len(oks), "failed": oks.count(False),
              "metrics": metrics}
    record["result"] = result
    (OUT / f"run-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k not in ("passes", "probes", "result")}),
          file=sys.stderr)
    return result


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in a fresh interpreter; a table, then all results as JSON."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=bootstrap.ROOT)
        if proc.returncode != 0:
            print(f"{name}: run failed with exit code {proc.returncode}", file=sys.stderr)
            return 2
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        for metric, m in results[name]["metrics"].items():
            print(f"{name:16} {metric:36} {m['value']:14.6g} {m['unit']}")
        print(f"{name:16} {'correct':36} {str(results[name]['correct']):>14}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bootstrap.prepare()
    except bootstrap.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{', '.join(workloads.WORKLOADS)}, all", file=sys.stderr)
        return 2
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
