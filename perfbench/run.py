"""cyhopf benchmark: time to verdict, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: qaffine-hopf, cy-verdict, cli-bundled (see
BENCHMARK.json for why each exists).  The seed generates the inputs; the
library only ever sees those inputs.

--trace 0 times one whole pass over the inputs, then keeps going round them in
the same order, skipping an input whose last time would end it after S
seconds, until none fits; each input's time is the median of its samples, and
p50, tail and rate are taken over those per-input medians.  --trace 1 runs
one untraced pass and then one traced pass over the same inputs, reports the
per-layer metrics and the tracing overhead (traced wall time minus untraced
wall time), and writes the spans to
.perfbench/spans-<workload>-<seed>.jsonl.

End-to-end times are reported at a fixed machine speed.  The speed a shared
host gives this process swings by a quarter within a minute, in CPU time as
much as in wall time, so a fixed piece of pure-Python reference work is timed
between verdicts (and between set-up repetitions), and every time is scaled
by REF_NOMINAL_S over the median reference time within REF_WINDOW_S of it:
seconds on a machine where the reference work takes REF_NOMINAL_S.  The raw
times and the scale factors are printed on the human-readable lines.

Every verdict is checked against an answer that does not come from the code
under test.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
REF_NOMINAL_S = 0.002  # the scale of reported end-to-end times, see above
REF_EVERY_S = 0.1  # least time between two reference samples in a timed run
REF_WINDOW_S = 1.0  # a time is scaled by the reference samples this close to it
IMPORT_PROBE = ("import time; t = time.perf_counter(); import cyhopf.cli, cyhopf.sampling; "
                "print(time.perf_counter() - t)")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="cyhopf benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20250810)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _reference() -> int:
    """Fixed pure-Python work -- integer, tuple and dict operations, like the
    package's inner loops -- of about 2 ms; it never changes, so its time
    tracks only the speed the machine gives this process."""
    acc, table = 0, {}
    for i in range(5000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + i) % 1000003
    return acc + len(table)


class Speed:
    """Times of the reference work, sampled through a run."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        _reference()
        self.ends.append(perf_counter())
        self.samples.append(self.ends[-1] - t0)

    def sample_every(self, seconds: float) -> None:
        if perf_counter() - self.ends[-1] >= seconds:
            self.sample()

    def factor(self, start=float("-inf"), end=float("inf")) -> float:
        """What a time measured from `start` to `end` is multiplied by to read
        at the nominal speed: the reference samples within REF_WINDOW_S of
        that span, or the nearest one."""
        lo = bisect.bisect_left(self.ends, start - REF_WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + REF_WINDOW_S)
        near = self.samples[lo:hi] or [self.samples[min(lo, len(self.samples) - 1)]]
        return REF_NOMINAL_S / statistics.median(near)


def _setup(workload, seed: int, env: dict, speed: Speed):
    """Median import time (fresh interpreters) plus median input generation
    time (in this process), over SETUP_REPEATS repetitions, each after a
    reference sample."""
    imports = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                             text=True, env=env, cwd=ROOT, timeout=60, check=True)
        imports.append(float(out.stdout))
    gens = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        t0 = perf_counter()
        inputs = workload.make_inputs(seed)
        gens.append(perf_counter() - t0)
    return inputs, statistics.median(imports) + statistics.median(gens)


def _verdict(workload, inp, tracer, times, failures) -> float:
    """Time one verdict and check it; appends (start, time) and any failure
    and returns the time (the check excluded)."""
    if tracer is not None:
        tracer.input_id = inp.id
    t0 = perf_counter()
    try:
        out, err = workload.run(inp, tracer), None
    except Exception as exc:  # a crash is a failed verdict, not a benchmark error
        out, err = None, f"{type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    times[inp.id].append((t0, dt))
    snapshot = tracer.snapshot() if tracer is not None else None
    if err is None:
        err = workload.check(inp, out)
    if snapshot is not None:
        tracer.restore(snapshot)
        if err is None:
            tracer.counts.update(workload.coverage(inp, out))
    if err:
        failures.append(f"{inp.label}: {err}")
    return dt


def _pass(workload, inputs, tracer, times, failures) -> float:
    """One pass over the inputs; returns its wall time (verdicts only)."""
    return sum(_verdict(workload, inp, tracer, times, failures) for inp in inputs)


def _timed(workload, inputs, seconds, times, failures, speed: Speed) -> float:
    """One whole pass, then round the inputs again, skipping each one whose
    last time would end it after the deadline, until none fits; samples the
    reference work between verdicts; returns the time spent in verdicts."""
    deadline = perf_counter() + seconds
    speed.sample()
    wall = 0.0
    for inp in inputs:
        wall += _verdict(workload, inp, None, times, failures)
        speed.sample_every(REF_EVERY_S)
    ran = True
    while ran:
        ran = False
        for inp in inputs:
            if perf_counter() + times[inp.id][-1][1] <= deadline:
                wall += _verdict(workload, inp, None, times, failures)
                speed.sample_every(REF_EVERY_S)
                ran = True
    return wall


def _tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    k = n - 10  # k-th smallest has exactly ten samples above it
    return xs[k - 1], 100.0 * k / n


def _peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process, or of the largest child it waited
    for (the CLI processes; the import probes of the set-up are smaller)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _end_to_end(name, inputs, times, wall, setup, run_speed, rss_mb) -> dict:
    """The end-to-end metrics; `setup` is (raw set-up time, its Speed)."""
    raw = [statistics.median(dt for _, dt in times[inp.id]) for inp in inputs]
    per_input = [statistics.median(dt * run_speed.factor(t0, t0 + dt) for t0, dt in times[inp.id])
                 for inp in inputs]
    verdicts = sum(len(v) for v in times.values())
    tail, pct = _tail(per_input)
    p50 = statistics.median(per_input)
    one_pass = sum(per_input)
    setup_f = setup[1].factor()
    n = len(inputs)
    counts = [len(v) for v in times.values()]
    f = run_speed.factor()
    print(f"# {name}: {verdicts} verdicts of {n} inputs in {wall:.3f} s; per-input time is the "
          f"median over its {min(counts)} to {max(counts)} samples")
    print(f"# scaled to a reference time of {REF_NOMINAL_S * 1e3} ms; the run's median reference "
          f"time is {REF_NOMINAL_S / f * 1e3:.4f} ms ({len(run_speed.samples)} samples), "
          f"a factor of {f:.4f}")
    print(f"verdict_p50_s = {p50:.6f} s (raw {statistics.median(raw):.6f} s; median of {n} inputs)")
    print(f"verdict_tail_s = {tail:.6f} s (raw {_tail(raw)[0]:.6f} s; p{pct:.1f} of {n} inputs, "
          f"{min(10, n - 1)} beyond it)")
    print(f"verdicts_per_s = {n / one_pass:.4f} 1/s (raw {n / sum(raw):.4f} 1/s; {n} inputs in one "
          f"pass at their median times)")
    print(f"setup_s = {setup[0] * setup_f:.6f} s (raw {setup[0]:.6f} s, factor {setup_f:.4f}; "
          f"median import + median input generation, {SETUP_REPEATS} repeats)")
    print(f"peak_rss_mb = {rss_mb:.2f} MB")
    return {
        "verdict_p50_s": {"value": p50, "unit": "s"},
        "verdict_tail_s": {"value": tail, "unit": "s"},
        "verdicts_per_s": {"value": n / one_pass, "unit": "1/s"},
        "setup_s": {"value": setup[0] * setup_f, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def _per_layer(tracer, untraced_wall, traced_wall, probes) -> dict:
    c, st, inc = tracer.counts, tracer.self_time, tracer.inclusive
    main_s = inc.get("cli.main", 0.0)
    values = {
        "cyclotomic.mul_fast": (c["cyclotomic.mul_fast"], "count"),
        "cyclotomic.mul_generic": (c["cyclotomic.mul_generic"], "count"),
        "cyclotomic.add": (c["cyclotomic.add"], "count"),
        "cyclotomic.inverse": (c["cyclotomic.inverse"], "count"),
        "groups.elem_mul": (c["groups.elem_mul"], "count"),
        "groups.char_eval": (c["groups.char_eval"], "count"),
        "groups.elements_enumerated": (c["groups.elements_enumerated"], "count"),
        "cartan.longest_word_calls": (c["cartan.longest_word"], "count"),
        "cartan.closure_calls": (c["cartan.closure"], "count"),
        "datum.check_cy_s": (inc.get("datum.check_cy", 0.0), "s"),
        "datum.witness_search_s": (inc.get("datum.witness_search", 0.0), "s"),
        "smash.build_s": (inc.get("smash.build", 0.0), "s"),
        "smash.overlaps_checked": (c["smash.overlaps_checked"], "count"),
        "smash.verify_hopf_s": (inc.get("smash.verify_hopf", 0.0), "s"),
        "smash.verify_s2_s": (inc.get("smash.verify_s2", 0.0), "s"),
        "smash.nakayama_s": (inc.get("smash.nakayama", 0.0), "s"),
        "smash.comultiply_calls": (c["smash.comultiply"], "count"),
        "smash.antipode_calls": (c["smash.antipode"], "count"),
        "smash.monomials_covered": (c["smash.monomials_covered"], "count"),
        "smash.pairs_covered": (c["smash.pairs_covered"], "count"),
        "lie.check_s": (inc.get("lie.check", 0.0), "s"),
        "io.parse_s": (inc.get("io.parse", 0.0), "s"),
        "io.render_s": (inc.get("io.render", 0.0), "s"),
        "cli.main_s": (main_s, "s"),
        "cli.process_overhead_s": (traced_wall - main_s if main_s else 0.0, "s"),
        "cli.probes_attempted": (len(probes), "count"),
        "cli.probes_failed": (sum(1 for _, err in probes if err), "count"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.overhead_frac": ((traced_wall - untraced_wall) / untraced_wall, "ratio"),
    }
    for layer in tracing.LAYERS:
        values[f"{layer}.self_s"] = (st.get(layer, 0.0), "s")
    print(f"# traced pass {traced_wall:.3f} s, untraced pass {untraced_wall:.3f} s over the "
          f"same inputs; overhead {traced_wall - untraced_wall:.3f} s")
    for key in sorted(values):
        value, unit = values[key]
        print(f"{key} = {value} {unit}")
    return {key: {"value": value, "unit": unit} for key, (value, unit) in values.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "cyhopf" / "__init__.py").is_file():
        print(f"error: no cyhopf sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports cyhopf

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    setup_speed, run_speed = Speed(), Speed()
    inputs, setup_s = _setup(workload, args.seed, workloads.cli_env(), setup_speed)
    # Keep the inputs and everything imported out of the collector's scans, so
    # that a collection during a verdict costs what the package allocated, not
    # where in the run it happens to fall.
    gc.collect()
    gc.freeze()

    times, failures = defaultdict(list), []
    if args.trace:
        untraced = _pass(workload, inputs, None, times, failures)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = _pass(workload, inputs, tracer, times, failures)
        finally:
            tracer.uninstall()
        workloads.WORK.mkdir(exist_ok=True)
        spans_path = workloads.WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        print(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    else:
        wall = _timed(workload, inputs, args.seconds, times, failures, run_speed)
    rss_mb = _peak_rss_mb(getattr(workload, "verdicts_in_children", False))
    probes = workload.probe() if hasattr(workload, "probe") else []

    attempted = sum(len(v) for v in times.values())
    print(f"# workload {args.workload}, seed {args.seed}")
    print(f"fail_frac = {len(failures) / attempted} ({len(failures)} of {attempted} verdicts)")
    for line in failures[:20]:
        print(f"FAILED {line}")
    for label, err in probes:
        print(f"probe {label}: {'FAILED ' + err if err else 'ok'}")
    if probes:
        failed_probes = sum(1 for _, err in probes if err)
        print(f"probe fail_frac = {failed_probes / len(probes)} ({failed_probes} of "
              f"{len(probes)} exit-code contract probes; reported apart from the verdicts)")
    if args.trace:
        metrics = _per_layer(tracer, untraced, traced, probes)
    else:
        metrics = _end_to_end(args.workload, inputs, times, wall, (setup_s, setup_speed),
                               run_speed, rss_mb)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
