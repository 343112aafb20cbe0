"""sbikit benchmark: four SBI workflows end to end, per-layer numbers when traced.

Run from the repository root:

    python3 perfbench/run.py --workload npe_gaussian --seed 1 --seconds 35 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The line before it, and ``.perfbench/<workload>-seed<n>-trace<t>.json``,
hold the full record: environment, digests, failures, tail percentile and
sample counts. A traced run also writes its spans next to it. The command
exits non-zero when any correctness check fails.
"""

import os

# One BLAS thread per process, set before numpy loads: the ddm_bank pool then
# keeps the load at `nproc` busy threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import Tracer  # noqa: E402
from speed import SpeedMeter, Stopwatch  # noqa: E402
from workloads import (SBIKIT_ERRORS, WORKLOADS, Workload, digest, query_rng,  # noqa: E402
                       replay_steps, run_workflow, setup_digest)

SETUP_PROBES = 11       # fresh processes timed for setup_s; the median is reported
QUERY_RATIO = 0.8       # seconds of queries per second of workflow passes
MIN_QUERIES = 20        # also the number of leading queries whose counts are reported
REPLAY_STEPS = 20
REPLAY_ROWS = 200       # one training minibatch (TrainConfig.batch_size default)
TAIL_BEYOND = 10        # samples beyond the reported tail percentile


def probe_setup(workload: str, seed: int, meter: SpeedMeter) -> tuple[list, list, set]:
    """Time each probe from process start until sbikit is imported and the
    workload's simulator, prior and observations are built.

    Returns the raw and the reference-speed seconds of each probe, and the
    set of input digests the probes reported. Each probe is scaled by a speed
    sample taken just before it, while no probe process is alive: the host
    speed can step within the few seconds of set-up, and the median over the
    probes absorbs the noise of single samples."""
    raw, scaled, digests = [], [], set()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        factor = meter.measure()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                raw.append(time.perf_counter() - start)
                proc.wait(timeout=120)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        status, _, inputs = line.strip().partition(" ")
        if status != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        scaled.append(factor * raw[-1])
        digests.add(inputs)
    return raw, scaled, digests


def git_commit():
    """The commit of the checkout when it is a git work tree, else None."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Run:
    """One measured run: the workflow repeated, then queries until the deadline."""

    def __init__(self, w: Workload, seed: int, seconds: float, trace: bool, workdir,
                 meter: SpeedMeter):
        self.w, self.seed, self.seconds, self.trace = w, seed, seconds, trace
        self.workdir = workdir
        self.tr = Tracer(trace)
        self.off = Tracer(False)
        self.meter = meter
        self.attempted = 0
        self.failures: list[str] = []
        self.reps = []
        self.query_clocks: list[Stopwatch] = []
        self.query_draws: list[int] = []
        self.errors: list[float] = []        # of the first MIN_QUERIES queries
        self.error_max = 0.0                  # over all queries
        self.diagnostics = []
        self.query_marks: list[tuple[int, int]] = []   # span ranges of the same queries
        self.first_draws = None
        self.replay = None

    def execute(self, st) -> None:
        """Workflow passes alternate with slices of queries until the
        deadline. A slow phase of the host, which can last many seconds,
        then falls on passes and queries alike instead of on one of them."""
        deadline = time.perf_counter() + self.seconds
        min_reps = 4 if self.trace else 3
        k = 0
        while (len(self.reps) < min_reps or k < max(MIN_QUERIES, self.w.n_obs)
               or time.perf_counter() < deadline):
            start = time.perf_counter()
            self._workflows(st)
            if self.failures:
                return
            spent = time.perf_counter() - start
            k = self._queries(st, k, time.perf_counter() + spent * QUERY_RATIO)
        self._repeat_first_query(st)
        if self.trace and self.w.trains:
            store, loss = self.w.replay_model(self.reps[0].data, self.seed)
            batch = self.reps[0].data.subset(slice(0, REPLAY_ROWS))
            self.replay = replay_steps(store, loss, batch.theta, batch.x, REPLAY_STEPS)

    def _workflows(self, st) -> None:
        """One pass; a traced run makes an untraced and a traced pass, so it
        measures its own tracing overhead and queries an instrumented model."""
        for traced in ((False, True) if self.trace else (False,)):
            rep = run_workflow(self.w, st, self.seed, self.workdir,
                               self.tr if traced else self.off, self.meter)
            self.attempted += rep.ops
            if self.reps and not rep.failures and rep.digests != self.reps[0].digests:
                rep.failures.append("workflow digests differ between passes at one seed")
            self.failures += rep.failures
            self.reps.append(rep)
            if rep.failures:
                return

    def _queries(self, st, k, until) -> int:
        """Queries k, k + 1, ... on the latest pass's model, at least one and
        then until ``until``; returns the next query index."""
        w, tr = self.w, self.tr
        model = self.reps[-1].model
        while True:
            i = k % w.n_obs
            mark = tr.mark()
            self.attempted += 1
            clock = Stopwatch(self.meter)
            try:
                out = w.query(model, st, i, query_rng(self.seed, k), tr)
            except SBIKIT_ERRORS as exc:
                out = None
                self.failures.append(f"query {k}: {exc!r}")
            clock.lap()
            self.query_clocks.append(clock)
            self.query_draws.append(0 if out is None else out.draws.shape[0])
            if out is not None:
                self._score(st, k, i, out, mark)
            k += 1
            if time.perf_counter() >= until:
                return k

    def _repeat_first_query(self, st) -> None:
        """Determinism: the first query again, untimed, must give identical draws."""
        try:
            again = digest(self.w.query(self.reps[-1].model, st, 0, query_rng(self.seed, 0),
                                        self.off).draws)
        except SBIKIT_ERRORS as exc:
            again = repr(exc)
        if again != self.first_draws:
            self.failures.append("query 0 gave different draws when repeated")

    def _score(self, st, k, i, out, mark) -> None:
        w = self.w
        err = w.error(st, i, out)
        if not out.finite:
            self.failures.append(f"query {k}: non-finite or out-of-support output")
        if err is not None:
            self.error_max = max(self.error_max, err)
        if k == 0:
            self.first_draws = digest(out.draws)
            wf = self.reps[0].digests.get("posterior_draws", self.first_draws)
            if wf != self.first_draws:
                self.failures.append("query 0 differs from the workflow's first posterior")
        if k >= MIN_QUERIES:
            return
        if err is not None:
            self.errors.append(err)
        if out.diagnostics is not None:
            self.diagnostics.append(out.diagnostics)
            if self.trace:
                rows = sum(s[4] for s in self.tr.select("inference.log_target", mark))
                # the SIR pool is evaluated before the chains start counting
                if rows - w.sampler.sir_pool != out.diagnostics.n_target_evals:
                    self.failures.append(
                        f"query {k}: {rows - w.sampler.sir_pool} slice evaluations traced, "
                        f"ChainDiagnostics.n_target_evals = {out.diagnostics.n_target_evals}")
        self.query_marks.append((mark, self.tr.mark()))

    # -- metrics -------------------------------------------------------------

    def tail_ms(self, latencies) -> float:
        """The highest percentile with TAIL_BEYOND queries beyond it."""
        return 1e3 * sorted(latencies)[len(latencies) - 1 - TAIL_BEYOND]

    def whole_cycles(self) -> list[Stopwatch]:
        """The queries of whole cycles over the observations, so every run
        times the same mix of observations however many queries it answers."""
        n_obs = self.w.n_obs
        return self.query_clocks[:len(self.query_clocks) // n_obs * n_obs]

    def end_to_end(self, setup_raw, setup_scaled) -> tuple[dict, dict]:
        clocks = self.whole_cycles()
        lat = sorted(c.scaled() for c in clocks)
        raw_lat = [c.raw for c in clocks]
        n = len(lat)
        reps = self.reps
        values = {
            "setup_s": _median(setup_scaled),
            "workflow_s": _median([r.clock.scaled() for r in reps]),
            "query_ms.p50": 1e3 * _median(lat),
            "draws_per_s": sum(self.query_draws[:n]) / sum(lat),
            "sims_per_s": _median([r.rows / r.clock.scaled(0) for r in reps]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail = {"queries": n, "queries_answered": len(self.query_clocks),
                  "tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
                  "workflow_passes_s": [r.clock.scaled() for r in reps],
                  "workflow_passes_raw_s": [r.clock.raw for r in reps],
                  "speed_factor": self.meter.factor(),
                  "raw": {"setup_s": _median(setup_raw),
                          "workflow_s": _median([r.clock.raw for r in reps]),
                          "query_ms.p50": 1e3 * _median(raw_lat),
                          "query_ms.tail": self.tail_ms(raw_lat)},
                  "query_ms.tail": self.tail_ms(lat)}
        return values, detail

    def _in_counted(self, name):
        return [s for a, b in self.query_marks for s in self.tr.select(name, a, b)]

    def counts(self) -> dict:
        """Exact counts of the first pass and the first MIN_QUERIES queries.
        They need no tracing and repeat bit for bit at a seed, so every run
        records them."""
        rep, report = self.reps[0], self.reps[0].report
        epochs = steps = 0
        if report is not None:
            cfg = self.w.train_config(self.seed)
            n_train = rep.rows - int(round(rep.rows * cfg.val_fraction))
            epochs = report.n_epochs
            steps = epochs * math.ceil(n_train / cfg.batch_size)
        return {
            "simulators.calls": rep.rows + rep.discards,
            "simulators.discards": rep.discards,
            "tableio.bytes": rep.table_bytes,
            "trainer.epochs": epochs,
            "trainer.steps": steps,
            "trainer.best_val_loss": report.best_val_loss if report is not None else 0.0,
            "samplers.target_evals": sum(d.n_target_evals for d in self.diagnostics),
        }

    def per_layer(self) -> dict:
        """Per-layer numbers of a traced run: the exact counts, and times
        that are medians, scaled to reference speed by the run's median speed
        factor. A layer the workload never calls reports 0."""
        w, tr = self.w, self.tr
        speed = self.meter.factor()

        def ms(name):
            return 1e3 * speed * _median(tr.durations(name))

        def us_per_row(name):
            spans = tr.select(name, self.query_marks[0][0]) if self.query_marks else []
            rows = sum(s[4] for s in spans)
            return 1e6 * speed * sum(s[2] - s[1] for s in spans) / rows if rows else 0.0

        v = self.counts()
        v.update({
            "query_ms.tail": self.tail_ms([c.scaled() for c in self.whole_cycles()]),
            "simulators.us_per_row": 1e3 * ms("simulators.generate_dataset")
                                     / v["simulators.calls"],
            "tableio.write_s": ms("tableio.save") / 1e3,
            "tableio.read_s": ms("tableio.load") / 1e3,
            "posterior_err": _median(self.errors),
            # traced passes minus untraced ones; pass 0 also warms caches up
            "trace.overhead_ms": 1e3 * (_median([r.clock.scaled() for r in self.reps[1::2]])
                                        - _median([r.clock.scaled() for r in self.reps[2::2]])),
        })
        replay = self.replay or {"nodes": 0, "forward_s": 0.0, "backward_s": 0.0, "adam_s": 0.0}
        v["ndiff.nodes_per_step"] = replay["nodes"]
        for stage in ("forward", "backward", "adam"):
            v[f"ndiff.{stage}_ms"] = 1e3 * speed * replay[f"{stage}_s"]

        fit_ms, steps = ms("trainer.fit"), v["trainer.steps"]
        v["trainer.fit_s"] = fit_ms / 1e3
        v["trainer.ms_per_step"] = fit_ms / steps if steps else 0.0

        made = sum(s[4] for s in self._in_counted("estimators.sample"))
        target = self._in_counted("inference.target")
        evals = v["samplers.target_evals"]
        draws = len(self.query_marks) * w.n_draws
        v.update({
            "estimators.log_prob_us_per_row": us_per_row("estimators.log_prob"),
            "estimators.sample_us_per_row": us_per_row("estimators.sample"),
            "inference.target_ms_per_call": ms("inference.target"),
            "inference.target_rows_per_call":
                sum(s[4] for s in target) / len(target) if target else 0.0,
            "inference.leak_accept": draws / made if made else 0.0,
            "samplers.target_calls": len(self._in_counted("inference.log_target")),
            "samplers.evals_per_draw": evals / draws if self.diagnostics else 0.0,
            "samplers.self_ms": 1e3 * speed * _median(tr.self_times("samplers.slice_sample")),
            "samplers.acceptance": _median([float(d.acceptance.mean()) for d in self.diagnostics]),
            "samplers.r_hat_max": _median([float(d.r_hat.max()) for d in self.diagnostics]),
            "samplers.ess_min": _median([float(d.ess.min()) for d in self.diagnostics]),
        })
        return v


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.probe_setup:
        print("ready", setup_digest(w.setup(args.seed)), flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meter = SpeedMeter()
    setup_raw, setup_scaled, probe_digests = probe_setup(w.name, args.seed, meter)
    st = w.setup(args.seed)
    inputs = setup_digest(st)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        run = Run(w, args.seed, args.seconds, bool(args.trace), workdir, meter)
        if probe_digests != {inputs}:
            run.failures.append("set-up inputs differ between processes at one seed")
        else:
            run.execute(st)

    values, detail = {}, {}
    if not run.failures:
        values, detail = run.end_to_end(setup_raw, setup_scaled)
        if args.trace:
            values = run.per_layer()
        if run.errors and not w.aggregate_ok(run.errors):
            run.failures.append(f"median posterior error {_median(run.errors)} above tolerance")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted} if values else {}
    failed = len(run.failures)
    record = {
        "workload": w.name, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed),
        "digests": {"setup": inputs, **(run.reps[0].digests if run.reps else {})},
        "counts": run.counts() if values else {},
        "first_query_draws": run.first_draws,
        "attempted": run.attempted, "failed": failed,
        "failed_frac": failed / max(run.attempted, 1),
        "failures": run.failures[:20],
        "posterior_err": _median(run.errors) if run.errors else None,
        "posterior_err_max": run.error_max if run.errors else None,
        "posterior_err_unit": w.error_unit or None,
        **detail,
        "metrics": metrics,
    }
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        run.tr.write(out_dir / f"{stem}.spans.jsonl")
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
