"""End-to-end benchmark of the abpmix CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  ``gen.py`` writes the inputs; ``--seed`` sets the subjects'
order in the CSVs and which subjects are profiled and checked.  A run
cycles the paper's pipeline (``fit``, ``compare``, ``profiles``,
``band``) on the workload's cohort, in-process through ``abpmix.cli.main``,
for about ``--seconds`` and at least two cycles.  Commands shorter than
MIN_SAMPLE_S run several times a cycle.  ``check.py`` verifies the first
cycle's outputs, against ``reference.json`` among others; every later
cycle must write byte-identical files.  A command invocation fails if it
exits non-zero or its outputs fail a check.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median time of
a fresh interpreter importing ``abpmix.cli``), each command's median time
and the process's peak RSS.  Times are wall times scaled by ``Yardstick``
to a nominal machine speed.
``--trace 1`` alternates plain and traced cycles (``spans.py``) and
prints the per-layer metrics per traced cycle and the tracing overhead.
The last stdout line is the result object; the line before it, also
written to ``.bench_out/``, holds the environment, the workload's
properties, the failures and the sample counts with raw wall times.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: the matrices are at most 24 x 24, and a second OpenBLAS
# thread doubled CPU time without shortening a fit on a 2-core machine
# while making timings noisier.  Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import time
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402

COMMANDS = ("fit", "compare", "profiles", "band")
SETUP_REPEATS = 5
MIN_SAMPLE_S = 0.2
MAX_REPEATS = 8
EVAL_REPEATS = 7
CHECKED_PROFILES = 8
WORKERS = str(min(2, os.cpu_count() or 1))

# one CLI invocation: wall seconds and the same scaled by the yardstick
Sample = namedtuple("Sample", "cmd wall scaled traced")


@dataclass(frozen=True)
class Workload:
    name: str
    stream: int             # seed stream of this workload's cohort
    n_subjects: int         # cohort that profiles and band read
    missing_rate: float
    ref_subjects: int       # 0: fit and compare on the cohort itself
    compare_models: tuple
    profile_subjects: int   # 0: every subject
    band_thresholds: bool   # band --model m9 --thresholds, else band --fit


WORKLOADS = {
    # 357 complete subjects share one design: one Cholesky per likelihood
    # evaluation, optimizer iterations dominate, blup is nearly idle
    "paper_cohort": Workload("paper_cohort", 1, 357, 0.0, 0,
                             ("m9", "rcs9", "m6", "m4"), 24, True),
    # 10% missing: 27 distinct designs among 30 subjects, so each
    # evaluation loops over design groups; the information matrix and
    # Satterthwaite inference dominate the rest.  30 subjects, not the
    # 400 of the incomplete-data cliff, and a cheap comparison, so that a
    # run holds six fits
    "incomplete_fit": Workload("incomplete_fit", 2, 30, 0.1, 0,
                               ("m4", "m3"), 24, False),
    # the read side: profiles for all 3000 subjects and band --fit from a
    # fit on a 200-subject reference cohort; dataio, design and blup scale
    # with subjects and attach_data rebuilds a whole problem
    "bulk_profiles": Workload("bulk_profiles", 3, 3000, 0.1, 200,
                              ("m6", "m4"), 0, False),
}


# ---------------------------------------------------------------------------
# inputs


@dataclass
class CohortInputs:
    dir: Path
    subjects: list
    fit_subjects: list      # what fit and compare read
    profiled: list
    data: Path
    fit_data: Path
    thresholds: Path = None


def prepare(w: Workload, seed: int, work: Path) -> CohortInputs:
    d = work / "cohort"
    d.mkdir(parents=True)
    subjects = gen.cohort(w.stream * 100, w.n_subjects, w.missing_rate, seed)
    gen.write_cohort(d / "data.csv", subjects)
    fit_subjects, fit_data = subjects, d / "data.csv"
    if w.ref_subjects:
        fit_subjects = gen.cohort(w.stream * 100 + 1, w.ref_subjects, 0.0, seed)
        fit_data = d / "ref.csv"
        gen.write_cohort(fit_data, fit_subjects)
    profiled = subjects
    if w.profile_subjects:
        rng = np.random.default_rng([seed, w.stream])
        idx = np.sort(rng.choice(len(subjects), w.profile_subjects, replace=False))
        profiled = [subjects[i] for i in idx]
    inp = CohortInputs(d, subjects, fit_subjects, profiled, d / "data.csv", fit_data)
    if w.band_thresholds:
        inp.thresholds = d / "thresholds.json"
        gen.write_json(inp.thresholds, gen.hourly_thresholds(subjects))
    return inp


def commands(w: Workload, inp: CohortInputs, models: Path, out: Path) -> list:
    m9 = str(models / "m9.json")
    fit_json = str(out / "fit" / "fit.json")
    compare = ["compare", "--force-reml-compare"]
    for m in w.compare_models:
        compare += ["--model", str(models / f"{m}.json")]
    if w.band_thresholds:
        band = ["band", "--model", m9, "--thresholds", str(inp.thresholds)]
    else:
        band = ["band", "--fit", fit_json]
    return [
        ("fit", ["fit", "--model", m9, "--data", str(inp.fit_data), "--out", str(out / "fit")]),
        ("compare", compare + ["--data", str(inp.fit_data), "--out", str(out / "compare")]),
        ("profiles", ["profiles", "--fit", fit_json, "--data", str(inp.data),
                      "--subjects", ",".join(s.id for s in inp.profiled),
                      "--workers", WORKERS, "--out", str(out / "profiles")]),
        ("band", band + ["--data", str(inp.data), "--out", str(out / "band")]),
    ]


# ---------------------------------------------------------------------------
# checks


REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def reference(w: Workload):
    """The recorded REML optima of a workload's fits (see BASELINE.md);
    None for the shrunk workloads of the tests, which have none."""
    return REFERENCE[w.name] if WORKLOADS.get(w.name) == w else None


def check_cycle(w: Workload, inp: CohortInputs, out: Path, seed: int, cli) -> tuple:
    """Command -> error message for every command whose outputs are wrong,
    and the REML log-likelihoods the outputs hold."""
    errors = {}
    found = {}
    ref = reference(w)

    def attempt(cmd, fn):
        try:
            return fn()
        except (check.CheckError, OSError, KeyError, ValueError) as exc:
            errors[cmd] = f"{type(exc).__name__}: {exc}"
            return None

    def fit_outputs():
        check.check_fit(fit)
        check.check_fixed_effects(out / "fit" / "fixed_effects.csv", fit)
        found["fit"] = fit.loglik
        if ref:
            check.check_optimum(fit.path, fit.loglik, ref["fit"])

    def compare_outputs():
        path = out / "compare" / "comparison.csv"
        found["compare"] = check.check_comparison(path, len(inp.fit_subjects),
                                                  w.compare_models)
        if ref:
            for m, ll in found["compare"].items():
                check.check_optimum(f"{path}: {m}", ll, ref["compare"][m])

    # a wrong fit.json fails the fit; profiles and band are still held to it
    fit = attempt("fit", lambda: check.PolyFit(out / "fit" / "fit.json", inp.fit_subjects))
    if fit is not None:
        attempt("fit", fit_outputs)
    attempt("compare", compare_outputs)
    if fit is None:
        errors.setdefault("profiles", "no checked fit.json")
        errors.setdefault("band", "no checked fit.json")
        return errors, found
    rng = np.random.default_rng([seed, w.stream, 1])
    sample = rng.choice(len(inp.profiled), min(CHECKED_PROFILES, len(inp.profiled)),
                        replace=False)
    attempt("profiles", lambda: check.check_profiles(
        out / "profiles" / "profiles.csv", fit, [inp.profiled[i] for i in sorted(sample)]))

    def band_outputs():
        band_fit = fit
        if w.band_thresholds:
            # the band's fit is not written out: refit the normals selected
            # here through the fit command and hold the band to that fit
            with open(inp.thresholds, encoding="utf-8") as fh:
                normals = check.normals(inp.subjects, json.load(fh))
            ndir = out.parent / "check"
            gen.write_cohort(ndir.with_suffix(".csv"), normals)
            rc = cli.main(["fit", "--model", str(inp.dir.parent / "models" / "m9.json"),
                           "--data", str(ndir.with_suffix(".csv")), "--out", str(ndir)])
            if rc != 0:
                raise check.CheckError(f"refit of the normals exited {rc}")
            band_fit = check.PolyFit(ndir / "fit.json", normals)
            check.check_fit(band_fit)
            found["normals"] = band_fit.loglik
            if ref:
                check.check_optimum(band_fit.path, band_fit.loglik, ref["normals"])
        check.check_band(out / "band" / "band.csv", band_fit)

    attempt("band", band_outputs)
    return errors, found


def output_digests(out: Path) -> dict:
    """Command -> {relative path: sha256} of everything it wrote."""
    res = {}
    for cmd in COMMANDS:
        files = sorted(p for p in (out / cmd).rglob("*") if p.is_file())
        res[cmd] = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in files}
    return res


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# measurement


class Yardstick:
    """Machine speed, from a fixed loop timed around every measurement.

    On a shared host the same deterministic command ran up to 25% slower
    from one 10-second window to the next, and this loop slowed with it.
    A measured wall time t between yardstick readings r0 and r1 is
    reported as t * NOMINAL_S / ((r0 + r1) / 2): seconds at the speed
    where the loop takes NOMINAL_S.  The loop mixes what the commands do,
    small LAPACK factorizations, triangular solves and interpreter work,
    and touches no abpmix code, so a change to the program cannot move it.
    """

    NOMINAL_S = 0.04  # the loop's time on an idle 2-core Xeon, 1 BLAS thread
    ROUNDS = 1000

    def __init__(self):
        import scipy.linalg as sla

        self._solve = sla.solve_triangular
        rng = np.random.default_rng(0)
        a = rng.standard_normal((24, 24))
        self._spd = a @ a.T + 24.0 * np.eye(24)
        self._rhs = rng.standard_normal((24, 10))
        self.readings = []
        self.last = self.read()

    def read(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(self.ROUNDS):
            w = self._solve(np.linalg.cholesky(self._spd), self._rhs, lower=True)
            acc += float(np.sum(w * w))
            acc += sum({j: 2 * j for j in range(20)}.values())
        dt = time.perf_counter() - t0
        self.readings.append(dt)
        return dt

    def scale(self, wall: float) -> float:
        """Scale a wall time measured since the previous reading."""
        now = self.read()
        scaled = wall * self.NOMINAL_S / (0.5 * (self.last + now))
        self.last = now
        return scaled


def measure_setup() -> list:
    """Wall times of fresh interpreters importing the CLI module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import abpmix.cli"], env=env, check=True,
                       cwd=ROOT, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for p in sorted((SRC / "abpmix").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "cli_workers": WORKERS,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def summary(values) -> dict:
    v = sorted(values)
    return {"n": len(v), "median": statistics.median(v), "min": v[0], "max": v[-1]}


def standalone_evals(inp: CohortInputs, out: Path) -> dict:
    """One likelihood and one gradient evaluation at the fitted theta."""
    from abpmix import dataio, serialize
    from abpmix.estimation import MixedModelProblem

    fitted = serialize.load_fitted_model(out / "fit" / "fit.json")
    cohort = dataio.read_cohort(inp.fit_data)
    problem = MixedModelProblem(fitted.spec, cohort, context=fitted.context)
    theta = fitted.params.theta
    res = {}
    for key, fn in (("loglik_eval_ms", problem.loglikelihood),
                    ("grad_eval_ms", problem.loglik_and_grad)):
        times = []
        for _ in range(EVAL_REPEATS):
            t0 = time.perf_counter()
            fn(theta)
            times.append(time.perf_counter() - t0)
        res[f"estimation.{key}"] = 1e3 * statistics.median(times)
    return res


def run(w: Workload, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    from abpmix import cli

    models = work / "models"
    models.mkdir(parents=True)
    for name, spec in gen.MODELS.items():
        gen.write_json(models / f"{name}.json", spec)
    inp = prepare(w, seed, work)

    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
    records = []            # Sample per invocation
    digests = None          # digests of the first cycle's outputs
    failed = set()          # commands whose outputs are wrong
    notes = []
    out_bytes = []
    yardstick = Yardstick()
    repeats = {}
    start = time.perf_counter()
    cycle = 0
    while True:
        # two cycles at least: the byte-identity check needs a repeat, and
        # traced runs alternate a plain and a traced cycle.  Stop when
        # another cycle would end nearer past the deadline than this one
        # is before it.
        if cycle >= 2:
            cycle_s = (time.perf_counter() - start) / cycle
            if time.perf_counter() + 0.5 * cycle_s >= start + seconds:
                break
        out = work / f"out{cycle}"
        traced_cycle = traced and cycle % 2 == 1
        yardstick.last = yardstick.read()
        for cmd, argv in commands(w, inp, models, out):
            for _ in range(1 if traced_cycle else repeats.get(cmd, 1)):
                with contextlib.ExitStack() as stack:
                    if traced_cycle:
                        stack.enter_context(tracer.installed())
                        stack.enter_context(tracer.command(cmd))
                    t0 = time.perf_counter()
                    rc = cli.main(argv)
                    wall = time.perf_counter() - t0
                records.append(Sample(cmd, wall, yardstick.scale(wall), traced_cycle))
                if rc != 0:
                    failed.add(cmd)
                    notes.append(f"cycle {cycle}: {cmd} exited {rc}")
        if traced_cycle:
            out_bytes.append(output_bytes(out))
        dig = output_digests(out)
        if digests is None:
            digests = dig
            errors, logliks = check_cycle(w, inp, out, seed, cli)
            for cmd, msg in errors.items():
                failed.add(cmd)
                notes.append(f"cycle {cycle}: {cmd}: {msg}")
        else:
            for cmd in COMMANDS:
                if dig[cmd] != digests[cmd]:
                    failed.add(cmd)
                    notes.append(f"cycle {cycle}: {cmd} outputs differ from cycle 0")
            shutil.rmtree(out)
        cycle += 1
        if cycle == 1:
            # commands shorter than MIN_SAMPLE_S run several times a cycle
            # from the second cycle on, so their medians rest on more samples
            for cmd in COMMANDS:
                first = max(r.wall for r in records if r.cmd == cmd)
                repeats[cmd] = min(MAX_REPEATS, max(1, math.ceil(MIN_SAMPLE_S / first)))

    attempted = len(records)
    n_failed = sum(1 for r in records if r.cmd in failed)

    def samples(cmd, traced_only=False, scaled=True):
        return [r.scaled if scaled else r.wall for r in records
                if r.cmd == cmd and r.traced == traced_only]

    def typical(cmd, traced_only=False):
        return statistics.median(samples(cmd, traced_only))

    per_cmd = {cmd: samples(cmd) for cmd in COMMANDS}
    result = {
        "attempted": attempted,
        "failed": n_failed,
        "failure_rate": n_failed / attempted,
        "cycles": cycle,
        "failures": notes,
        "logliks": logliks,
        "commands_s": {cmd: summary(v) for cmd, v in per_cmd.items()},
        "commands_wall_s": {cmd: summary(samples(cmd, scaled=False)) for cmd in COMMANDS},
        "properties": {
            **gen.properties(inp.subjects),
            "fit_cohort": gen.properties(inp.fit_subjects),
            "profiled_subjects": len(inp.profiled),
            "models": {"fit": ["m9"], "compare": list(w.compare_models), "band": ["m9"]},
        },
    }
    metrics = {}
    if not traced:
        # setup_s is scaled by the run's median yardstick reading, not by
        # the readings beside each start-up: on ten runs per workload the
        # per-measurement scaling spread 0.14-0.28 (IQR / median), while
        # between two sets of ten runs on a host that had slowed by a
        # quarter, the wall-time median moved 25% and this one 3%
        speed = statistics.median(yardstick.readings)
        setup = measure_setup()
        result["setup_wall_s"] = summary(setup)
        result["yardstick_s"] = summary(yardstick.readings)
        metrics["setup_s"] = (statistics.median(setup) * Yardstick.NOMINAL_S / speed, "s")
        for cmd in COMMANDS:
            metrics[f"{cmd}_s"] = (typical(cmd), "s")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    else:
        metrics = layer_metrics(tracer, cycle // 2)
        metrics.update({k: (v, "ms") for k, v in standalone_evals(inp, work / "out0").items()})
        metrics["cli.output_bytes"] = (statistics.median(out_bytes), "bytes")
        for cmd in COMMANDS:
            metrics[f"trace.{cmd}_overhead_s"] = (
                typical(cmd, traced_only=True) - typical(cmd), "s")
        spans_dir = ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        tracer.write(spans_dir / f"spans-{w.name}-s{seed}.jsonl")
    result["metrics"] = metrics
    return result


def layer_metrics(tracer, n_cycles: int) -> dict:
    """Per-layer metrics from the spans, per traced pipeline cycle."""
    from spans import optimizer_evals, self_times

    spans = tracer.spans
    by_name = {}
    for s in spans:
        if s.parent is not None:
            by_name.setdefault(f"{s.layer}.{s.name}", []).append(s)
    roots = {s.id: s for s in spans if s.parent is None}

    def durations(key):
        return [s.end - s.start for s in by_name.get(key, [])]

    def total(key):
        return sum(durations(key)) / n_cycles

    def calls(key):
        return len(by_name.get(key, [])) / n_cycles

    def median_ms(key):
        d = durations(key)
        return 1e3 * statistics.median(d) if d else 0.0

    fit_evals = optimizer_evals(spans)
    iterations = tracer.counts["estimation.iterations"]
    profile_designs = sum(1 for s in by_name.get("design.build_design", [])
                          if roots[s.invocation].name == "profiles")
    profiled = sum(1 for s in by_name.get("blup.subject_profile", [])
                   if roots[s.invocation].name == "profiles")
    wall = sum(s.end - s.start for s in roots.values())
    selfs = self_times(spans)
    m = {
        "dataio.read_cohort_s": (total("dataio.read_cohort"), "s"),
        "dataio.rows_read": (tracer.counts["dataio.rows_read"] / n_cycles, "count"),
        "dataio.filter_normals_s": (total("dataio.filter_normals"), "s"),
        "basis.evaluate_calls": (calls("basis.evaluate"), "count"),
        "basis.evaluate_s": (total("basis.evaluate"), "s"),
        "design.context_s": (total("design.context"), "s"),
        "design.build_design_calls": (calls("design.build_design"), "count"),
        "design.build_design_s": (total("design.build_design"), "s"),
        "design.build_design_calls_per_subject": (
            profile_designs / profiled if profiled else 0.0, "ratio"),
        "estimation.problem_init_s": (total("estimation.problem_init"), "s"),
        "estimation.loglik_calls": (calls("estimation.loglik"), "count"),
        "estimation.grad_calls": (calls("estimation.grad"), "count"),
        "estimation.loglik_call_ms": (median_ms("estimation.loglik"), "ms"),
        "estimation.grad_call_ms": (median_ms("estimation.grad"), "ms"),
        "estimation.optimizer_s": (total("estimation.optimizer"), "s"),
        "estimation.iterations": (iterations / n_cycles, "count"),
        "estimation.evals_per_iteration": (fit_evals / iterations if iterations else 0.0,
                                           "ratio"),
        "estimation.cholesky_calls": (tracer.counts["estimation.cholesky_calls"] / n_cycles,
                                      "count"),
        "estimation.information_calls": (calls("estimation.information"), "count"),
        "estimation.information_s": (total("estimation.information"), "s"),
        "estimation.cov_beta_derivatives_calls": (calls("estimation.cov_beta_derivatives"),
                                                  "count"),
        "estimation.cov_beta_derivatives_s": (total("estimation.cov_beta_derivatives"), "s"),
        "inference.per_column_tests_s": (total("inference.per_column_tests"), "s"),
        "inference.r2_statistics_s": (total("inference.r2_statistics"), "s"),
        "inference.variance_component_table_s": (total("inference.variance_component_table"),
                                                  "s"),
        "inference.f_test_calls": (calls("inference.f_test"), "count"),
        "blup.subject_profile_calls": (calls("blup.subject_profile"), "count"),
        "blup.subject_profile_s": (total("blup.subject_profile"), "s"),
        "blup.cholesky_calls": (tracer.counts["blup.cholesky_calls"] / n_cycles, "count"),
        "blup.population_curve_s": (total("blup.population_curve"), "s"),
        "blup.prediction_band_s": (total("blup.prediction_band"), "s"),
        "serialize.fit_json_write_s": (total("serialize.fit_json_write"), "s"),
        "serialize.fit_json_load_s": (total("serialize.fit_json_load"), "s"),
        "trace.command_s": (wall / n_cycles, "s"),
        "trace.accounted_share": (sum(selfs.values()) / wall, "ratio"),
    }
    for layer in ("cli", "dataio", "basis", "design", "estimation", "inference", "blup",
                  "serialize"):
        m[f"{layer}.self_s"] = (selfs.get(layer, 0.0) / n_cycles, "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "abpmix" / "cli.py").is_file():
        print(f"error: no abpmix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    tag = f"{w.name}-s{args.seed}-t{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    try:
        res = run(w, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), **res}
    detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    text = json.dumps(detail)
    (out_dir / f"result-{tag}.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": detail["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
