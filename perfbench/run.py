"""Benchmark for equilib: seeded CLI/library workloads, checked exactly.

Usage (from the repository root):

    python3 perfbench/run.py                       # all workloads, one process each
    python3 perfbench/run.py --workload solve-generic --seed 3 --seconds 20 --trace 0

One client runs jobs back to back in one thread (a closed loop).  A job is
one in-process call of ``equilib.cli.main(argv)`` with ``--out``, or one
library call where the CLI cannot reach the code (three-player games).
Set-up writes the workload's seeded inputs (``gen.py``) under
``.perfbench_work/`` and runs one job of each kind as warm-up.  The timed
loop then runs the deck, whole, as many times as fit in ``--seconds``
(always at least once), so every run has the same mix of job kinds.
Job times are wall times normalised by a machine-speed probe run between
jobs (``speed.py``); raw wall times are printed too.  After the loop,
``oracle.py`` checks each output in its own exact arithmetic; for the
default seed the answers must also match ``reference.json``.  A
self-test plants errors in passing reports and requires the checker to
catch them.  ``setup_s`` is the median cold ``import equilib.cli`` time
of five fresh interpreters.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
loop for half of ``--seconds`` untraced, then the same jobs again with
spans recorded around every public ``equilib`` function (``spans.py``),
and reports per-layer metrics per job, plus the tracing overhead.
Spans are written to ``.perfbench_out/`` after the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)
import gen  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402

SETUP_SAMPLES = 5

# One set-up sample: a fresh interpreter times ``import equilib.cli`` and
# prints (normalised, raw) seconds.
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import speed; a = speed.probe(); "
    "t = time.perf_counter(); import equilib.cli; d = time.perf_counter() - t; "
    "b = speed.probe(); print(repr(d * 2 * speed.REF / (a + b)), repr(d))"
)


def import_program() -> None:
    """Import ``equilib.cli`` from the checkout, or exit if there is none."""
    if not os.path.isfile(os.path.join(SRC, "equilib", "cli.py")):
        raise SystemExit(f"perfbench: no program to measure at {SRC}/equilib")
    sys.path.insert(0, SRC)
    import equilib.cli  # noqa: F401


def setup_samples() -> list[tuple[float, float]]:
    """(normalised, raw) cold-import times of ``equilib.cli``, one fresh process each."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC, HERE],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        norm, raw = proc.stdout.split()
        out.append((float(norm), float(raw)))
    return out


class Runner:
    """Runs one job and returns (seconds, exit code, report text or None)."""

    def __init__(self):
        import equilib.cli
        import equilib.games
        import equilib.solver

        # resolved at call time, so a traced run goes through the wrappers
        self.cli, self.games, self.solver = equilib.cli, equilib.games, equilib.solver

    def __call__(self, job):
        if job.argv is None:
            return self._library(job)
        if os.path.exists(job.out):
            os.remove(job.out)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(job.argv)
            except Exception as exc:  # a crash is a failed job, not a failed run
                code = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        text = None
        if os.path.exists(job.out):
            with open(job.out) as fh:
                text = fh.read()
        return dt, code, text

    def _library(self, job):
        t0 = time.perf_counter()
        try:
            game = self.games.load_game(job.path)
            es = self.solver.three_player_support_enumeration(game)
            report = {
                "results": {
                    "isolated": [
                        [{s: oracle.q(w) for s, w in mix.weights} for mix in prof]
                        for prof in es.isolated
                    ],
                    "exhaustive": es.exhaustive,
                    "notes": list(es.notes),
                }
            }
            code = 0
        except Exception as exc:  # a crash is a failed job, not a failed run
            report, code = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        return dt, code, None if report is None else json.dumps(report)


def closed_loop(deck, run, budget: float, decks: int | None = None):
    """Run whole decks back to back, with a speed probe after every job.

    Stops before a deck that would end past ``budget`` wall seconds (judged
    by the mean deck time so far), or after exactly ``decks`` decks if
    given.  Returns the records (job, normalised seconds, raw seconds,
    code, text), the elapsed wall time and the number of decks.

    A job's wall time is normalised by the mean of the probes taken within
    one job-length of it on either side, plus the nearest probe beyond each
    end, so a long job is judged by the machine's speed over a stretch as
    long as itself, not by two snapshots.
    """
    runs, probes = [], []

    def probe():
        dt = speed.probe()
        probes.append((time.perf_counter() - dt / 2, dt))

    done = 0
    t0 = time.perf_counter()
    probe()
    while True:
        for job in deck:
            start = time.perf_counter()
            raw, code, text = run(job)
            end = time.perf_counter()
            probe()
            runs.append((job, raw, code, text, start, end))
        done += 1
        elapsed = time.perf_counter() - t0
        if decks is not None:
            if done == decks:
                break
        elif elapsed * (done + 1) / done > budget:
            break
    at = [t for t, _ in probes]
    records = []
    for job, raw, code, text, start, end in runs:
        lo = bisect.bisect_left(at, start - (end - start))
        hi = bisect.bisect_right(at, end + (end - start))
        near = [dt for _, dt in probes[max(lo - 1, 0):hi + 1]]
        records.append((job, raw * speed.REF * len(near) / sum(near), raw, code, text))
    return records, elapsed, done


def check_records(workload, seed, records, write_reference):
    """Check every output; return (failed flags, problems, self-test result)."""
    cache: dict = {}
    ref = None
    if seed == gen.DEFAULT_SEED and not write_reference and os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            ref = json.load(fh).get(workload)
    failed, problems, answers, passing = [], [], {}, []
    for job, _, _, code, text in records:
        report = json.loads(text) if text else None
        probs, answer = oracle.check(job, code, report, cache)
        slot = str(job.data["slot"])
        if not probs and ref is not None:
            want = ref["answers"].get(slot)
            if json.loads(json.dumps(answer)) != want:
                probs = [f"answer {answer} differs from reference {want}"]
        if not probs:
            answers[slot] = answer
            passing.append((job, report))
        failed.append(bool(probs))
        problems += [f"{job.kind} #{slot}: {p}" for p in probs]
    # self-test: for each kind of job, plant an error in the first passing
    # report that can take one; the checker must reject it
    caught, planted = 0, 0
    for kind in sorted({job.kind for job, _ in passing}):
        for job, report in passing:
            bad = oracle.corrupt(job, report) if job.kind == kind else None
            if bad is not None:
                planted += 1
                caught += bool(oracle.check(job, 0, bad, cache)[0])
                break
    if write_reference:
        data = {}
        if os.path.exists(REFERENCE):
            with open(REFERENCE) as fh:
                data = json.load(fh)
        data[workload] = {"seed": seed, "answers": dict(sorted(answers.items(), key=lambda kv: int(kv[0])))}
        with open(REFERENCE, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return failed, problems, (caught, planted)


def tail(times, deck_size: int):
    """Job time at the highest percentile that leaves ten jobs of each deck above it.

    Fixing the percentile by the deck size keeps it the same whether one
    deck or several fit in the run.
    """
    s = sorted(times)
    decks = len(s) // deck_size
    k = max(decks * (deck_size - 10) - 1, 0)
    return s[k], 100.0 * (k + 1) / len(s)


def end_to_end(records, failed, setup, deck_size):
    times = [r[1] for r in records]
    raw = [r[2] for r in records]
    passed = len(records) - sum(failed)
    value, pct = tail(times, deck_size)
    metrics = {
        "setup_s": (statistics.median(s[0] for s in setup), "s"),
        "jobs_per_s": (passed / sum(times), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (value, "s"),
        "ok_frac": (passed / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"job_tail_s is p{pct:.0f} of {len(times)} job times",
        f"fail_frac {sum(failed) / len(records):.4f}",
        f"raw wall: jobs_per_s {passed / sum(raw):.4f}, job_p50_s {statistics.median(raw):.4f}, "
        f"job_tail_s {tail(raw, deck_size)[0]:.4f}, setup_s {statistics.median(s[1] for s in setup):.4f}",
        f"setup samples (normalised) {[round(s[0], 4) for s in setup]}",
    ]
    return metrics, notes


def per_layer(summary, jobs: int, scale: float, overhead: float):
    """Per-layer metrics per job; ``scale`` turns traced wall seconds into normalised ones."""
    f = summary["functions"]
    zero = {"calls": 0, "total": 0.0, "self": 0.0, "outcome": 0}

    def fn(name):
        return f.get(name, zero)

    def frac(a, b):
        return a / b if b else 0.0

    def layer_self(layer):
        return sum(s["self"] for n, s in f.items() if n.split(".")[0] == layer) * scale / jobs

    def layer_calls(layer):
        return sum(s["calls"] for n, s in f.items() if n.split(".")[0] == layer) / jobs

    nested = summary["nested"]
    se = fn("solver.support_enumeration")
    m = {}
    per_job = "s/job"
    for layer in ("bench", "cli", "rational", "games", "linalg", "solver", "sympy",
                  "indices", "equivalence", "perturb", "geometry", "examples"):
        m[f"{layer}.self_s"] = (layer_self(layer), per_job)
    for name in ("cli.main", "games.is_equilibrium", "games.eliminate_strictly_dominated",
                 "linalg.solve_unique", "linalg.vertex_enumeration", "linalg.solve_linear",
                 "linalg.matrix_rank", "linalg.determinant", "linalg.linprog",
                 "solver.support_enumeration", "sympy.solve", "indices.component_index",
                 "indices.index_regular"):
        m[f"{name}.calls"] = (fn(name)["calls"] / jobs, "1/job")
    m["rational.calls"] = (layer_calls("rational"), "1/job")
    m["equivalence.calls"] = (layer_calls("equivalence"), "1/job")
    for name in ("solver.support_enumeration", "solver.components",
                 "solver.three_player_support_enumeration", "indices.component_index",
                 "indices.degree_oracle", "perturb.run_pipeline", "geometry.validate",
                 "geometry.el_refinement"):
        m[f"{name}.total_s"] = (fn(name)["total"] * scale / jobs, per_job)
    for name in ("linalg.vertex_enumeration", "linalg.linprog"):
        m[f"{name}.self_s"] = (fn(name)["self"] * scale / jobs, per_job)
    su, ve, lp = fn("linalg.solve_unique"), fn("linalg.vertex_enumeration"), fn("linalg.linprog")
    m["linalg.solve_unique.hit_frac"] = (frac(su["outcome"], su["calls"]), "ratio")
    m["linalg.vertex_enumeration.empty_frac"] = (frac(ve["outcome"], ve["calls"]), "ratio")
    m["linalg.linprog.optimal_frac"] = (frac(lp["outcome"], lp["calls"]), "ratio")
    m["solver.yield_frac"] = (
        frac(se["outcome"], nested.get(("solver.support_enumeration", "linalg.vertex_enumeration"), 0)),
        "ratio",
    )
    ci = fn("indices.component_index")
    m["indices.reenum_per_component"] = (
        frac(nested.get(("indices.component_index", "solver.support_enumeration"), 0), ci["calls"]),
        "1/call",
    )
    m["geometry.validate.lp_calls"] = (
        nested.get(("geometry.validate", "linalg.linprog"), 0) / jobs, "1/job"
    )
    m["trace.wall_s"] = (summary["wall"] * scale / jobs, per_job)
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


def run_workload(args) -> int:
    import_program()
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        deck = gen.make_deck(args.workload, args.seed, workdir)
        run = Runner()
        warmed = set()
        for job in deck:  # warm-up: first job of each kind, untimed
            if job.kind not in warmed:
                warmed.add(job.kind)
                run(job)
        budget = args.seconds / 2 if args.trace else args.seconds
        records, elapsed, decks = closed_loop(deck, run, budget)
        notes = [f"{decks} deck(s) of {len(deck)} jobs in {elapsed:.2f} s"]
        sane = True
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
            try:
                traced, _, _ = closed_loop(deck, lambda job: tracer.job(run, job), 0, decks)
            finally:
                tracer.uninstall()
            summary = tracer.summary()
            # the speed probes run between jobs, outside the root spans
            norm = sum(r[1] for r in traced)
            scale = norm / sum(r[2] for r in traced)
            metrics = per_layer(summary, len(traced), scale, norm / sum(r[1] for r in records) - 1)
            total_self = sum(v for k, (v, _) in metrics.items() if k.count(".") == 1 and k.endswith(".self_s"))
            wall = metrics["trace.wall_s"][0]
            sane = abs(total_self - wall) <= 1e-9 * max(wall, 1e-9) + 1e-12
            notes.append(
                f"{summary['spans']} spans; layer self times sum to {total_self:.6f} s/job, "
                f"traced wall {wall:.6f} s/job"
            )
            os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
            tracer.dump(os.path.join(ROOT, ".perfbench_out", f"spans-{args.workload}-seed{args.seed}.json"))
            records = records + traced
            failed, problems, (caught, planted) = check_records(args.workload, args.seed, records, False)
        else:
            failed, problems, (caught, planted) = check_records(
                args.workload, args.seed, records, args.write_reference
            )
            metrics, more = end_to_end(records, failed, setup_samples(), len(deck))
            notes += more
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    selftest = planted > 0 and caught == planted
    notes.append(f"checks: {len(failed) - sum(failed)}/{len(failed)} jobs passed")
    notes.append(f"checker self-test: caught {caught} of {planted} corrupted reports")
    print(f"== {args.workload} seed {args.seed} trace {args.trace}")
    for line in notes + problems[:20]:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    result = {
        "correct": not any(failed) and selftest and sane,
        "attempted": len(failed),
        "failed": sum(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    results = {}
    for workload in gen.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.write_reference:
            cmd.append("--write-reference")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=gen.WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="record the default seed's checked answers in reference.json")
    args = p.parse_args(argv)
    if args.write_reference and (args.seed != gen.DEFAULT_SEED or args.trace):
        p.error("--write-reference needs the default seed and --trace 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
