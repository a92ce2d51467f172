"""Pipeline benchmark for prune_relief.

Runs a workload's CLI sequence ``train -> prune -> report -> scores ->
bounds -> eval`` on seeded, MNIST-shaped IDX files, one process per command
(the way a user runs it), for about ``--seconds`` seconds, checks the
outputs, and prints every metric by name and unit. The last line of
standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: timings at the
reference host speed (see ``speed_scaled``), all of them medians. With
``--trace 1`` untraced and traced sequences alternate; the traced ones run
each command through ``traced_cli.py``, which wraps the package's functions
in spans, and the metrics are the per-layer figures of the fastest traced
sequence plus ``trace.overhead_s`` (fastest traced wall minus fastest
untraced wall).

Usage, from the root of a repository checkout:

    python3 perfbench/run.py --workload mlp_train --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --smoke

Before every command and after the last, the sequence runs
``reference.py``, a fixed task that times how fast the shared host is at
that moment.

Everything the benchmark writes goes to ``.perfbench_work/`` at the root,
which is removed when the run ends. Every process runs with BLAS pinned to
one thread (recorded in the ``env:`` line), so timings do not depend on how
many cores the machine has.
"""

import argparse
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import spans
from workloads import SMOKE, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference.py"
# reference.py's wall time on an uncontended host (Intel Xeon, 2 vCPUs,
# numpy 2.4 with OpenBLAS on one thread): timings are reported at this speed
REF_S = 0.18
# set up at least this many times and for at least this long: a small
# workload's set-up takes well under 0.1 s and needs more repeats to be steady
SETUP_REPEATS = 7
SETUP_MIN_S = 2.0
# set-up runs inside this process, where reference.py's interpreter
# start-up does not; so each set-up is scaled instead by calibrate(), run
# just before and just after it, whose time on an uncontended host is CAL_S
CAL_SAMPLES = 500
CAL_S = 0.045
BLAS_THREADS = 1
# every run must end within 180 s; no command starts after this point
DEADLINE_S = 165.0
COMMANDS = ("train", "prune", "report", "scores", "bounds", "eval")
ANALYZE = ("report", "scores", "bounds", "eval")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "train_samples_per_s": "1/s",
    "prune_s": "s",
    "analyze_s": "s",
    "peak_rss_mb": "MB",
    "final_accuracy": "fraction",
    "remaining_pct": "%",
}

# span name -> what is reported for it: "s" total seconds, "self_s" seconds
# outside its child spans, "calls" number of calls
_SPAN_METRICS = [
    ("optimizers.adam_step", ("s", "calls")),
    ("optimizers.apply", ("s",)),
    ("layers.dense.forward", ("s",)),
    ("layers.dense.backward", ("s",)),
    ("layers.conv.forward", ("s",)),
    ("layers.conv.backward", ("s",)),
    ("layers.maxpool.forward", ("s",)),
    ("layers.maxpool.backward", ("s",)),
    ("tensor_ops.im2col", ("s", "calls")),
    ("tensor_ops.col2im", ("s",)),
    ("training.train", ("s",)),
    ("training.forward_backward", ("s", "calls")),
    ("training.evaluate", ("s",)),
    ("importance.prune_pass", ("s",)),
    ("importance.select_kept", ("s", "calls")),
    ("importance.fc_importance", ("s",)),
    ("importance.conv_importance", ("s",)),
    ("model_io.save_model", ("s",)),
    ("model_io.load_model", ("s",)),
    ("metrics.export_heatmaps", ("s",)),
    ("metrics.compression_stats", ("s",)),
    ("bounds.bound_report", ("s",)),
    ("datasets.load_idx", ("s", "calls")),
    ("pipeline.iteration", ("s",)),
    ("pipeline.iterate", ("self_s",)),
    ("cli.main", ("self_s",)),
]
_COUNTERS = ["tensor_ops.im2col.bytes", "training.evaluate.samples",
             "layers.apply_mask.calls", "model_io.save_model.bytes",
             "model_io.load_model.bytes", "metrics.export_heatmaps.bytes"]
PER_LAYER = {f"{span}.{stat}": {"s": "s", "self_s": "s", "calls": "count"}[stat]
             for span, stats in _SPAN_METRICS for stat in stats}
PER_LAYER.update({name: "bytes" if name.endswith(".bytes") else "count"
                  for name in _COUNTERS})
PER_LAYER.update({"optimizers.step_share": "fraction",
                  "importance.live_contributor_share": "fraction",
                  "trace.overhead_s": "s"})
# layers only a convolutional model runs; they read 0 on the MLP workloads
CONV_ONLY = {n for n in PER_LAYER
             if n.startswith(("layers.conv.", "layers.maxpool.", "tensor_ops."))
             or n == "importance.conv_importance.s"}


def environment(seed: int) -> dict:
    import numpy as np
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS, "seed": seed}


def run_child(argv, env, log_base: Path, deadline: float):
    """Run one command to completion; returns (wall s, peak RSS MB, code)."""
    with open(f"{log_base}.out", "wb") as out, \
            open(f"{log_base}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                stderr=err)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_reference(env, log_base: Path, deadline: float):
    """Run reference.py once; returns what ``run_child`` does."""
    return run_child([sys.executable, str(REFERENCE)], env, log_base, deadline)


def calibrate() -> float:
    """Seconds for a fixed in-process task shaped like set-up: generate a
    ``CAL_SAMPLES``-sample split and gzip its images."""
    import idxgen
    t0 = time.perf_counter()
    pixels, _ = idxgen.make_split(0, CAL_SAMPLES, 0)
    gzip.compress(idxgen.idx_images(pixels), compresslevel=6, mtime=0)
    return time.perf_counter() - t0


def cli_args(cmd: str, workload, config: str, run: str) -> list[str]:
    if cmd == "report":
        return ["report", "--run", run]
    args = [cmd, "--config", config, "--out", run]
    if cmd == "bounds":
        args += ["--layer", str(workload.bounds_layer)]
    return args


def setup(workload, seed: int) -> tuple[str, str]:
    """Write the seeded IDX files and the run config; returns
    (config path relative to the root, sha256 of everything written)."""
    import idxgen
    data_dir = WORK / "data"
    files = idxgen.write_dataset(data_dir, seed, workload.n_train,
                                 workload.n_test)
    rel = {k: os.path.relpath(v, ROOT) for k, v in files.items()}
    cfg = data_dir / "config.json"
    cfg.write_text(json.dumps(workload.config(seed, rel), indent=2) + "\n")
    h = hashlib.sha256()
    for path in sorted([*files.values(), cfg]):
        h.update(path.read_bytes())
    return os.path.relpath(cfg, ROOT), h.hexdigest()


def run_sequence(k: int, workload, config: str, env, traced: bool,
                 deadline: float) -> dict:
    seq_dir = WORK / f"seq{k:03d}"
    seq_dir.mkdir(parents=True)
    run_dir = seq_dir / "run"
    cmds, refs = {}, []
    t0 = time.perf_counter()
    for i, cmd in enumerate(COMMANDS):
        refs.append(run_reference(env, seq_dir / f"ref{i}", deadline))
        args = cli_args(cmd, workload, config, os.path.relpath(run_dir, ROOT))
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"),
                    str(seq_dir / f"{cmd}.spans.json"), f"seq{k}.{cmd}", *args]
        else:
            argv = [sys.executable, "-m", "prune_relief.cli", *args]
        wall, rss, code = run_child(argv, env, seq_dir / cmd, deadline)
        cmds[cmd] = {"wall": wall, "rss_mb": rss, "code": code}
    refs.append(run_reference(env, seq_dir / f"ref{len(COMMANDS)}", deadline))
    wall = time.perf_counter() - t0

    results = [(f"exit_{c}", r["code"] == 0, f"exit code {r['code']}")
               for c, r in cmds.items()]
    results += [(f"exit_reference{i}", r[2] == 0, f"exit code {r[2]}")
                for i, r in enumerate(refs)]
    eval_out = (seq_dir / "eval.out").read_text()
    results += checks.check_run(run_dir, workload, eval_out)
    seq = {"traced": traced, "wall": wall, "commands": cmds, "checks": results,
           "fingerprint": checks.fingerprint(run_dir)}
    seq["scaled"] = speed_scaled({c: r["wall"] for c, r in cmds.items()},
                                 [r[0] for r in refs])
    seq["e2e"] = {
        **timings(seq["scaled"], workload),
        "peak_rss_mb": max(r["rss_mb"] for r in cmds.values()),
    }
    final = checks.final_state(run_dir)
    if final is not None:
        seq["e2e"]["final_accuracy"], seq["e2e"]["remaining_pct"] = final
    if traced:
        seq["layers"] = layer_metrics(seq_dir)
    shutil.rmtree(seq_dir)
    return seq


def speed_scaled(walls: dict, refs: list) -> dict:
    """Each command's wall time at the reference host speed.

    On a shared host every command slows together by 20-60% for seconds to
    minutes at a time, as other tenants come and go. The reference runs
    right before and right after a command see the same slowdown, so the
    command's wall time times ``REF_S`` over their mean is steady across
    those swings, and still grows in proportion when the program does more
    work."""
    return {c: walls[c] * REF_S / ((refs[i] + refs[i + 1]) / 2)
            for i, c in enumerate(COMMANDS)}


def timings(walls: dict, workload) -> dict:
    """The timing metrics from each command's wall time."""
    return {
        "wall_s": sum(walls.values()),
        "train_samples_per_s": workload.n_train * workload.train_epochs
        / walls["train"],
        "prune_s": walls["prune"],
        "analyze_s": sum(walls[c] for c in ANALYZE),
    }


def layer_metrics(seq_dir: Path) -> dict:
    files = [seq_dir / f"{c}.spans.json" for c in COMMANDS]
    total, calls, self_s, counts = spans.summarize(
        [f for f in files if f.is_file()])
    stat = {"s": total, "calls": calls, "self_s": self_s}
    out = {f"{span}.{st}": stat[st].get(span, 0)
           for span, sts in _SPAN_METRICS for st in sts}
    out.update({name: counts.get(name, 0) for name in _COUNTERS})
    step = total.get("training.forward_backward", 0) \
        + total.get("optimizers.apply", 0)
    out["optimizers.step_share"] = \
        total.get("optimizers.adam_step", 0) / step if step else 0.0
    # scoring inside the prune loop only: report and scores rescore the
    # unpruned baseline, which would hide the share falling with depth
    prune_file = seq_dir / "prune.spans.json"
    prune_counts = json.loads(prune_file.read_text())["counts"] \
        if prune_file.is_file() else {}
    scored = prune_counts.get("importance.contributors_scored", 0)
    out["importance.live_contributor_share"] = \
        prune_counts.get("importance.contributors_live", 0) / scored \
        if scored else 0.0
    return out


def measure(workload, seed: int, seconds: float, trace: bool, env) -> dict:
    """Set up several times, then run sequences for about ``seconds``."""
    deadline = time.monotonic() + DEADLINE_S
    setup_raw, cals, digests = [], [calibrate()], set()
    while len(setup_raw) < SETUP_REPEATS or sum(setup_raw) < SETUP_MIN_S:
        t0 = time.perf_counter()
        config, digest = setup(workload, seed)
        setup_raw.append(time.perf_counter() - t0)
        cals.append(calibrate())
        digests.add(digest)
    run_checks = [("setup_deterministic", len(digests) == 1,
                   f"{len(digests)} distinct digests of {len(setup_raw)}")]

    seqs = []
    t0 = time.perf_counter()
    while time.monotonic() < deadline:
        if len(seqs) >= (2 if trace else 1):
            typical = max(s["wall"] for s in seqs[-2:])
            if time.perf_counter() - t0 + typical > seconds:
                break
        traced = trace and len(seqs) % 2 == 1
        seqs.append(run_sequence(len(seqs), workload, config, env, traced,
                                 deadline))
        if len(seqs) > 1:
            same = seqs[-1]["fingerprint"] == seqs[0]["fingerprint"]
            run_checks.append((f"fingerprint_seq{len(seqs) - 1}", same,
                               seqs[-1]["fingerprint"]))
    all_checks = run_checks + [c for s in seqs for c in s["checks"]]
    failed = [c for c in all_checks if not c[1]]
    return {"workload": workload.name, "seed": seed,
            "setup_s": [t * CAL_S / ((cals[i] + cals[i + 1]) / 2)
                        for i, t in enumerate(setup_raw)],
            "setup_raw": setup_raw,
            "sequences": seqs, "checks": all_checks, "failed": failed,
            "fingerprint": seqs[0]["fingerprint"] if seqs else None,
            "elapsed_s": time.perf_counter() - t0}


# Timings are built from each command's median speed-scaled time over the
# run's untraced sequences (see ``speed_scaled``).
TIMINGS = ("wall_s", "train_samples_per_s", "prune_s", "analyze_s")


def summarize(res: dict, workload, trace: bool) -> dict:
    """Metric name -> value for the requested mode; None where no sequence
    produced the metric."""
    plain = [s for s in res["sequences"] if not s["traced"]]
    if not trace:
        out = {"setup_s": statistics.median(res["setup_s"])}
        scaled = {c: statistics.median(s["scaled"][c] for s in plain)
                  for c in COMMANDS} if plain else None
        out.update(timings(scaled, workload) if scaled
                   else dict.fromkeys(TIMINGS))
        for name in END_TO_END:
            if name not in out:
                vals = [s["e2e"][name] for s in plain if name in s["e2e"]]
                out[name] = statistics.median(vals) if vals else None
        return out
    # every per-layer figure comes from one sequence, the fastest traced one,
    # so shares and totals stay consistent with each other
    traced = [s for s in res["sequences"] if s["traced"]]
    fastest = min(traced, key=lambda s: s["wall"]) if traced else None
    out = {name: fastest["layers"][name] if fastest else None
           for name in PER_LAYER if name != "trace.overhead_s"}
    out["trace.overhead_s"] = fastest["wall"] - min(s["wall"] for s in plain) \
        if fastest and plain else None
    return out


def report(res: dict, metrics: dict, units: dict, workload) -> None:
    seqs = res["sequences"]
    plain = [s for s in seqs if not s["traced"]]
    attempted = len(res["checks"])
    print(f"workload {res['workload']} seed {res['seed']}: {len(seqs)} "
          f"sequences ({len(seqs) - len(plain)} traced) in "
          f"{res['elapsed_s']:.1f} s, closed loop, one client")
    print(f"fingerprint {res['workload']} seed {res['seed']}: "
          f"{res['fingerprint']}")
    for name, detail in ((c[0], c[2]) for c in res["failed"]):
        print(f"  FAILED {name}: {detail}")
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        note = ""
        if name in TIMINGS and plain:
            raw = timings({c: statistics.median(s["commands"][c]["wall"]
                                                for s in plain)
                           for c in COMMANDS}, workload)[name]
            note = (f"  (median of each command over {len(plain)} sequences "
                    f"at reference speed; unscaled {raw:.6g})")
        elif name == "setup_s":
            note = (f"  (median of {len(res['setup_s'])} at reference "
                    f"speed; unscaled {statistics.median(res['setup_raw']):.6g})")
        print(f"  {name:38s} {shown:>16s} {units[name]}{note}")
    print(f"  {'error_rate':38s} {len(res['failed']) / max(attempted, 1):>16.6g}"
          f" fraction ({len(res['failed'])} failed of {attempted} attempted)")


def layer_coverage_errors(metrics: dict) -> list[str]:
    """Per-layer metrics of a smoke run that read 0 (or nothing) on a
    workload running that layer, or non-zero on one that does not run it."""
    errors = []
    for w in WORKLOADS.values():
        for name in PER_LAYER:
            if name == "trace.overhead_s":
                continue
            value = metrics.get(f"{w.name}:{name}")
            runs = w.model == "lenet5" or name not in CONV_ONLY
            if runs and not value:
                errors.append(f"{w.name}: {name} is {value}, yet the layer "
                              f"runs")
            elif not runs and value != 0:
                errors.append(f"{w.name}: {name} is {value}, yet only "
                              f"LeNet-5 runs the layer")
    return errors


def result_line(results: list, metrics: dict) -> str:
    attempted = sum(len(r["checks"]) for r in results)
    failed = sum(len(r["failed"]) for r in results)
    units = {**END_TO_END, **PER_LAYER}
    return json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name.split(":")[-1]]}
                    for name, v in metrics.items()},
    })


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="all workloads at tiny sizes, one sequence per "
                        "mode; fails unless every metric is printed, "
                        "every layer a workload runs reads non-zero and "
                        "no check fails")
    args = p.parse_args(argv)
    if not (SRC / "prune_relief" / "cli.py").is_file():
        print(f"perfbench: no prune_relief sources at {SRC}; run it from the "
              f"root of a repository checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    # pin before numpy is first imported in this process (checks, idxgen);
    # the commands inherit the pinning
    os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    print("env:", json.dumps(environment(args.seed), sort_keys=True))

    if args.smoke:
        plan = [(SMOKE[n], t) for n in WORKLOADS for t in (False, True)]
        seconds = 0.0
    else:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        plan = [(WORKLOADS[n], bool(args.trace)) for n in names]
        seconds = args.seconds
    shutil.rmtree(WORK, ignore_errors=True)
    results, metrics = [], {}
    try:
        for workload, trace in plan:
            res = measure(workload, args.seed, seconds, trace, env)
            shutil.rmtree(WORK, ignore_errors=True)
            got = summarize(res, workload, trace)
            report(res, got, {**END_TO_END, **PER_LAYER}, workload)
            results.append(res)
            single = len(plan) == 1
            metrics.update({(k if single else f"{workload.name}:{k}"): v
                            for k, v in got.items()})
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    line = result_line(results, metrics)
    if args.smoke:
        missing = [n for n in (*END_TO_END, *PER_LAYER)
                   if not any(k.endswith(f":{n}") for k in metrics)]
        wrong = layer_coverage_errors(metrics)
        if missing:
            print(f"perfbench: smoke run printed no {missing}")
        for error in wrong:
            print(f"perfbench: {error}")
        print(line)
        return 0 if not missing and not wrong \
            and json.loads(line)["failed"] == 0 else 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
