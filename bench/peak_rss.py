"""Per-command peak RSS and wall time of the benchmark's CLI sequences, from
a launcher that never imports NumPy.

    python3 bench/peak_rss.py --tree parent=PATH --tree change=. \\
        [--workload prune_sweep ...] [--seed 1 ...] [--repeats 3] [--out PATH]

Each ``--tree LABEL=PATH`` names a repository checkout; its ``src``, copied
into the work directory, is what the commands import. For every workload of
``perfbench/workloads.py`` (all three by default) and every ``--seed``
(repeatable; 1 by default) the script writes the workload's seeded IDX
files once, in a child process that imports ``perfbench/idxgen.py``, and
then runs ``train -> prune -> report -> scores -> bounds -> eval`` with that
seed once per tree per repeat, alternating which tree goes first. Each
command is its own process, with BLAS pinned to one thread, and its peak
RSS is ``ru_maxrss`` from ``os.wait4``. Its wall time runs from just
before the launch to the return of that ``os.wait4``, so it counts the
interpreter's start and exit as well as the command's work. On a shared host those seconds swing by 20-60% as
other tenants come and go, so, as ``perfbench/run.py`` does, the script
runs ``perfbench/reference.py`` (a fixed task of ~0.18 s) before each
command and after the last, and also records each command's wall time at
the reference speed, with ``perfbench/run.py``'s ``speed_scaled``. Each
command's peak RSS and raw and scaled wall seconds are recorded per
sequence (seeds times repeats), with their median and range per tree.

Each sequence's quality is recorded too: the post-retrain accuracy and the
remaining percentage of the last history line, as
``perfbench/checks.final_state`` reads them (``final_accuracy`` and
``remaining_pct`` in the benchmark). Per tree the result gives them per
seed with their mean, standard deviation and range over the seeds, so a
change that moves bits on purpose can show that quality stays within the
spread across seeds.

A child's ``ru_maxrss`` starts at the peak RSS of the process that launched
it, so a launcher that has imported NumPy (or generated data) lifts every
small command to its own peak. This one imports only the standard library,
``bench/harness.py`` and ``perfbench/run.py``, which load no NumPy, and
checks at the end that NumPy never got loaded; its own peak is recorded
next to the commands'.

Every sequence runs in its own directory under a private work directory
(``--work``, by default a fresh temporary directory, removed at the end),
with paths of the same length for every tree, so two runs of the script do
not collide and the trees see the same environment. For the same reason each
tree's ``src`` is copied to ``t00/src``, ``t01/src``, ... there: a command's
peak RSS moves by up to ~2 MB with the length of the path it imports its
sources from. The script also hashes everything the six commands write (the
run directory and each command's standard output) and records, per workload,
whether all trees wrote the same bytes for every seed.

The result, with the host record of ``harness.host``, goes to ``--out``
(by default ``bench/BENCH_peak_rss.json``). That record is taken in the
commands' environment, so its ``openblas_core`` names the kernel the
commands load. ``outputs_identical`` is a byte claim that holds for that
kernel: another kernel computes other bytes.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from checks import final_state  # noqa: E402
from run import (COMMANDS, REFERENCE, THREAD_VARS, cli_args,  # noqa: E402
                 speed_scaled)
from workloads import WORKLOADS  # noqa: E402

# run in a child, as it imports NumPy; prints the data paths as one JSON line
GENERATE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import idxgen
paths = idxgen.write_dataset(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]),
                             int(sys.argv[5]))
print(json.dumps({k: str(v) for k, v in paths.items()}))
"""


def run_child(argv, env, cwd, stdout):
    """Run ``argv`` to completion; returns (exit code, peak RSS in MB, wall
    seconds)."""
    with open(stdout, "wb") as out, open(f"{stdout}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, wall


def generate(workload, seed, data_dir, env):
    """Write the workload's data; returns its paths."""
    out = data_dir / "generate.json"
    code, _, _ = run_child([sys.executable, "-c", GENERATE, str(PERFBENCH),
                            str(data_dir), str(seed), str(workload.n_train),
                            str(workload.n_test)], env, data_dir, out)
    if code:
        raise SystemExit(f"data generation failed ({code}): "
                         f"{Path(f'{out}.err').read_text()}")
    return json.loads(out.read_text())


def tree_digest(seq_dir: Path) -> str:
    """sha256 over every file the sequence wrote, by relative path; the
    stderr logs are left out."""
    h = hashlib.sha256()
    for path in sorted(p for p in seq_dir.rglob("*") if p.is_file()
                       and not p.name.endswith(".err")):
        h.update(str(path.relative_to(seq_dir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_reference(ref_dir: Path, i: int, env) -> float:
    """Run reference.py once in ``ref_dir``; returns its wall seconds."""
    out = ref_dir / f"ref{i}.out"
    code, _, wall = run_child([sys.executable, str(REFERENCE)], env, ref_dir,
                              out)
    if code:
        raise SystemExit(f"reference.py exited {code}:\n"
                         f"{Path(f'{out}.err').read_text()}")
    return wall


def run_sequence(workload, config: Path, src: Path, seq_dir: Path, env):
    """One train..eval sequence in ``seq_dir`` on the sources in ``src``,
    with a reference run before each command and after the last; returns
    {command: peak RSS MB}, {command: wall seconds}, {command: wall seconds
    at reference speed}, the digest of what the commands wrote and the
    run's final (accuracy, remaining %)."""
    seq_dir.mkdir(parents=True)
    # the reference runs write next to the sequence, outside its digest
    ref_dir = seq_dir.with_name(f"{seq_dir.name}-ref")
    ref_dir.mkdir()
    cmd_env = dict(env, PYTHONPATH=str(src))
    rss, wall, refs = {}, {}, []
    for cmd in COMMANDS:
        refs.append(run_reference(ref_dir, len(refs), env))
        code, rss[cmd], wall[cmd] = run_child(
            [sys.executable, "-m", "prune_relief.cli",
             *cli_args(cmd, workload, str(config), "run")], cmd_env,
            seq_dir, seq_dir / f"{cmd}.out")
        if code:
            err = (seq_dir / f"{cmd}.out.err").read_text()
            raise SystemExit(f"{workload.name}: {cmd} on {src} exited "
                             f"{code}:\n{err}")
    refs.append(run_reference(ref_dir, len(refs), env))
    shutil.rmtree(ref_dir)
    final = final_state(seq_dir / "run")
    if final is None:
        raise SystemExit(f"{workload.name}: no final state in the history "
                         f"of {seq_dir / 'run'}")
    return rss, wall, speed_scaled(wall, refs), tree_digest(seq_dir), final


def summary(runs: list[dict], walls: list[dict], scaled: list[dict]) -> dict:
    """Median, min and max of each command's peak RSS and raw and scaled
    wall seconds over the repeats."""
    per = {c: [r[c] for r in runs] for c in COMMANDS}
    med = {c: statistics.median(v) for c, v in per.items()}
    per_wall = {c: [w[c] for w in walls] for c in COMMANDS}
    per_scaled = {c: [w[c] for w in scaled] for c in COMMANDS}
    return {"peak_rss_mb": per, "median_mb": med,
            "range_mb": {c: [min(v), max(v)] for c, v in per.items()},
            "peak_command": max(med, key=med.get),
            "sequence_peak_mb": statistics.median(max(r.values())
                                                  for r in runs),
            "wall_s": per_wall,
            "median_wall_s": {c: statistics.median(v)
                              for c, v in per_wall.items()},
            "range_wall_s": {c: [min(v), max(v)]
                             for c, v in per_wall.items()},
            "wall_scaled_s": per_scaled,
            "median_wall_scaled_s": {c: statistics.median(v)
                                     for c, v in per_scaled.items()},
            "range_wall_scaled_s": {c: [min(v), max(v)]
                                    for c, v in per_scaled.items()}}


def quality(finals: dict) -> dict:
    """Per seed, and mean, standard deviation and range over the seeds, of
    each final-state field; ``finals`` maps seed -> [(accuracy, remaining
    %) per repeat], which a fixed seed makes equal."""
    out = {}
    for i, key in enumerate(("final_accuracy", "remaining_pct")):
        per_seed = {seed: statistics.median(f[i] for f in runs)
                    for seed, runs in finals.items()}
        values = list(per_seed.values())
        out[key] = {"per_seed": per_seed, "mean": statistics.fmean(values),
                    "stdev": statistics.stdev(values) if len(values) > 1
                    else 0.0,
                    "range": [min(values), max(values)]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", type=harness.tree, action="append", required=True,
                   help="LABEL=PATH of a checkout to measure; repeatable")
    p.add_argument("--workload", action="append", choices=list(WORKLOADS),
                   help="workload to run; repeatable (default: all)")
    p.add_argument("--seed", type=harness.seed, action="append",
                   help="data and run seed; repeatable (default: 1)")
    p.add_argument("--repeats", type=harness.count, default=3)
    p.add_argument("--work", help="parent of the private work directory "
                                  "(default: the system's temporary one)")
    p.add_argument("--out", default=str(ROOT / "bench" / "BENCH_peak_rss.json"))
    args = p.parse_args(argv)
    trees = harness.distinct_trees(p, args.tree)
    names = args.workload or list(WORKLOADS)
    seeds = args.seed or [1]
    if len(set(seeds)) != len(seeds):
        p.error("seeds must be distinct")
    if args.work is not None and not Path(args.work).is_dir():
        p.error(f"--work {args.work} is not a directory")

    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    work = Path(tempfile.mkdtemp(prefix="peak_rss-", dir=args.work))
    result = {"host": harness.host(env), "seeds": seeds, "repeats": args.repeats,
              "commands": list(COMMANDS), "trees": list(trees),
              "workloads": {}}
    try:
        trees = {label: shutil.copytree(
                     src, work / f"t{t:02d}" / "src",
                     ignore=shutil.ignore_patterns("__pycache__"))
                 for t, (label, src) in enumerate(trees.items())}
        for name in names:
            workload = WORKLOADS[name]
            runs = {label: [] for label in trees}
            walls = {label: [] for label in trees}
            scaled = {label: [] for label in trees}
            digests = {label: {seed: set() for seed in seeds}
                       for label in trees}
            finals = {label: {seed: [] for seed in seeds} for label in trees}
            order = list(trees.items())
            for seed in seeds:
                # one data directory name for every seed: the same paths
                data_dir = work / name / "data"
                data_dir.mkdir(parents=True)
                paths = generate(workload, seed, data_dir, env)
                config = data_dir / "config.json"
                config.write_text(json.dumps(
                    workload.config(seed, paths), indent=2) + "\n")
                for rep in range(args.repeats):
                    for t, (label, src) in enumerate(order):
                        # equal-length names: the same environment for
                        # each tree
                        seq_dir = work / name / f"r{rep:02d}t{t:02d}"
                        rss, wall, at_ref, digest, final = run_sequence(
                            workload, config, src, seq_dir, env)
                        runs[label].append(rss)
                        walls[label].append(wall)
                        scaled[label].append(at_ref)
                        digests[label][seed].add(digest)
                        finals[label][seed].append(final)
                        shutil.rmtree(seq_dir)
                        print(f"{name} {label} seed {seed} repeat {rep}: "
                              f"accuracy {final[0]:.4f}, remaining "
                              f"{final[1]:.2f}%; " + ", ".join(
                                  f"{c} {v:.1f} MB {wall[c]:.3f} s "
                                  f"({at_ref[c]:.3f} scaled)"
                                  for c, v in rss.items()), flush=True)
                    order.reverse()
                shutil.rmtree(data_dir)
            result["workloads"][name] = {
                **{label: {**summary(r, walls[label], scaled[label]),
                           **quality(finals[label]),
                           "outputs_sha256": sorted(
                               set().union(*digests[label].values()))}
                   for label, r in runs.items()},
                "outputs_identical": all(
                    len(set().union(*(d[seed] for d in digests.values())))
                    == 1 for seed in seeds),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if "numpy" in sys.modules:
        raise SystemExit("the launcher imported NumPy; its peak RSS would "
                         "lift every command's")
    result["launcher_peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    for name, w in result["workloads"].items():
        for label in trees:
            s = w[label]
            print(f"{name} {label}: peak {s['sequence_peak_mb']:.1f} MB "
                  f"({s['peak_command']}); " + ", ".join(
                      f"{c} {v:.1f}" for c, v in s["median_mb"].items()))
            print(f"{name} {label}: median wall " + ", ".join(
                f"{c} {v:.3f} s" for c, v in s["median_wall_s"].items()))
            print(f"{name} {label}: median wall at reference speed " +
                  ", ".join(f"{c} {v:.3f} s"
                            for c, v in s["median_wall_scaled_s"].items()))
            print(f"{name} {label}: over {len(seeds)} seeds final accuracy "
                  f"{s['final_accuracy']['mean']:.4f} "
                  f"(sd {s['final_accuracy']['stdev']:.4f}), remaining "
                  f"{s['remaining_pct']['mean']:.2f}% "
                  f"(sd {s['remaining_pct']['stdev']:.2f})")
        print(f"{name}: outputs identical across trees: "
              f"{w['outputs_identical']}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
