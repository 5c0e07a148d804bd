"""Benchmark driver for ncpoly.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass of the workload runs in a fresh
worker process (``worker.py``), one after another: one client, a closed loop.
A fresh process per pass keeps the library's memo caches from answering a
query that an earlier pass already made.  Passes continue while the next one
is expected to end within ``--seconds``; there is always at least one.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.  The last line of stdout is the result as one JSON
object; a summary goes to stderr.  Without a result line the exit code is
not 0 (for example when ``src/ncpoly`` is missing).
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

RUN_LIMIT_S = 150  # a worker still running this long after the run started is killed
SETUP_PROBES = 9

PER_LAYER = {
    "deformed.choose_epsilon.s": "s",
    "deformed.eps_halvings": "count",
    "deformed.cube_vertices_labeled.s": "s",
    "deformed.project_last.s": "s",
    "deformed.cube_vertices": "count",
    "deformed.shadow_incidence.s": "s",
    "polytope.facets_from_vrep.s": "s",
    "polytope.hull_points": "count",
    "polytope.hull_facets": "count",
    "polytope.face_lattice.s": "s",
    "polytope.f_vector.s": "s",
    "polytope.is_cubical.s": "s",
    "polytope.faces": "count",
    "gale.facets_gale.s": "s",
    "gale.facet_vertex_label_sets.s": "s",
    "gale.f_formula.s": "s",
    "gale.alpha_is_positive_circuit.s": "s",
    "gale.facets": "count",
    "gale.circuit_tests": "count",
    "skeleton.verify_skeleton_equivalence.s": "s",
    "skeleton.dehn_sommerville_check.s": "s",
    "skeleton.upper_face_subdivision.s": "s",
    "classify.verify_ambiguity_witnesses.s": "s",
    "classify.first_construction.s": "s",
    "classify.ubc_polytope_case.s": "s",
    "classify.pklm_sphere.s": "s",
    "surgery.build_psi.s": "s",
    "surgery.verify_sphere_like.s": "s",
    "surgery.intersection_lemma_check.s": "s",
    "cyclic.positive_cocircuit_facets.s": "s",
    "cyclic.gale_evenness_facets.s": "s",
    "cli.main.s": "s",
    "trace_coverage": "ratio",
    "trace_overhead_s": "s",
}


def spawn(args, mode, run_id, timeout):
    """Run one worker; return (protocol lines, wall seconds, finished)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(WORKER), "--root", str(ROOT), "--workload", args.workload,
        "--seed", str(args.seed), "--mode", mode, "--run-id", run_id,
        "--spawned-at", repr(t0),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 0.1))
        finished = proc.returncode == 0
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        finished = False
    wall = time.monotonic() - t0
    lines = []
    for text in out.splitlines():
        try:
            lines.append(json.loads(text))
        except json.JSONDecodeError:  # a line cut short by the kill
            break
    return lines, wall, finished


def setup_seconds(args, run_start):
    """Calibrated seconds from spawning a worker until it is ready to issue
    its first operation, and its operation count; (None, None) when it never
    gets there."""
    timeout = RUN_LIMIT_S - (time.monotonic() - run_start)
    lines, _, finished = spawn(args, "setup", "setup", timeout)
    if not (finished and lines and "ready" in lines[0]):
        return None, None
    return lines[0]["ready"], lines[0]["ops"]


def run_pass(args, mode, index, op_count, run_start):
    run_id = f"{args.workload}-seed{args.seed}-pass{index}"
    timeout = RUN_LIMIT_S - (time.monotonic() - run_start)
    lines, wall, finished = spawn(args, mode, run_id, timeout)
    ops = [line for line in lines if "op" in line]
    done = lines[-1] if finished and lines and lines[-1].get("done") else None
    return {
        "mode": mode,
        "wall": wall,
        "done": done,
        "attempted": op_count,
        "failed": op_count - sum(1 for op in ops if op["ok"]),
        "errors": [f"{op['op']}: {op['error']}" for op in ops if not op["ok"]],
        "pass_s": done["pass_s"] if done else wall,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    run_start = time.monotonic()

    # The first worker also compiles bytecode, so it is not a setup sample.
    _, op_count = setup_seconds(args, run_start)
    if op_count is None:
        print(f"perfbench: workload {args.workload!r} could not be set up", file=sys.stderr)
        return 1
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            seconds, _ = setup_seconds(args, run_start)
            if seconds is None:
                print("perfbench: a setup probe failed", file=sys.stderr)
                return 1
            setups.append(seconds)

    passes = []
    measure_start = time.monotonic()
    while True:
        mode = "traced" if args.trace and len(passes) % 2 else "pass"
        p = run_pass(args, mode, len(passes), op_count, run_start)
        passes.append(p)
        if p["done"] is None:
            break
        elapsed = time.monotonic() - measure_start
        need_traced = args.trace and len(passes) < 2
        if not need_traced and elapsed + p["wall"] > args.seconds:
            break

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    untraced = [p["pass_s"] for p in passes if p["mode"] == "pass"]
    if args.trace:
        traced = [p for p in passes if p["mode"] == "traced" and p["done"]]
        values = {}
        if traced:
            layers = [p["done"]["layers"] for p in traced]
            values = {name: median(layer[name] for layer in layers) for name in layers[0]}
            values["trace_overhead_s"] = median(p["pass_s"] for p in traced) - median(untraced)
        metrics = {
            name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER.items()
        }
    else:
        peak_rss = max(p["done"]["peak_rss_mb"] if p["done"] else 0.0 for p in passes)
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "pass_s": {"value": median(untraced), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MiB"},
        }

    pass_s = [round(p["pass_s"], 4) for p in passes]
    wall_s = [round(p["done"]["wall_s"] if p["done"] else p["wall"], 4) for p in passes]
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(passes)} passes, pass_s={pass_s}, wall_s={wall_s}, "
        f"setup_s samples={len(setups)}, fail_rate={failed / attempted:.4f} ({failed}/{attempted})",
        file=sys.stderr,
    )
    for p in passes:
        for error in p["errors"]:
            print(f"  failed {error}", file=sys.stderr)
    correct = failed == 0 and all(p["done"] for p in passes)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
