"""One pass of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N \
        --mode setup|pass|traced --run-id ID

The worker imports ``ncpoly`` from ``DIR/src``, builds the workload's inputs
and writes a ``ready`` line with its set-up time: the time since
``--spawned-at`` (a ``time.monotonic()`` reading taken just before the worker
was started), in calibrated seconds (see ``clock.py``).  In mode ``setup`` it
stops there.  Otherwise it runs every operation once, writes one line per
operation and a closing ``done`` line.  Every line is one JSON object on
stdout.  Times of operations and passes are read from a ``SpeedClock``.

Mode ``traced`` wraps the public functions named in ``TRACED`` with spans.
Spans stay in memory until the pass ends; then they are written to
``DIR/.perfbench_out/trace-ID.json`` and reduced to per-layer self times and
counts.  In every mode the memoized queries are wrapped by a guard that fails
an operation which repeats an input already queried in this process.
"""

import argparse
import json
import resource
import sys
import time
from collections import Counter
from functools import wraps
from pathlib import Path

import clock

# Public functions that get a span in a traced pass: those with a per-layer
# ``<name>.s`` metric (their self time), and the other functions the
# workloads call directly, so that spans cover the driver's every call.
TRACED = (
    "deformed.choose_epsilon",
    "deformed.cube_vertices_labeled",
    "deformed.project_last",
    "deformed.shadow_incidence",
    "polytope.facets_from_vrep",
    "polytope.face_lattice",
    "polytope.f_vector",
    "polytope.is_cubical",
    "gale.facets_gale",
    "gale.facet_vertex_label_sets",
    "gale.f_formula",
    "gale.alpha_is_positive_circuit",
    "skeleton.verify_skeleton_equivalence",
    "skeleton.dehn_sommerville_check",
    "skeleton.upper_face_subdivision",
    "classify.verify_ambiguity_witnesses",
    "classify.first_construction",
    "classify.ubc_polytope_case",
    "classify.pklm_sphere",
    "surgery.build_psi",
    "surgery.verify_sphere_like",
    "surgery.intersection_lemma_check",
    "surgery.chain_edge_facet_degrees",
    "classify.pklm_fvector",
    "cyclic.positive_cocircuit_facets",
    "cyclic.gale_evenness_facets",
    "cyclic.cyclic_configuration",
    "cyclic.cyclic_facet_count",
    "cli.main",
)

# Work counts, derived from each traced call's arguments and output.
COUNTS = {
    "deformed.choose_epsilon": lambda args, out: {
        "deformed.eps_halvings": out.denominator.bit_length() - 1
    },
    "deformed.cube_vertices_labeled": lambda args, out: {
        "deformed.cube_vertices": len(out.points)
    },
    "polytope.facets_from_vrep": lambda args, out: {
        "polytope.hull_points": len(args[0].points),
        "polytope.hull_facets": out.facet_count,
    },
    "gale.facets_gale": lambda args, out: {"gale.facets": len(out)},
    "gale.alpha_is_positive_circuit": lambda args, out: {"gale.circuit_tests": 1},
}
COUNT_NAMES = (
    "deformed.eps_halvings",
    "deformed.cube_vertices",
    "polytope.hull_points",
    "polytope.hull_facets",
    "polytope.faces",
    "gale.facets",
    "gale.circuit_tests",
)

# Memoized queries: the key under which the library would serve a repeat.
GUARDED = {
    "deformed.choose_epsilon": lambda n, d: (n, d),
    "deformed.projected_cube": lambda n, d, epsilon=None: (n, d, epsilon),
    "polytope.facets_from_vrep": lambda v: (v.dim, v.points),
}


class IsolationError(RuntimeError):
    """An input was queried twice in one process, so a cache could answer."""


class Tracer:
    """Spans (name, start, end, parent) of one pass, kept in memory."""

    def __init__(self, run_id, now):
        self.run_id = run_id
        self.now = now
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.lattices = {}

    def wrap(self, name, fn):
        spans, stack, counts, now = self.spans, self.stack, self.counts, self.now
        count = COUNTS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = now()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, now(), parent)
                stack.pop()
            if count is not None:
                counts.update(count(args, out))
            elif name == "polytope.face_lattice":
                self.count_faces(args, kwargs, out)
            return out

        return traced

    def count_faces(self, args, kwargs, lattice):
        """Faces of each incidence structure's full lattice, counted once."""
        inc = args[0]
        if len(args) > 1 or "up_to_dim" in kwargs or id(inc) in self.lattices:
            return
        self.lattices[id(inc)] = inc  # holds inc, so its id stays unique
        self.counts["polytope.faces"] += sum(len(faces) for faces in lattice.values())

    def summary(self, pass_s):
        """Per-layer self seconds and counts, and the share of the pass
        covered by spans around the driver's own calls."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy = dict.fromkeys((f"{name}.s" for name in TRACED), 0.0)
        covered = 0.0
        for (name, start, end, parent), inner in zip(self.spans, child):
            busy[f"{name}.s"] += end - start - inner
            if parent < 0:
                covered += end - start
        out = {name: self.counts[name] for name in COUNT_NAMES}
        out.update(busy)
        out["trace_coverage"] = covered / pass_s
        return out

    def write(self, path):
        path.parent.mkdir(exist_ok=True)
        rows = [[name, start, end, parent, self.run_id] for name, start, end, parent in self.spans]
        fields = ["name", "start", "end", "parent", "run_id"]
        path.write_text(json.dumps({"fields": fields, "spans": rows}))


def guard(key, fn, seen):
    @wraps(fn)
    def guarded(*args, **kwargs):
        k = (fn, key(*args, **kwargs))
        if k in seen:
            raise IsolationError(f"{fn.__module__}.{fn.__name__} queried twice with {k[1]!r}"[:300])
        seen.add(k)
        return fn(*args, **kwargs)

    return guarded


def instrument(tracer):
    """Replace each guarded or traced function in every ``ncpoly`` module
    that binds it, so calls from inside the library are seen too."""
    seen = set()
    for qualname in set(GUARDED) | set(TRACED if tracer else ()):
        modname, attr = qualname.split(".")
        original = getattr(sys.modules[f"ncpoly.{modname}"], attr)
        replacement = original
        if qualname in GUARDED:
            replacement = guard(GUARDED[qualname], replacement, seen)
        if tracer is not None and qualname in TRACED:
            replacement = tracer.wrap(qualname, replacement)
        for name, module in list(sys.modules.items()):
            if name == "ncpoly" or name.startswith("ncpoly."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, replacement)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()
    proto = sys.stdout

    def emit(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import ncpoly

    if not Path(ncpoly.__file__).resolve().is_relative_to(src):
        sys.exit(f"ncpoly was imported from {ncpoly.__file__}, not from {src}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    ops = workloads.WORKLOADS[args.workload](args.seed)
    setup_wall_s = time.monotonic() - args.spawned_at
    emit({"ready": clock.calibrated_seconds(setup_wall_s), "ops": len(ops)})
    if args.mode == "setup":
        return

    speed = clock.SpeedClock()
    tracer = Tracer(args.run_id, speed.now) if args.mode == "traced" else None
    instrument(tracer)
    speed.start()
    wall = time.perf_counter()
    start = speed.now()
    for op in ops:
        t0 = speed.now()
        error = None
        try:
            op.run()
        except Exception as exc:  # the run goes on; the failure is counted
            error = f"{type(exc).__name__}: {exc}"[:500]
        emit({"op": op.name, "ok": error is None, "error": error, "s": speed.now() - t0})
    pass_s = speed.now() - start
    wall = time.perf_counter() - wall
    speed.stop()
    done = {
        "done": True,
        "pass_s": pass_s,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.write(args.root / ".perfbench_out" / f"trace-{args.run_id}.json")
        done["layers"] = tracer.summary(pass_s)
    emit(done)


if __name__ == "__main__":
    main()
