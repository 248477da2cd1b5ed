"""Spans timed from outside the program, and the traced pipeline.

Primary spans come from ``recompose``, which rebuilds ``pipeline()`` from its
public steps and times each one.  Probe spans break a primary span down: they
come from wrappers that ``probes`` installs, for the duration of a traced
pass, on the module attributes through which the program calls its own
layers (``movsurf.basepoints.rank`` and so on).  Nothing is added to the
program itself; the wrappers are removed when the pass ends.

Spans carry a name, start, end, parent span id, job id and kind (job,
primary or probe), plus a few counts; they stay in memory until the run
writes them out.
"""

import time
from contextlib import contextmanager
from types import SimpleNamespace


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None

    @contextmanager
    def span(self, name, kind="probe", parent=None):
        if parent is None and self.stack:
            parent = self.stack[-1]
        rec = {"id": len(self.spans), "name": name, "kind": kind,
               "job": self.job, "parent": parent,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self.stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self.stack.pop()

    def bump(self, key, n=1):
        """Add n to a count on the innermost open span."""
        if self.stack:
            rec = self.spans[self.stack[-1]]
            rec[key] = rec.get(key, 0) + n

    def wrap(self, name, fn, annotate=None):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if annotate is not None:
                annotate(rec, out)
            return out
        return traced


def _max_bits(vectors):
    return max((abs(x.numerator).bit_length()
                for vec in vectors for x in vec), default=0)


def _saturation(rec, out):
    rec["member"] = out.member
    rec["power"] = out.power


def _cells(rec, out):
    rec["cells"] = out.rows * out.cols


def _kernel(rec, out):
    rec["max_bits"] = _max_bits(out.vectors)


# (module, attribute, span name, annotation)
PROBES = (
    ("basepoints", "check_independence", "basepoints.check_independence", None),
    ("basepoints", "base_point_summary", "basepoints.base_point_summary", None),
    ("basepoints", "hilbert_dim", "basepoints.hilbert_dim", None),
    ("basepoints", "saturation_member", "basepoints.saturation_member",
     _saturation),
    ("basepoints", "generic_change", "basepoints.generic_change", None),
    ("basepoints", "syz_dim_abc", "syzygy.syz_dim_abc", None),
    ("basepoints", "moving_planes", "syzygy.moving_planes", None),
    ("basepoints", "rank", "linalg.rank", None),
    ("syzygy", "quadric_map_matrix", "syzygy.quadric_map_matrix", _cells),
    ("syzygy", "kernel_basis", "linalg.kernel_basis", _kernel),
)


@contextmanager
def probes(tr, mods):
    """Install the probe wrappers, and a det_bareiss call counter, on mods."""
    saved = []

    def install(module, attr, replacement):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    try:
        for mod_name, attr, name, annotate in PROBES:
            module = getattr(mods, mod_name)
            install(module, attr, tr.wrap(name, getattr(module, attr),
                                          annotate))
        det = mods.implicitize.det_bareiss

        def counted_det(A):
            tr.bump("det_evals")
            return det(A)
        install(mods.implicitize, "det_bareiss", counted_det)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


@contextmanager
def timed_xpoly_evaluate(tr, mods):
    """Time XPoly.evaluate; used only around verification, where the only
    XPoly evaluated is the output polynomial."""
    cls = mods.ring.XPoly
    original = cls.evaluate
    cls.evaluate = tr.wrap("ring.XPoly.evaluate", original)
    try:
        yield
    finally:
        cls.evaluate = original


# Grid points (i, j, l) at which det_bareiss(M.evaluate((i, j, l, 1))) is
# timed after each determinant; all lie on the interpolation grid of any
# determinant of degree >= 3.
DET_SAMPLE = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
              (1, 1, 1), (2, 1, 0), (0, 2, 1), (1, 0, 2))


def recompose(tr, mods, phi, config):
    """pipeline(phi, config) rebuilt from its public steps, one primary span
    each.  Returns (report, result) or raises what pipeline() would raise."""
    bp, syz, imp = mods.basepoints, mods.syzygy, mods.implicitize

    def step(name, fn, *args, **kwargs):
        with tr.span(name, kind="primary") as rec:
            out = fn(*args, **kwargs)
        return rec, out

    rec, report = step("basepoints.check_all", bp.check_all, phi, config.check)
    rec["short_path"] = report.short_path
    if not report.all_passed and not config.force:
        raise imp.ConditionError("condition %s failed" % report.failure,
                                 report=report)
    if not config.assert_one_to_one and not config.force:
        raise imp.ConditionError("the construction needs a generically "
                                 "one-to-one map", report=report)
    phi_run = report.phi
    wdeg = phi_run.working_bidegree
    _, planes = step("syzygy.moving_planes", syz.moving_planes, phi_run)
    k = report.k if report.k is not None else planes.dim
    if planes.dim != k and not config.force:
        raise imp.ConditionError("moving-plane dimension %d disagrees with "
                                 "k = %d" % (planes.dim, k), report=report)
    k = planes.dim
    _, (echelon, pivots) = step("implicitize.echelon_plane_basis",
                                imp.echelon_plane_basis, planes, wdeg)
    _, quadrics = step("syzygy.moving_quadrics", syz.moving_quadrics, phi_run)
    _, (elements, columns, fallback) = step(
        "implicitize.quadric_basis_via_projection",
        imp.quadric_basis_via_projection, phi_run, pivots, quadrics=quadrics)
    _, rows = step("implicitize.select_quadric_rows", imp.select_quadric_rows,
                   elements, columns, pivots, wdeg, fallback)
    _, M = step("implicitize.assemble_M", imp.assemble_M, echelon, rows,
                pivots, wdeg)
    det_rec, raw = step("implicitize.det_poly", imp.det_poly, M,
                        config.det_backend)
    for i, j, l in DET_SAMPLE:
        with tr.span("linalg.det_point", parent=det_rec["id"]):
            mods.linalg.det_bareiss(M.evaluate((i, j, l, 1)))
    if raw.is_zero():
        raise imp.ConditionError("det M is identically zero", report=report)
    norm_rec, poly = step("implicitize.normalize", imp.normalize, raw)
    norm_rec["terms"] = len(poly.terms)
    norm_rec["max_bits"] = _max_bits([poly.terms.values()])
    with timed_xpoly_evaluate(tr, mods):
        _, record = step("implicitize.verify_polynomial", imp.verify_polynomial,
                         poly, phi_run, k, samples=config.samples,
                         seed=config.verify_seed, check_x3=not fallback)
    result = SimpleNamespace(polynomial=poly, k=k, verification=record,
                             phi=phi_run)
    if not record.ok and not config.force:
        raise imp.VerificationError("verification failed", record=record)
    return report, result


# ---------------------------------------------------------------------------
# per-layer metrics


def _dur(rec):
    return rec["end"] - rec["start"]


def layer_metrics(spans):
    """Per-layer sums over one traced pass (maxima for *_max_bits)."""
    by_id = {rec["id"]: rec for rec in spans}

    def named(name):
        return [rec for rec in spans if rec["name"] == name]

    def total(name):
        return sum(_dur(rec) for rec in named(name))

    def parent_name(rec):
        parent = by_id.get(rec["parent"])
        return parent["name"] if parent else None

    checks = named("basepoints.check_all")
    attempts = 0
    retry = 0.0
    for check in checks:
        children = [rec for rec in spans if rec["parent"] == check["id"]]
        changes = [rec for rec in children
                   if rec["name"] == "basepoints.generic_change"]
        attempts += 1 + len(changes)
        final_start = changes[-1]["end"] if changes else check["start"]
        final = sum(_dur(rec) for rec in children
                    if rec["start"] >= final_start)
        retry += _dur(check) - final
    sats = named("basepoints.saturation_member")
    quadric_kernels = [rec for rec in named("linalg.kernel_basis")
                       if parent_name(rec) == "syzygy.moving_quadrics"]
    det_spans = named("implicitize.det_poly")
    det_points = named("linalg.det_point")
    point_mean = (sum(_dur(rec) for rec in det_points) / len(det_points)
                  if det_points else 0.0)
    det_s = sum(_dur(rec) for rec in det_spans)
    # the evaluation share per job uses that job's own sample mean
    evals_time = 0.0
    for rec in det_spans:
        own = [_dur(p) for p in det_points if p["parent"] == rec["id"]]
        evals_time += rec.get("det_evals", 0) * sum(own) / len(own)
    return {
        "basepoints.check_all_s": total("basepoints.check_all"),
        "basepoints.independence_s": total("basepoints.check_independence"),
        "basepoints.hilbert_window_s": total("basepoints.base_point_summary"),
        "basepoints.abc_window_s": sum(
            _dur(rec) for rec in named("basepoints.hilbert_dim")
            if parent_name(rec) == "basepoints.check_all"),
        "basepoints.saturation_s": total("basepoints.saturation_member"),
        "basepoints.saturation_failed": sum(not rec["member"] for rec in sats),
        "basepoints.saturation_power": sum(rec["power"] or 0 for rec in sats),
        "basepoints.attempts": attempts,
        "basepoints.short_path_jobs": sum(rec["short_path"] for rec in checks),
        "basepoints.retry_s": retry,
        "syzygy.abc_syzygy_s": total("syzygy.syz_dim_abc"),
        "syzygy.moving_planes_s": total("syzygy.moving_planes"),
        "syzygy.moving_quadrics_s": total("syzygy.moving_quadrics"),
        "syzygy.quadric_map_s": total("syzygy.quadric_map_matrix"),
        "syzygy.quadric_map_cells": sum(
            rec["cells"] for rec in named("syzygy.quadric_map_matrix")),
        "linalg.rank_s": total("linalg.rank"),
        "linalg.quadric_kernel_s": sum(_dur(rec) for rec in quadric_kernels),
        "linalg.kernel_max_bits": max(
            (rec["max_bits"] for rec in quadric_kernels), default=0),
        "linalg.det_point_s": point_mean,
        "implicitize.echelon_s": total("implicitize.echelon_plane_basis"),
        "implicitize.projection_s": total(
            "implicitize.quadric_basis_via_projection"),
        "implicitize.assemble_s": total("implicitize.assemble_M"),
        "implicitize.det_s": det_s,
        "implicitize.det_grid_points": sum(
            rec.get("det_evals", 0) for rec in det_spans),
        "implicitize.det_eval_share": evals_time / det_s if det_s else 0.0,
        "implicitize.normalize_s": total("implicitize.normalize"),
        "implicitize.poly_terms": sum(
            rec["terms"] for rec in named("implicitize.normalize")),
        "implicitize.poly_max_bits": max(
            (rec["max_bits"] for rec in named("implicitize.normalize")),
            default=0),
        "implicitize.verify_s": total("implicitize.verify_polynomial"),
        "ring.xpoly_eval_s": total("ring.XPoly.evaluate"),
        "cli.load_jobspec_s": total("cli.load_jobspec"),
    }


def primary_total(spans):
    return sum(_dur(rec) for rec in spans if rec["kind"] == "primary")
