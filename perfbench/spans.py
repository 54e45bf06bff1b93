"""Spans around germlin's public entry points, recorded from outside the
program.

``Tracer.install()`` replaces each boundary below with a wrapper under every
name it is reachable by: each module-level name in every loaded ``germlin``
module that holds the original function (``certify`` is also
``germlin.cli.certify``, ``jet_compose`` also ``germlin.germs.jet_compose``),
and the class attribute for methods.  ``uninstall()`` puts the originals back.

A span is (name, start, end, parent span, job id), kept in flat arrays and
written out at the end.  Self time is a span's duration minus that of its
direct child spans.  ``CycloElem`` arithmetic is not wrapped: it runs
hundreds of thousands of times per job, so the kernel probes time it instead.
``germlin.affine`` is reached by no CLI command and no workload and has no
boundary here.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

import germlin.cli
import germlin.expressions
import germlin.germs
import germlin.group_cert
import germlin.jets
import germlin.linearizer
import germlin.pforms
import germlin.registry

# (owner, attribute, span name).  Owner is a module (every alias of the
# function is patched) or a class (the attribute itself is patched).
BOUNDARIES = (
    (germlin.cli, "main", "cli.main"),
    (germlin.registry, "build_group_example", "registry.build"),
    (germlin.registry, "build_form_example", "registry.build"),
    (germlin.expressions, "series_from_string", "expressions.series"),
    (germlin.group_cert, "certify", "group_cert.certify"),
    (germlin.group_cert, "search_conjugator", "group_cert.search"),
    (germlin.group_cert, "check_conjugacy_witness", "group_cert.witness_check"),
    (germlin.group_cert, "check_product_identity", "group_cert.product_check"),
    (germlin.jets.RightComposer, "__init__", "group_cert.composer_build"),
    (germlin.jets.RightComposer, "__call__", "jets.right_compose"),
    (germlin.jets, "jet_compose", "jets.compose"),
    (germlin.jets, "jet_comp_inverse", "jets.comp_inverse"),
    (germlin.germs, "evaluate_word", "germs.evaluate_word"),
    (germlin.linearizer, "linearize", "linearizer.linearize"),
    (germlin.pforms, "integrability_check", "pforms.integrability"),
    (germlin.pforms, "meromorphic_first_integral_check", "pforms.first_integral"),
    (germlin.pforms, "first_integral_check", "pforms.first_integral"),
    (germlin.pforms, "tangent_cone", "pforms.cone"),
    (germlin.pforms, "blowup_chart_pullback", "pforms.pullback"),
    (germlin.pforms, "wedge", "pforms.wedge"),
    (germlin.pforms.MultiPoly, "__mul__", "pforms.poly_mul"),
    (germlin.pforms.MultiPoly, "__rmul__", "pforms.poly_mul"),
)

JOB_SPAN = "bench.job"


class Tracer:
    def __init__(self):
        self.names: list[str] = [JOB_SPAN]
        self.name_id = {JOB_SPAN: 0}
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.stack: list[int] = []
        self.job_id = -1
        # counts read from return values, by span name
        self.search_hits = 0
        self.steps_conjugated = 0
        self.terms_out = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def run_job(self, job_id: int, fn):
        """Run one job inside a root span."""
        self.job_id = job_id
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _wrap(self, fn, name: str):
        name_id = self._id(name)
        hook = _HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -----------------------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "germlin"]
        for owner, attr, name in BOUNDARIES:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            if isinstance(owner, type):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis -------------------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.name)
        child = [0.0] * n
        for idx in range(n):
            p = self.parent[idx]
            if p >= 0:
                child[p] += self.end[idx] - self.start[idx]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for idx in range(n):
            entry = out[self.names[self.name[idx]]]
            dur = self.end[idx] - self.start[idx]
            entry["calls"] += 1
            entry["s"] += dur
            entry["self_s"] += dur - child[idx]
        return out

    def calls_under(self, inner: str, outer: str) -> int:
        """Spans named ``inner`` that have an ``outer`` span among their ancestors."""
        inner_id, outer_id = self.name_id.get(inner), self.name_id.get(outer)
        n = len(self.name)
        under = bytearray(n)
        count = 0
        for idx in range(n):
            p = self.parent[idx]
            if p >= 0 and (under[p] or self.name[p] == outer_id):
                under[idx] = 1
                if self.name[idx] == inner_id:
                    count += 1
        return count

    def write(self, path: str) -> None:
        """All spans as gzipped tab-separated lines:
        index, name, start, end, parent, job."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("index\tname\tstart\tend\tparent\tjob\n")
            for idx in range(len(self.name)):
                fh.write(
                    f"{idx}\t{self.names[self.name[idx]]}\t{self.start[idx]:.9f}\t"
                    f"{self.end[idx]:.9f}\t{self.parent[idx]}\t{self.job[idx]}\n"
                )


def _search_hook(tracer: Tracer, result) -> None:
    if result is not None:
        tracer.search_hits += 1


def _linearize_hook(tracer: Tracer, result) -> None:
    tracer.steps_conjugated += sum(1 for s in result.steps if s.action == "conjugated")


def _poly_mul_hook(tracer: Tracer, result) -> None:
    if result is not NotImplemented:
        tracer.terms_out += len(result.terms)


_HOOKS = {
    "group_cert.search": _search_hook,
    "linearizer.linearize": _linearize_hook,
    "pforms.poly_mul": _poly_mul_hook,
}


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, per job where a total."""
    t = tracer.totals()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def get(name: str) -> dict:
        return t.get(name, empty)

    per = 1.0 / jobs
    searches = get("group_cert.search")["calls"]
    out: dict[str, tuple[float, str]] = {
        "cli.main.self_s": (get("cli.main")["self_s"] * per, "s/job"),
        "registry.build.s": (get("registry.build")["s"] * per, "s/job"),
        "expressions.series.calls": (get("expressions.series")["calls"] * per, "calls/job"),
        "expressions.series.s": (get("expressions.series")["s"] * per, "s/job"),
        "group_cert.certify.s": (get("group_cert.certify")["s"] * per, "s/job"),
        "group_cert.search.calls": (searches * per, "calls/job"),
        "group_cert.search.s": (get("group_cert.search")["s"] * per, "s/job"),
        "group_cert.search.hit_ratio": (
            tracer.search_hits / searches if searches else 0.0,
            "ratio",
        ),
        "group_cert.search.compose_per_call": (
            tracer.calls_under("jets.right_compose", "group_cert.search") / searches
            if searches
            else 0.0,
            "calls/search",
        ),
        "group_cert.witness_check.s": (get("group_cert.witness_check")["s"] * per, "s/job"),
        "group_cert.product_check.s": (get("group_cert.product_check")["s"] * per, "s/job"),
        "group_cert.composer_build.calls": (
            get("group_cert.composer_build")["calls"] * per,
            "calls/job",
        ),
        "group_cert.composer_build.s": (get("group_cert.composer_build")["s"] * per, "s/job"),
    }
    for metric, span in (
        ("jets.right_compose", "jets.right_compose"),
        ("jets.compose", "jets.compose"),
        ("jets.comp_inverse", "jets.comp_inverse"),
        ("germs.evaluate_word", "germs.evaluate_word"),
        ("linearizer.linearize", "linearizer.linearize"),
    ):
        out[f"{metric}.calls"] = (get(span)["calls"] * per, "calls/job")
        out[f"{metric}.self_s"] = (get(span)["self_s"] * per, "s/job")
    out["linearizer.steps_conjugated"] = (tracer.steps_conjugated * per, "steps/job")
    for metric, span in (
        ("pforms.integrability.s", "pforms.integrability"),
        ("pforms.first_integral.s", "pforms.first_integral"),
        ("pforms.cone.s", "pforms.cone"),
        ("pforms.pullback.s", "pforms.pullback"),
    ):
        out[metric] = (get(span)["s"] * per, "s/job")
    out["pforms.wedge.calls"] = (get("pforms.wedge")["calls"] * per, "calls/job")
    out["pforms.poly_mul.calls"] = (get("pforms.poly_mul")["calls"] * per, "calls/job")
    out["pforms.poly_mul.terms_out"] = (tracer.terms_out * per, "terms/job")
    return out


def self_time_shares(tracer: Tracer) -> list[tuple[str, float, float]]:
    """(span name, self seconds, share of all job time), largest first."""
    t = tracer.totals()
    total = t[JOB_SPAN]["s"] or 1.0
    rows = [(name, v["self_s"], v["self_s"] / total) for name, v in t.items() if v["calls"]]
    return sorted(rows, key=lambda r: -r[1])
