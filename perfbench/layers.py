"""Per-layer metrics computed from the spans of a traced pass.

Every metric is computed on every workload; one a workload does not
exercise reads 0.  ``*_per_item`` counts divide by the traced pass's work
items: requested quadruples, sweep rows or verify suites.
"""

from __future__ import annotations

import numpy as np

from workloads import directed_time_frac

KERNELS = ("disc_distance", "ball_distance", "polydisc_distance", "polydisc_axis",
           "tetra_pair_distance")
SAMPLE_LABELS = ("disc", "ball", "polydisc", "tetra", "directed")
FAMILY_SPANS = {
    "tetra": ("witnesses.tetra_witness", None),
    "gn": ("witnesses.gn_witness", None),
    "product": ("witnesses.product_witness", None),
    "hinge": ("witnesses.hinge_witness", None),
    "flat_exp": ("witnesses.flat_witness", "flat_exp"),
    "flat_quartic": ("witnesses.flat_witness", "flat_quartic"),
}
CONVEX_CALLS = ("lb_crossing_split", "ub_slice_discs", "ub_interior_ball",
                "TangentHalfspaceCert.verify")
DOMAIN_METHODS = ("boundary_distance_bracket", "cheap_boundary_lower", "ub_euclidean_chain")
SUITES = ("exact-anchors", "conformal-consistency", "metric-axioms", "symmetrized-bidisc",
          "tetrablock", "product", "bound-sandwich", "tangent-certs", "disc-pointwise",
          "interior-ball", "witness-divergence", "determinism")
ERRORS = ("exact.errors.OracleError", "convex.errors.CertificateError", "errors.other")


class Spans:
    def __init__(self, tracer):
        a = tracer.arrays()
        self.name, self.parent, self.dur, self.self_ns = a["name"], a["parent"], a["dur"], a["self"]
        labels = np.array(tracer.unit_labels + [""])
        self.label = labels[a["unit"]]  # unit -1 (outside any unit) reads ""
        self.ids = {n: i for i, n in enumerate(tracer.names)}
        self.tags = tracer.tags

    def mask(self, name, label=None, tag=None):
        m = self.name == self.ids.get(name, -1)
        if label is not None:
            m &= self.label == label
        if tag is not None:
            idx = np.flatnonzero(m)
            m[idx] = [self.tags.get(i) == tag for i in idx]
        return m

    def mean(self, mask, values=None) -> float:
        n = int(mask.sum())
        return float((self.dur if values is None else values)[mask].sum()) / n if n else 0.0

    def tag_sum(self, mask) -> float:
        return float(sum(self.tags[i] for i in np.flatnonzero(mask)))


def per_layer(tracer, untraced_units, traced_units, overhead_frac) -> dict[str, float]:
    s = Spans(tracer)
    items = sum(u.work for u in traced_units)
    v: dict[str, float] = {}

    for k in KERNELS:
        m = s.mask(f"exact.{k}")
        v[f"exact.{k}.ns_per_call"] = s.mean(m)
        v[f"exact.{k}.calls_per_item"] = m.sum() / items

    est = s.mask("core.estimate_delta")
    for label in SAMPLE_LABELS:
        m = s.mask("core.estimate_delta", label=label)
        quads = s.tag_sum(m)
        v[f"core.estimate_delta.us_per_quad.{label}"] = (
            float(s.dur[m].sum()) / quads / 1e3 if quads else 0.0)
    # core's own share of the loop: estimate_delta and four_point_defect
    # self time, against the whole estimate_delta span
    fpd = s.mask("core.four_point_defect") & np.isin(s.parent, np.flatnonzero(est))
    est_ns = float(s.dur[est].sum())
    v["core.estimate_delta.self_frac"] = (
        (float(s.self_ns[est].sum()) + float(s.self_ns[fpd].sum())) / est_ns if est_ns else 0.0)

    run_sample = s.mask("cli.run_sample")
    requested = s.tag_sum(run_sample)
    under_sample = est & np.isin(s.parent, np.flatnonzero(run_sample))
    v["cli.run_sample.evaluated_per_requested"] = (
        s.tag_sum(under_sample) / requested if requested else 0.0)
    v["cli.run_sample.self_ms"] = s.mean(run_sample, s.self_ns) / 1e6
    v["cli.run_sample.directed_time_frac"] = directed_time_frac(untraced_units)

    for k in ("gn_lower_bound", "gn_upper_bound"):
        m = s.mask(f"exact.{k}")
        v[f"exact.{k}.ms_per_call"] = s.mean(m) / 1e6
        v[f"exact.{k}.calls_per_item"] = m.sum() / items

    for family, (span, tag) in FAMILY_SPANS.items():
        m = s.mask(span, tag=tag)
        v[f"witnesses.{family}.ms_per_row"] = s.mean(m) / 1e6
        v[f"witnesses.{family}.self_ms"] = s.mean(m, s.self_ns) / 1e6

    for k in CONVEX_CALLS:
        v[f"convex.{k}.ms_per_call"] = s.mean(s.mask(f"convex.{k}")) / 1e6
    for k in DOMAIN_METHODS:
        m = s.mask(f"convex.ModelDomain.{k}")
        v[f"convex.ModelDomain.{k}.us_per_call"] = s.mean(m) / 1e3
        v[f"convex.ModelDomain.{k}.calls_per_item"] = m.sum() / items
    for k in ("sample_interior", "curvature_margin"):
        v[f"models.{k}.ms_per_call"] = s.mean(s.mask(f"models.{k}")) / 1e6

    for suite in SUITES:
        v[f"verify.{suite}.ms"] = s.mean(s.mask("verify.suite_" + suite.replace("-", "_"))) / 1e6
    v["witnesses.claims_check.ms_per_call"] = s.mean(s.mask("witnesses.claims_check")) / 1e6

    run_sweep = s.mask("cli.run_sweep")
    rows = s.tag_sum(run_sweep)
    v["cli.run_sweep.self_ms_per_row"] = (
        float(s.self_ns[run_sweep].sum()) / rows / 1e6 if rows else 0.0)

    for bucket in ERRORS:
        v[bucket] = tracer.errors.get(bucket, 0) / items
    v["failed_frac"] = sum(not u.ok for u in untraced_units) / len(untraced_units)
    v["trace.overhead_frac"] = overhead_frac
    return v
