"""Span recorder for the traced benchmark run.

The traced run wraps monodiv's public functions at each module boundary, by
patching the names as the calling module imported them (for example
``monodiv.newton.factor_mod_p``).  Every call becomes a span with a name, the
op id, its parent span, start and end.  Spans stay in memory until the run
ends; ``summarize`` then turns them into the per-layer metrics.  Untraced
runs never import this module.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict


def _fraction_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


def _factor_key(x, *args, **kwargs):
    return x


def _factor_bits(args, result) -> int:
    return abs(args[0]).bit_length()


def _mod_p_key(f, *args, **kwargs):
    return f.p, f.coeffs


def _torsion_key(curve, n, *args, **kwargs):
    return curve, n


def _torsion_bits(args, result) -> int:
    return _fraction_bits(result.poly)


# (module, attribute path, span name, repeat key, (size metric, size function))
PATCHES = (
    ("monodiv.certify", "certify", "certify.certify", None, None),
    ("monodiv.certify", "MonogenicityCertificate.to_json", "certify.to_json", None, None),
    ("monodiv.certify", "factor", "arith.factor", _factor_key, ("arith.factor.input_bits_max", _factor_bits)),
    ("monodiv.certify", "index_report", "newton.index_report", None, None),
    ("monodiv.certify", "dedekind_p_maximal", "newton.dedekind_p_maximal", None, None),
    ("monodiv.certify", "reduction_table", "reduction.reduction_table", None, None),
    ("monodiv.reduction", "factor", "arith.factor", _factor_key, ("arith.factor.input_bits_max", _factor_bits)),
    ("monodiv.newton", "factor_mod_p", "poly.factor_mod_p", _mod_p_key, None),
    ("monodiv.newton", "phi_development", "poly.phi_development", None, None),
    ("monodiv.newton", "resultant", "poly.resultant", None, None),
    ("monodiv.newton", "residual_polynomial", "newton.residual_polynomial", None, None),
    ("monodiv.poly", "discriminant", "poly.discriminant", None, None),
    ("monodiv.valuation", "observed_psi_valuation", "valuation.observed_psi_valuation", None, None),
    ("monodiv.valuation", "observed_fueter_valuation", "valuation.observed_fueter_valuation", None, None),
    ("monodiv.valuation", "psi", "elliptic.psi", _torsion_key, ("elliptic.coeff_bits_max", _torsion_bits)),
    ("monodiv.valuation", "fueter", "elliptic.fueter", _torsion_key, ("elliptic.coeff_bits_max", _torsion_bits)),
    # psi_fueter_identity_check and the benchmark itself reach these two
    # through the elliptic module
    ("monodiv.elliptic", "psi", "elliptic.psi", _torsion_key, ("elliptic.coeff_bits_max", _torsion_bits)),
    ("monodiv.elliptic", "fueter", "elliptic.fueter", _torsion_key, ("elliptic.coeff_bits_max", _torsion_bits)),
)

_TIMED = (
    "newton.index_report",
    "newton.residual_polynomial",
    "newton.dedekind_p_maximal",
    "poly.factor_mod_p",
    "poly.resultant",
    "poly.discriminant",
    "poly.phi_development",
    "arith.factor",
    "elliptic.psi",
    "elliptic.fueter",
    "valuation.observed_psi_valuation",
    "valuation.observed_fueter_valuation",
    "reduction.reduction_table",
)
_REPEATED = ("poly.factor_mod_p", "arith.factor", "elliptic.psi", "elliptic.fueter")
_MAXIMA = ("arith.factor.input_bits_max", "elliptic.coeff_bits_max")
# repeat_ratio counts repeats within one op, or within one certificate when
# an op certifies several alphas
_REPEAT_SCOPES = ("certify.certify",)

# Every per-layer metric the traced run reports, with its unit, in the order
# BENCHMARK.json lists them.
LAYER_METRICS: dict[str, str] = {}
for _name in _TIMED:
    LAYER_METRICS[f"{_name}.calls"] = "count"
    LAYER_METRICS[f"{_name}.self_s"] = "s"
    if _name in _REPEATED:
        LAYER_METRICS[f"{_name}.repeat_ratio"] = "ratio"
    if _name == "poly.resultant":
        LAYER_METRICS["poly.resultant.under_index_report_s"] = "s"
    if _name == "arith.factor":
        LAYER_METRICS["arith.factor.input_bits_max"] = "bits"
LAYER_METRICS["elliptic.coeff_bits_max"] = "bits"
LAYER_METRICS["arith.small_primes.first_s"] = "s"
LAYER_METRICS["certify.certify.self_s"] = "s"
LAYER_METRICS["certify.to_json.self_s"] = "s"
LAYER_METRICS["trace.overhead_ratio"] = "ratio"

# Metrics that must repeat exactly between the traced runs of one seed.
COUNT_METRICS = tuple(
    name
    for name in LAYER_METRICS
    if name.endswith((".calls", ".repeat_ratio", "_bits_max"))
)


class Recorder:
    """In-memory spans of one traced run, grouped into ops."""

    def __init__(self):
        self.spans: list[list] = []  # [name, op, parent index, start, end]
        self.repeats: Counter = Counter()
        self.maxima: dict[str, int] = dict.fromkeys(_MAXIMA, 0)
        self._stack: list[int] = []
        self._seen: dict[str, set] = defaultdict(set)
        self._op = -1

    def begin_op(self) -> None:
        self._op += 1
        self._seen.clear()

    def wrap(self, name, fn, key=None, size=None):
        def traced(*args, **kwargs):
            if name in _REPEAT_SCOPES:
                self._seen.clear()
            if key is not None:
                k = key(*args, **kwargs)
                if k in self._seen[name]:
                    self.repeats[name] += 1
                else:
                    self._seen[name].add(k)
            span = [name, self._op, self._stack[-1] if self._stack else None, 0.0, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if size is not None:
                metric, measure = size
                self.maxima[metric] = max(self.maxima[metric], measure(args, result))
            return result

        return traced

    def install(self) -> None:
        """Patch every entry of PATCHES; the process stays traced until exit."""
        for module_name, path, name, key, size in PATCHES:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), key, size))

    def summarize(self) -> dict[str, float]:
        """Per-layer metrics from the spans (all but the two run-level ones)."""
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        under_index = 0.0
        for i, (name, _, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if name == "poly.resultant" and parent is not None:
                if self.spans[parent][0] == "newton.index_report":
                    under_index += end - start
        out: dict[str, float] = {}
        for metric in LAYER_METRICS:
            name, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls[name]
            elif stat == "self_s":
                out[metric] = self_s[name]
            elif stat == "repeat_ratio":
                out[metric] = self.repeats[name] / calls[name] if calls[name] else 0.0
        out["poly.resultant.under_index_report_s"] = under_index
        out.update(self.maxima)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, op, parent, start, end in self.spans:
                fh.write(
                    json.dumps({"name": name, "op": op, "parent": parent, "start": start, "end": end})
                    + "\n"
                )
