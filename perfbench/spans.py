"""Span and count recording around the program's module attributes.

A `Tracer` replaces selected functions of the `lqrt` modules with wrappers
that record a span (layer key, start, end, parent span) for each call, and,
for the batched fitters, the per-row iteration counts they return.  The
replacement is made in every loaded `lqrt` module that binds the function,
so calls from inside the program are seen as well as the benchmark's own.
A function the program no longer has is skipped; its metrics then read 0.

Spans stay in memory; `layer_metrics` turns them into per-round figures.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# (layer key, module, attribute).  The four fitter keys are mlqe.<variant>.
TARGETS = (
    ("mlqe.normal", "lqrt.mlqe", "batch_fit_normal"),
    ("mlqe.known_mean", "lqrt.mlqe", "batch_fit_variance_known_mean"),
    ("mlqe.shared_var", "lqrt.mlqe", "batch_fit_shared_variance"),
    ("mlqe.shared_mean", "lqrt.mlqe", "batch_fit_shared_mean"),
    ("ratio_test.selectq", "lqrt.ratio_test", "select_q_1samp"),
    ("ratio_test.selectq", "lqrt.ratio_test", "select_q_ind"),
    ("ratio_test.bootstrap", "lqrt.ratio_test", "pvalue_bootstrap_1samp"),
    ("ratio_test.bootstrap", "lqrt.ratio_test", "pvalue_bootstrap_ind"),
    ("ratio_test.observed", "lqrt.ratio_test", "statistic_1samp"),
    ("ratio_test.observed", "lqrt.ratio_test", "statistic_ind_equal_var"),
    ("ratio_test.observed", "lqrt.ratio_test", "statistic_ind_unequal_var"),
    ("ratio_test.test", "lqrt.ratio_test", "lqrtest_1samp"),
    ("ratio_test.test", "lqrt.ratio_test", "lqrtest_rel"),
    ("ratio_test.test", "lqrt.ratio_test", "lqrtest_ind"),
    ("lqmath", "lqrt.lqmath", "lq_log"),
    ("lqmath", "lqrt.lqmath", "normal_log_pdf"),
    ("lqmath", "lqrt.lqmath", "lq_weight"),
    ("lqmath", "lqrt.lqmath", "lq_likelihood"),
    ("lqmath", "lqrt.lqmath", "lq_score_mu"),
    ("lqmath", "lqrt.lqmath", "lq_curvature_mu"),
    ("baselines", "lqrt.baselines", "ttest_1samp"),
    ("baselines", "lqrt.baselines", "ttest_rel"),
    ("baselines", "lqrt.baselines", "ttest_ind"),
    ("baselines", "lqrt.baselines", "wilcoxon_signed_rank"),
    ("baselines", "lqrt.baselines", "rank_sum"),
    ("baselines", "lqrt.baselines", "sign_test"),
    ("gemsim.generate", "lqrt.gemsim", "sample_gem"),
    ("gemsim.generate", "lqrt.gemsim", "sample_gem_paired"),
    ("gemsim.run", "lqrt.gemsim", "run_scenario"),
)

FITTERS = ("normal", "known_mean", "shared_var", "shared_mean")


def _default_cap() -> int:
    mlqe = sys.modules.get("lqrt.mlqe")
    return int(getattr(getattr(mlqe, "DEFAULT_CONFIG", None), "max_iter", 0))


def _fit_info(args, kwargs, result):
    """(rows, row length, per-row iterations, clipped, iteration cap) of one fitter call."""
    values = list(args) + list(kwargs.values())
    blocks = [a for a in values if isinstance(a, np.ndarray) and a.ndim == 2]
    caps = [v.max_iter for v in values if hasattr(v, "max_iter")]
    iterations = np.array(result[-3], dtype=np.int64)
    clipped = np.asarray(result[-1], dtype=bool)
    width = sum(b.shape[1] for b in blocks)
    return iterations.size, width, iterations, int(np.count_nonzero(clipped)), (
        caps[0] if caps else _default_cap()
    )


class Tracer:
    def __init__(self):
        self.spans = []  # [key, start, end, parent index, fitter info or None]
        self._stack = []
        self._patches = []

    def _wrap(self, key, fn):
        spans, stack = self.spans, self._stack
        is_fit = key.startswith("mlqe.")

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [key, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if is_fit:
                span[4] = _fit_info(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "lqrt" and m]
        for key, modname, attr in TARGETS:
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(key, fn)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapper)
                        self._patches.append((mod, name, fn))

    def uninstall(self):
        for mod, name, fn in reversed(self._patches):
            setattr(mod, name, fn)
        self._patches.clear()


def layer_metrics(spans, rounds: int) -> dict:
    """Per-round layer figures from the spans of `rounds` identical traced rounds."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d

    def outermost(i):
        # not called from another function of the same layer, such as ttest_rel -> ttest_1samp
        p = spans[i][3]
        return p < 0 or spans[p][0] != spans[i][0]

    def under(i, key):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == key:
                return True
            p = spans[p][3]
        return False

    def total(key, self_only=False):
        return sum(
            (dur[i] - child[i]) if self_only else dur[i]
            for i, s in enumerate(spans)
            if s[0] == key and outermost(i)
        )

    def count(key):
        return sum(1 for i, s in enumerate(spans) if s[0] == key and outermost(i))

    r = float(rounds)
    out = {}
    for v in FITTERS:
        idx = [i for i, s in enumerate(spans) if s[0] == f"mlqe.{v}" and s[4] is not None]
        its = [spans[i][4][2] for i in idx]
        allit = np.concatenate(its) if its else np.zeros(0, dtype=np.int64)
        elem = sum(float(spans[i][4][1]) * float(spans[i][4][2].sum()) for i in idx)
        secs = sum(dur[i] for i in idx)
        pct = np.percentile(allit, [50, 99]) if allit.size else (0.0, 0.0)
        out.update({
            f"mlqe.{v}.calls": len(idx) / r,
            f"mlqe.{v}.rows": sum(spans[i][4][0] for i in idx) / r,
            f"mlqe.{v}.map_evals": float(allit.sum()) / r,
            f"mlqe.{v}.map_evals_p50": float(pct[0]),
            f"mlqe.{v}.map_evals_p99": float(pct[1]),
            f"mlqe.{v}.map_evals_max": float(allit.max()) if allit.size else 0.0,
            f"mlqe.{v}.rows_at_cap": sum(
                int(np.count_nonzero(spans[i][4][2] >= spans[i][4][4])) for i in idx
            ) / r,
            f"mlqe.{v}.rows_clipped": sum(spans[i][4][3] for i in idx) / r,
            f"mlqe.{v}.s": secs / r,
            f"mlqe.{v}.ns_per_elem_eval": secs * 1e9 / elem if elem else 0.0,
        })

    tests = [i for i, s in enumerate(spans) if s[0] == "ratio_test.test" and outermost(i)]
    fits_in_tests = sum(
        1 for i, s in enumerate(spans) if s[0].startswith("mlqe.") and under(i, "ratio_test.test")
    )
    out.update({
        "ratio_test.selectq_calls": count("ratio_test.selectq") / r,
        "ratio_test.selectq_s": total("ratio_test.selectq") / r,
        "ratio_test.bootstrap_s": total("ratio_test.bootstrap") / r,
        "ratio_test.bootstrap_self_s": total("ratio_test.bootstrap", self_only=True) / r,
        "ratio_test.observed_s": total("ratio_test.observed") / r,
        "ratio_test.fit_calls_per_test": fits_in_tests / len(tests) if tests else 0.0,
        "lqmath.calls": count("lqmath") / r,
        "baselines.calls": count("baselines") / r,
        "baselines.s": total("baselines") / r,
        "gemsim.generate_s": total("gemsim.generate") / r,
        "gemsim.self_s": total("gemsim.run", self_only=True) / r,
    })
    return out
