"""Spans around hypercert's layers, recorded from outside the library.

``Tracer.install()`` rebinds each wrapped function in every ``hypercert.*``
module namespace that holds it (modules import each other's functions by
name), and wraps methods on their class; ``uninstall()`` restores the
originals.  A span is (name, start, end, parent span, job id, note); spans
stay in memory and ``write()`` dumps them at the end.  ``note`` is a size or
count taken from the call (matrix size, bit length, chain length, ...).
"""

from __future__ import annotations

import importlib
import sys
from fractions import Fraction
from time import perf_counter


def _size(arg: int):
    return lambda args, result: args[arg].size


def _bits(args, result):
    c = Fraction(args[0])
    return (c.numerator * c.denominator).bit_length()


# (module, attribute or Class.method, span name, note)
WRAPPED = (
    ("cli", "main", "cli.main", None),
    ("wire", "load_poly_file", "wire.load", None),
    ("wire", "load_squares_file", "wire.load", None),
    ("wire", "pencil_from_json", "wire.load", None),
    ("detrep", "polymatrix_from_json", "wire.load", None),
    ("hyperbolicity", "sample_direction", "hyperbolicity.sample_direction", None),
    ("hyperbolicity", "is_hyperbolic_sampled", "hyperbolicity.is_hyperbolic_sampled", lambda a, r: r.samples_run),
    ("hyperbolicity", "interlaces_sampled", "hyperbolicity.interlaces_sampled", lambda a, r: r.samples_run),
    ("polyring", "restrict_to_line", "polyring.restrict_to_line", lambda a, r: r.degree),
    ("polyring", "UniPoly.squarefree_part", "polyring.UniPoly.squarefree_part", None),
    ("polyring", "MultiPoly.__mul__", "polyring.MultiPoly.mul", None),
    ("polyring", "MultiPoly.divide_exact", "polyring.MultiPoly.divide_exact", None),
    ("polyring", "MultiPoly.substitute", "polyring.MultiPoly.substitute", None),
    ("polyring", "real_square_factorization", "polyring.real_square_factorization", None),
    ("realroots", "is_real_rooted", "realroots.is_real_rooted", None),
    ("realroots", "sturm_chain", "realroots.sturm_chain", lambda a, r: len(r)),
    ("realroots", "interlaces_univariate", "realroots.interlaces_univariate", None),
    # Root isolation proper; isolate_roots and interlaces_univariate both use it.
    ("realroots", "_isolate_squarefree", "realroots.isolate_roots", None),
    ("realroots", "refine_interval", "realroots.refine_interval", None),
    ("detrep", "poly_det", "detrep.poly_det", _size(0)),
    ("detrep", "PolyMatrix.matmul", "detrep.PolyMatrix.matmul", None),
    ("detrep", "pencil_to_polymatrix", "detrep.pencil_to_polymatrix", None),
    ("detrep", "polymatrix_to_pencil", "detrep.polymatrix_to_pencil", None),
    ("detrep", "verify_pencil", "detrep.verify_pencil", None),
    ("detrep", "verify_companion", "detrep.verify_companion", None),
    ("detrep", "detrep_to_sos", "detrep.detrep_to_sos", None),
    # The constant-matrix determinant lives in detrep.py but is scalar work.
    ("detrep", "const_det", "scalars.const_det", None),
    ("scalars", "pencil_value", "scalars.pencil_value", lambda a, r: r.size),
    ("scalars", "first_nonpositive_minor", "scalars.first_nonpositive_minor", _size(0)),
    ("scalars", "four_square_decompose", "scalars.four_square_decompose", _bits),
    ("clifford", "build_Q", "clifford.build_Q", lambda a, r: r.size),
    ("clifford", "clifford_generators", "clifford.clifford_generators", None),
    ("clifford", "sos_to_detrep", "clifford.sos_to_detrep", None),
    ("quadratic", "normalize_at_direction", "quadratic.normalize_at_direction", None),
    ("quadratic", "diagonalize_quadratic_form", "quadratic.diagonalize_quadratic_form", None),
    ("quadratic", "rational_sos_quadratic", "quadratic.rational_sos_quadratic", lambda a, r: len(r)),
    ("quadratic", "quadratic_detrep", "quadratic.quadratic_detrep", None),
    ("fixtures", "run_fixture", "fixtures.run_fixture", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.job_of: list[int] = []
        self.note: list = []
        self.stack = [-1]
        self.job = -1
        self._bindings = []  # (namespace object, attribute, wrapper, original)
        modules = {m: importlib.import_module(f"hypercert.{m}") for m in {w[0] for w in WRAPPED}}
        package = [m for name, m in sys.modules.items() if name == "hypercert" or name.startswith("hypercert.")]
        for mod_name, attr, span_name, note in WRAPPED:
            if span_name not in self.names:
                self.names.append(span_name)
            name_id = self.names.index(span_name)
            module = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._bindings.append((cls, meth, self._wrap(original, name_id, note), original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name_id, note)
            for ns in package:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._bindings.append((ns, key, wrapper, original))

    def _wrap(self, fn, name_id, note):
        name_of, start, end, parent = self.name_of, self.start, self.end, self.parent
        job_of, notes, stack = self.job_of, self.note, self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            job_of.append(tracer.job)
            notes.append(None)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, result)
            return result

        return wrapper

    def install(self) -> None:
        for ns, key, wrapper, _ in self._bindings:
            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, _, original in self._bindings:
            setattr(ns, key, original)

    def summary(self) -> dict:
        """Per span name: calls, self and inclusive seconds, and per-note
        [calls, inclusive seconds]; plus the sampled lines seen by the two
        samplers (for lines_skipped)."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "by_note": {}} for name in self.names}
        samplers = {self.names.index(s) for s in ("hyperbolicity.is_hyperbolic_sampled", "hyperbolicity.interlaces_sampled")}
        draw = self.names.index("hyperbolicity.sample_direction")
        sampler_draws = 0
        for i in range(n):
            agg = out[self.names[self.name_of[i]]]
            dur = self.end[i] - self.start[i]
            agg["calls"] += 1
            agg["self_s"] += dur - covered[i]
            agg["incl_s"] += dur
            if self.note[i] is not None:
                bucket = agg["by_note"].setdefault(str(self.note[i]), [0, 0.0])
                bucket[0] += 1
                bucket[1] += dur
            if self.name_of[i] == draw and self.parent[i] >= 0 and self.name_of[self.parent[i]] in samplers:
                sampler_draws += 1
        out["hyperbolicity.sample_direction"]["sampler_draws"] = sampler_draws
        return out

    def write(self, path) -> None:
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span\tjob\tname\tparent\tstart_s\tend_s\tnote\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.job_of[i]}\t{self.names[self.name_of[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t{'' if self.note[i] is None else self.note[i]}\n"
                )
