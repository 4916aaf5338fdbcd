"""Per-layer tracing for the benchmark, done from outside the package.

The tracer replaces each traced function or method of ``spincactus`` with a
wrapper that calls the original with the same arguments and returns its
result unchanged, so a traced run computes exactly what an untraced run does.
A wrapper is installed on every binding of the traced object: the defining
module, each module that imported it with ``from ... import``, the package
namespace, and module-level dicts such as ``suites.SUITES``. Patching only
the defining module would miss calls made through the other bindings.

Layer-boundary calls (CLI entry, suite entry, the cactus action, xi, the
whole-crystal scans, the enumerators, the four bijection maps and the
exterior-algebra reports) are recorded as spans: name, start, end, parent
span and operation id, held in memory and written out when the run ends.
Leaf operators (crystal raising and lowering, wedge and contraction, the
dataclass validations) are too frequent for spans; they get aggregated call
counts and time instead. Every wrapped call, span or leaf, is subtracted from
its caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time

# (stat key, module, attribute path, record a span)
SPANS = (
    ("cli.main", "cli", "main", True),
    ("suites.suite_census", "suites", "suite_census", True),
    ("suites.suite_crystal_axioms", "suites", "suite_crystal_axioms", True),
    ("suites.suite_commutor", "suites", "suite_commutor", True),
    ("suites.suite_cactus_relations", "suites", "suite_cactus_relations", True),
    ("cactus.act_on_table", "cactus", "act_on_table", True),
    ("cactus.s_pq", "cactus", "XiCache.s_pq", True),
    ("cactus.xi_word", "cactus", "XiCache.xi_word", True),
    ("crystal.components", "crystal", "SpinCrystal.components", True),
    ("crystal.hw_census", "crystal", "SpinCrystal.hw_census", True),
    ("crystal.component_members", "crystal", "SpinCrystal.component_members", True),
    ("celldiag.enumerate_tables", "celldiag", "enumerate_tables", True),
    ("youngt.enumerate_sssyt", "youngt", "enumerate_sssyt", True),
    ("youngt.enumerate_gtp", "youngt", "enumerate_gtp", True),
    ("youngt.count_sssyt", "youngt", "count_sssyt", True),
    ("youngt.y_map", "youngt", "y_map", True),
    ("youngt.y_inverse", "youngt", "y_inverse", True),
    ("youngt.j_map", "youngt", "j_map", True),
    ("youngt.j_inverse", "youngt", "j_inverse", True),
    ("clifford.top_vector_report", "clifford", "top_vector_report", True),
    ("clifford.check_singular", "clifford", "ExteriorAlgebra.check_singular", True),
    ("crystal.tensor_e", "crystal", "SpinCrystal.tensor_e", False),
    ("crystal.tensor_f", "crystal", "SpinCrystal.tensor_f", False),
    ("crystal.eps", "crystal", "SpinCrystal.eps", False),
    ("crystal.phi", "crystal", "SpinCrystal.phi", False),
    ("crystal.to_highest_weight", "crystal", "SpinCrystal.to_highest_weight", False),
    ("crystal.to_lowest_weight", "crystal", "SpinCrystal.to_lowest_weight", False),
    ("celldiag.diagram_of_weight", "celldiag", "diagram_of_weight", False),
    ("youngt.branch_syd", "youngt", "branch_syd", False),
    ("clifford.xi_lambda", "clifford", "ExteriorAlgebra.xi_lambda", False),
    ("clifford.weight_of_vector", "clifford", "ExteriorAlgebra.weight_of_vector", False),
    ("clifford.wedge_insert", "clifford", "wedge_insert", False),
    ("clifford.contract", "clifford", "contract", False),
    ("weights.is_dominant_d", "weights", "is_dominant_d", False),
    ("weights.Weight", "weights", "Weight.__post_init__", False),
    ("celldiag.CellTable", "celldiag", "CellTable.__post_init__", False),
    ("celldiag.CellDiagram", "celldiag", "CellDiagram.__post_init__", False),
    ("youngt.ShortYoungDiagram", "youngt", "ShortYoungDiagram.__post_init__", False),
    ("youngt.SSYTable", "youngt", "SSYTable.__post_init__", False),
    ("youngt.GTPattern", "youngt", "GTPattern.__post_init__", False),
)

# Extra work a call does, read from its arguments and result.
WORK = {
    "celldiag.enumerate_tables": lambda args, result: len(result),
    "clifford.wedge_insert": lambda args, result: len(args[1].terms),
    "clifford.contract": lambda args, result: len(args[1].terms),
    "crystal.components": lambda args, result: (1 << args[0].n) ** args[1],
    "crystal.hw_census": lambda args, result: (1 << args[0].n) ** args[1],
}

# Calls of other traced functions counted while this one runs.
INNER = {
    "cactus.xi_word": ("crystal.tensor_e", "crystal.tensor_f"),
    "youngt.j_inverse": ("youngt.j_map",),
}

# (metric, unit, better) in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cactus.act_on_table.calls", "count", "lower"),
    ("cactus.act_on_table.total_s", "s", "lower"),
    ("cactus.s_pq.calls", "count", "lower"),
    ("cactus.s_pq.self_s", "s", "lower"),
    ("cactus.xi_word.calls", "count", "lower"),
    ("cactus.xi_word.self_s", "s", "lower"),
    ("cactus.xi_word.crystal_ops_per_call", "count", "lower"),
    ("crystal.tensor_e.calls", "count", "lower"),
    ("crystal.tensor_f.calls", "count", "lower"),
    ("crystal.tensor_ef.self_s", "s", "lower"),
    ("crystal.tensor_ef.ops_per_s", "1/s", "higher"),
    ("crystal.to_highest_weight.calls", "count", "lower"),
    ("crystal.to_lowest_weight.calls", "count", "lower"),
    ("crystal.component_members.calls", "count", "lower"),
    ("crystal.component_members.self_s", "s", "lower"),
    ("crystal.components.self_s", "s", "lower"),
    ("crystal.hw_census.self_s", "s", "lower"),
    ("crystal.scan.words_per_s", "1/s", "higher"),
    ("crystal.eps_phi.calls", "count", "lower"),
    ("crystal.eps_phi.self_s", "s", "lower"),
    ("celldiag.enumerate_tables.calls", "count", "lower"),
    ("celldiag.enumerate_tables.self_s", "s", "lower"),
    ("celldiag.enumerate_tables.tables_out", "count", "lower"),
    ("celldiag.enumerate_tables.tables_per_s", "1/s", "higher"),
    ("celldiag.CellTable.validations", "count", "lower"),
    ("celldiag.CellDiagram.validations", "count", "lower"),
    ("celldiag.diagram_of_weight.calls", "count", "lower"),
    ("youngt.y_map.calls", "count", "lower"),
    ("youngt.y_map.self_s", "s", "lower"),
    ("youngt.y_inverse.calls", "count", "lower"),
    ("youngt.y_inverse.self_s", "s", "lower"),
    ("youngt.j_map.calls", "count", "lower"),
    ("youngt.j_map.self_s", "s", "lower"),
    ("youngt.j_inverse.calls", "count", "lower"),
    ("youngt.j_inverse.self_s", "s", "lower"),
    ("youngt.j_inverse.j_map_calls_per_call", "count", "lower"),
    ("youngt.enumerate_sssyt.self_s", "s", "lower"),
    ("youngt.enumerate_gtp.self_s", "s", "lower"),
    ("youngt.count_sssyt.self_s", "s", "lower"),
    ("youngt.branch_syd.calls", "count", "lower"),
    ("youngt.ShortYoungDiagram.validations", "count", "lower"),
    ("youngt.SSYTable.validations", "count", "lower"),
    ("youngt.GTPattern.validations", "count", "lower"),
    ("clifford.top_vector_report.calls", "count", "lower"),
    ("clifford.top_vector_report.total_s", "s", "lower"),
    ("clifford.xi_lambda.self_s", "s", "lower"),
    ("clifford.check_singular.self_s", "s", "lower"),
    ("clifford.weight_of_vector.self_s", "s", "lower"),
    ("clifford.check_singular.weights_per_s", "1/s", "higher"),
    ("clifford.wedge_contract.calls", "count", "lower"),
    ("clifford.wedge_contract.terms", "count", "lower"),
    ("clifford.wedge_contract.terms_per_s", "1/s", "higher"),
    ("weights.Weight.constructed", "count", "lower"),
    ("weights.is_dominant_d.calls", "count", "lower"),
    ("suites.suite_census.total_s", "s", "lower"),
    ("suites.suite_census.self_s", "s", "lower"),
    ("suites.suite_crystal_axioms.total_s", "s", "lower"),
    ("suites.suite_crystal_axioms.self_s", "s", "lower"),
    ("suites.suite_commutor.total_s", "s", "lower"),
    ("suites.suite_commutor.self_s", "s", "lower"),
    ("suites.suite_cactus_relations.total_s", "s", "lower"),
    ("suites.suite_cactus_relations.self_s", "s", "lower"),
    ("trace.throughput_ratio", "ratio", "higher"),
)


class Stat:
    """Aggregate of one traced function: calls, full and self time, work."""

    __slots__ = ("calls", "total", "self_time", "work", "inner")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.work = 0
        self.inner = 0


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "spincactus" or name.startswith("spincactus."))
    ]


def _resolve(sc, module, path):
    owner = getattr(sc, module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Installs observing wrappers on the package and aggregates what they see."""

    def __init__(self, sc):
        self.sc = sc
        self.stats = {key: Stat() for key, _, _, _ in SPANS}
        self.span_names = [key for key, _, _, span in SPANS if span]
        self.spans = []
        self.op = -1
        self._frames = []
        self._open = []
        self._patches = []
        self._originals = {}

    def _wrap(self, key, fn, span):
        stat = self.stats[key]
        work = WORK.get(key)
        inner = [self.stats[k] for k in INNER.get(key, ())]
        name_id = self.span_names.index(key) if span else -1
        frames = self._frames
        open_spans = self._open
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if span:
                index = len(spans)
                spans.append([name_id, 0.0, 0.0, open_spans[-1] if open_spans else -1, self.op])
                open_spans.append(index)
            base = sum(s.calls for s in inner)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
                if inner:
                    stat.inner += sum(s.calls for s in inner) - base
                if span:
                    open_spans.pop()
                    spans[index][1] = start
                    spans[index][2] = start + elapsed
            if work is not None:
                stat.work += work(args, result)
            return result

        return traced

    def _bindings(self, original):
        """Every place in the package that refers to ``original``."""
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    yield mod, attr, False
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if v is original:
                            yield value, k, True

    def install(self):
        for key, module, path, span in SPANS:
            owner, attr = _resolve(self.sc, module, path)
            original = vars(owner)[attr]
            wrapper = self._wrap(key, original, span)
            self._originals[key] = original
            if isinstance(owner, type):
                targets = [(owner, attr, False)]
            else:
                targets = list(self._bindings(original))
            for target, name, is_dict in targets:
                if is_dict:
                    target[name] = wrapper
                else:
                    setattr(target, name, wrapper)
                self._patches.append((target, name, is_dict, original))

    def uninstall(self):
        for target, name, is_dict, original in reversed(self._patches):
            if is_dict:
                target[name] = original
            else:
                setattr(target, name, original)
        self._patches.clear()

    def stale_bindings(self):
        """Bindings that still reach a traced original; empty once installed."""
        originals = {id(fn): key for key, fn in self._originals.items()}
        stale = []
        for mod in _package_modules():
            for attr, value in vars(mod).items():
                places = [(attr, value)]
                if isinstance(value, dict):
                    places += [(f"{attr}[{k!r}]", v) for k, v in value.items()]
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    places += [(f"{attr}.{k}", v) for k, v in vars(value).items()]
                for where, v in places:
                    if id(v) in originals and v is self._originals[originals[id(v)]]:
                        stale.append(f"{mod.__name__}.{where} -> {originals[id(v)]}")
        return stale

    def metrics(self, throughput_ratio):
        s = self.stats

        def per(a, b):
            return a / b if b else 0.0

        e, f = s["crystal.tensor_e"], s["crystal.tensor_f"]
        ef_self = e.self_time + f.self_time
        eps_phi = (s["crystal.eps"], s["crystal.phi"])
        comps, census = s["crystal.components"], s["crystal.hw_census"]
        tables = s["celldiag.enumerate_tables"]
        wedge = (s["clifford.wedge_insert"], s["clifford.contract"])
        wedge_terms = sum(x.work for x in wedge)
        singular = s["clifford.check_singular"]
        m = {
            "cli.main.calls": s["cli.main"].calls,
            "cli.main.self_s": s["cli.main"].self_time,
            "cactus.act_on_table.calls": s["cactus.act_on_table"].calls,
            "cactus.act_on_table.total_s": s["cactus.act_on_table"].total,
            "cactus.s_pq.calls": s["cactus.s_pq"].calls,
            "cactus.s_pq.self_s": s["cactus.s_pq"].self_time,
            "cactus.xi_word.calls": s["cactus.xi_word"].calls,
            "cactus.xi_word.self_s": s["cactus.xi_word"].self_time,
            "cactus.xi_word.crystal_ops_per_call": per(
                s["cactus.xi_word"].inner, s["cactus.xi_word"].calls
            ),
            "crystal.tensor_e.calls": e.calls,
            "crystal.tensor_f.calls": f.calls,
            "crystal.tensor_ef.self_s": ef_self,
            "crystal.tensor_ef.ops_per_s": per(e.calls + f.calls, ef_self),
            "crystal.to_highest_weight.calls": s["crystal.to_highest_weight"].calls,
            "crystal.to_lowest_weight.calls": s["crystal.to_lowest_weight"].calls,
            "crystal.component_members.calls": s["crystal.component_members"].calls,
            "crystal.component_members.self_s": s["crystal.component_members"].self_time,
            "crystal.components.self_s": comps.self_time,
            "crystal.hw_census.self_s": census.self_time,
            "crystal.scan.words_per_s": per(comps.work + census.work, comps.total + census.total),
            "crystal.eps_phi.calls": sum(x.calls for x in eps_phi),
            "crystal.eps_phi.self_s": sum(x.self_time for x in eps_phi),
            "celldiag.enumerate_tables.calls": tables.calls,
            "celldiag.enumerate_tables.self_s": tables.self_time,
            "celldiag.enumerate_tables.tables_out": tables.work,
            "celldiag.enumerate_tables.tables_per_s": per(tables.work, tables.total),
            "celldiag.CellTable.validations": s["celldiag.CellTable"].calls,
            "celldiag.CellDiagram.validations": s["celldiag.CellDiagram"].calls,
            "celldiag.diagram_of_weight.calls": s["celldiag.diagram_of_weight"].calls,
        }
        for name in ("y_map", "y_inverse", "j_map", "j_inverse"):
            m[f"youngt.{name}.calls"] = s[f"youngt.{name}"].calls
            m[f"youngt.{name}.self_s"] = s[f"youngt.{name}"].self_time
        m["youngt.j_inverse.j_map_calls_per_call"] = per(
            s["youngt.j_inverse"].inner, s["youngt.j_inverse"].calls
        )
        for name in ("enumerate_sssyt", "enumerate_gtp", "count_sssyt"):
            m[f"youngt.{name}.self_s"] = s[f"youngt.{name}"].self_time
        m["youngt.branch_syd.calls"] = s["youngt.branch_syd"].calls
        for name in ("ShortYoungDiagram", "SSYTable", "GTPattern"):
            m[f"youngt.{name}.validations"] = s[f"youngt.{name}"].calls
        m.update({
            "clifford.top_vector_report.calls": s["clifford.top_vector_report"].calls,
            "clifford.top_vector_report.total_s": s["clifford.top_vector_report"].total,
            "clifford.xi_lambda.self_s": s["clifford.xi_lambda"].self_time,
            "clifford.check_singular.self_s": singular.self_time,
            "clifford.weight_of_vector.self_s": s["clifford.weight_of_vector"].self_time,
            "clifford.check_singular.weights_per_s": per(singular.calls, singular.total),
            "clifford.wedge_contract.calls": sum(x.calls for x in wedge),
            "clifford.wedge_contract.terms": wedge_terms,
            "clifford.wedge_contract.terms_per_s": per(
                wedge_terms, sum(x.self_time for x in wedge)
            ),
            "weights.Weight.constructed": s["weights.Weight"].calls,
            "weights.is_dominant_d.calls": s["weights.is_dominant_d"].calls,
        })
        for name in ("census", "crystal_axioms", "commutor", "cactus_relations"):
            stat = s[f"suites.suite_{name}"]
            m[f"suites.suite_{name}.total_s"] = stat.total
            m[f"suites.suite_{name}.self_s"] = stat.self_time
        m["trace.throughput_ratio"] = throughput_ratio
        assert list(m) == [name for name, _, _ in PER_LAYER], "metric table out of sync"
        return m

    def span_record(self):
        """Spans as [name, start_s, end_s, parent, op], times from the first span."""
        t0 = min((sp[1] for sp in self.spans), default=0.0)
        return {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "names": self.span_names,
            "spans": [
                [n, round(a - t0, 7), round(b - t0, 7), parent, op]
                for n, a, b, parent, op in self.spans
            ],
        }
