"""The benchmark's four workloads, each driven through the public API.

Every workload is a closed loop with one client in one process. Its operations
come in units: ``act`` in rounds of CLI requests, the others in passes over a
fixed set. A unit is always run whole, so every run sees the same mix of
sizes. The seed picks the inputs inside that mix; the package sees only the
generated inputs. Each workload also checks its own outputs, outside the
timed section.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

BUDGET_BITS = 20


class Op:
    """One timed operation: a key naming its work, and its input.

    Ops with the same key do identical work; the permutation workloads repeat
    each key once per unit, while every act request has a key of its own.
    """

    __slots__ = ("key", "args")

    def __init__(self, key, args):
        self.key = key
        self.args = args


def _shuffled(items, rng):
    items = list(items)
    rng.shuffle(items)
    return items


class Act:
    """CLI ``act`` requests, each building fresh crystal and xi state.

    The size mix is fixed: 144 slots, balanced over (n, N) in
    {3,4} x {6,7}, over 1-3 generators and over ``--as`` table/sssyt/gtp.
    Each slot has a shape and a word whose segment lengths span 2..N, drawn
    once from MIX_SEED. The run seed draws, for every slot of every round, a
    fresh random table of the slot's shape, and the order of the round.
    Request cost depends strongly on the shape and the word, so fixing them
    keeps runs on different seeds comparable while the tables still differ.
    """

    name = "act"
    MIX_SEED = 0
    COMBOS = ((3, 6), (3, 7), (4, 6), (4, 7))
    KINDS = ("table", "sssyt", "gtp")
    SLOTS = 144

    def __init__(self, sc, seed):
        self.sc = sc
        self.seed = seed
        rng = random.Random(self.MIX_SEED)
        self.slots = []
        for i in range(self.SLOTS):
            n, big_n = self.COMBOS[i % 4]
            shape = self._random_table(rng, n, big_n).weight()
            gens = []
            for _ in range(1 + (i // 4) % 3):
                length = rng.randint(2, big_n)
                p = rng.randint(1, big_n - length + 1)
                gens.append((p, p + length - 1))
            self.slots.append((n, big_n, shape, tuple(gens), self.KINDS[(i // 12) % 3]))

    def _random_table(self, rng, n, big_n, target=None):
        """A random table of length big_n, of the given weight if one is named."""
        sc = self.sc
        pool = sc.spinor_weights(n)
        first = (sc.omega_plus(n), sc.omega_minus(n))

        def walk(steps, total):
            k = len(steps)
            if k == big_n:
                return steps if target is None or tuple(total) == target.coords2 else None
            for mu in _shuffled(first if k == 0 else pool, rng):
                nxt = [a + b for a, b in zip(total, mu.coords2)]
                if not sc.is_dominant_d(sc.Weight(tuple(nxt))):
                    continue
                if target is not None and any(
                    abs(t - c) > big_n - k - 1 for t, c in zip(target.coords2, nxt)
                ):
                    continue
                found = walk(steps + [mu], nxt)
                if found:
                    return found
            return None

        return sc.CellTable(tuple(walk([], [0] * n)))

    def unit(self, index):
        rng = random.Random(f"act:{self.seed}:{index}")
        ops = []
        for slot in _shuffled(range(self.SLOTS), rng):
            n, big_n, shape, gens, kind = self.slots[slot]
            table = self._random_table(rng, n, big_n, shape)
            word = " ".join(f"s({p},{q})" for p, q in gens)
            argv = [
                "act", "--word", word, "--payload", json.dumps(table.to_json()),
                "--as", kind, "--budget-bits", str(BUDGET_BITS),
            ]
            ops.append(Op(f"{index}:{slot:03d}", (table, gens, kind, argv)))
        return ops

    def run(self, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.sc.cli.main(op.args[3])
        return code, out.getvalue()

    def check(self, op, result):
        """The answer is a table of the same shape that the reversed word maps back."""
        sc = self.sc
        table, gens, kind, _ = op.args
        code, text = result
        if code != 0:
            return False
        payload = json.loads(text)
        record = payload["record"]
        if kind == "table":
            moved = sc.CellTable.from_json(record)
        elif kind == "sssyt":
            moved = sc.y_inverse(sc.SSYTable.from_json(record))
        else:
            nu = sc.f_map(table.shape())
            moved = sc.y_inverse(sc.j_inverse(sc.GTPattern.from_json(record), nu))
        if moved.shape() != table.shape():
            return False
        cache = sc.XiCache(sc.SpinCrystal(table.height), BUDGET_BITS)
        back = sc.act_on_table(cache, list(reversed(gens)), moved)
        return back == table and payload["shape"] == "unchanged"

    def output_text(self, op, result):
        return result[1]

    def sizes(self):
        mix = {}
        for n, big_n, _, gens, kind in self.slots:
            key = f"n={n},N={big_n},gens={len(gens)},as={kind}"
            mix[key] = mix.get(key, 0) + 1
        return {"ops_per_unit": self.SLOTS, "mix_seed": self.MIX_SEED, "mix": mix}


class VerifyCrystal:
    """The crystal-side suites with fixed parameters; the seed orders each pass."""

    name = "verify-crystal"
    SUITES = (
        ("suite_census", {"n_values": (2, 3), "big_n_max": 5, "budget_bits": BUDGET_BITS}),
        ("suite_crystal_axioms", {"n_values": (2, 3), "big_n_max": 4}),
        ("suite_commutor", {"n_values": (2, 3), "big_n_max": 4, "budget_bits": BUDGET_BITS}),
        ("suite_cactus_relations", {"n": 3, "big_n": 4, "budget_bits": BUDGET_BITS}),
    )

    def __init__(self, sc, seed):
        self.sc = sc
        self.seed = seed

    def unit(self, index):
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        return [Op(name, kwargs) for name, kwargs in _shuffled(self.SUITES, rng)]

    def run(self, op):
        return getattr(self.sc.suites, op.key)(**op.args)

    def check(self, op, result):
        return result["pass"] is True

    def output_text(self, op, result):
        return json.dumps(result, sort_keys=True)

    def sizes(self):
        return {
            "ops_per_unit": len(self.SUITES),
            "suites": dict(self.SUITES),
        }


class Bijections:
    """One operation per shape: enumerate the three sets and round-trip each object."""

    name = "bijections"
    RANKS = (2, 3, 4)
    LENGTHS = (3, 4, 5)

    def __init__(self, sc, seed):
        self.sc = sc
        self.seed = seed
        self.shapes = [
            (n, big_n, lam)
            for n in self.RANKS
            for big_n in self.LENGTHS
            for lam in sc.enumerate_delta(n, big_n)
        ]

    def unit(self, index):
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        return [
            Op(f"n={n},N={big_n},lambda2={list(lam.coords2)}", (big_n, lam))
            for n, big_n, lam in _shuffled(self.shapes, rng)
        ]

    def run(self, op):
        sc = self.sc
        big_n, lam = op.args
        shape = sc.diagram_of_weight(lam, big_n)
        tables = sc.enumerate_tables(shape)
        nu = sc.f_map(shape)
        chains = sc.enumerate_sssyt(nu)
        patterns = sc.enumerate_gtp(nu)
        count = sc.count_sssyt(nu)
        y_images = [sc.y_map(t) for t in tables]
        y_back = [sc.y_inverse(s) for s in y_images]
        j_images = [sc.j_map(s) for s in chains]
        j_back = [sc.j_inverse(p, nu) for p in j_images]
        return tables, chains, patterns, count, y_images, y_back, j_images, j_back

    def check(self, op, result):
        tables, chains, patterns, count, y_images, y_back, j_images, j_back = result
        return (
            len(tables) == len(chains) == len(patterns) == count
            and y_back == tables
            and set(y_images) == set(chains)
            and j_back == chains
            and set(j_images) == set(patterns)
        )

    def output_text(self, op, result):
        tables, chains, patterns, count = result[:4]
        return json.dumps({
            "tables": [t.to_json() for t in tables],
            "chains": [s.to_json() for s in chains],
            "patterns": [p.to_json() for p in patterns],
            "count": count,
        }, sort_keys=True)

    def sizes(self):
        return {"ops_per_unit": len(self.shapes), "ranks": self.RANKS, "lengths": self.LENGTHS}


class TopVec:
    """One operation is the top-vector report of one member weight."""

    name = "topvec"
    RANKS = (2, 3, 4, 5)
    LENGTHS = tuple(range(2, 9))

    def __init__(self, sc, seed):
        self.sc = sc
        self.seed = seed
        self.weights = [
            (n, big_n, lam)
            for n in self.RANKS
            for big_n in self.LENGTHS
            for lam in sc.enumerate_delta(n, big_n)
        ]

    def unit(self, index):
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        return [
            Op(f"n={n},N={big_n},lambda2={list(lam.coords2)}", (n, big_n, lam))
            for n, big_n, lam in _shuffled(self.weights, rng)
        ]

    def run(self, op):
        n, big_n, lam = op.args
        return self.sc.top_vector_report(self.sc.ExteriorAlgebra(n, big_n), lam)

    def check(self, op, result):
        _, big_n, lam = op.args
        return (
            result["singular"] is True
            and result["left_weight"] == self.sc.kappa(lam, big_n).to_json()
            and result["right_weight"] == lam.to_json()
        )

    def output_text(self, op, result):
        return json.dumps(result, sort_keys=True)

    def sizes(self):
        return {"ops_per_unit": len(self.weights), "ranks": self.RANKS, "lengths": self.LENGTHS}


WORKLOADS = {w.name: w for w in (Act, VerifyCrystal, Bijections, TopVec)}
