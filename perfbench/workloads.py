"""The four workloads: closed-loop streams of small dimlab experiments.

Each workload is a catalog of job items.  A run draws its stream from the
catalog with its seed: round after round, one item per slot, slots in a
seeded order and each slot's item seeded too; a run stops between rounds.
Items in one slot have similar cost, so every round does about the same work
whatever the seed, while different seeds run different inputs.  Slot counts
are odd where the slots differ in cost, so the median job lies inside one
slot's jobs rather than in the gap between two.  The catalog itself is fixed
(its random inputs come from fixed catalog seeds), which is what lets every
item's outputs be checked against a reference recorded once.

A workload provides:

- ``setup_inputs()``: inputs the one-time set-up needs, generated by the
  benchmark (not timed as set-up);
- ``setup(api, inputs)``: the program's one-time set-up (timed as setup_s);
- ``prepare(key, state, workdir)``: one job's generated inputs (not timed);
- ``run(api, state, key, inputs)``: the job itself (timed); it returns its
  outputs as (tag, kind, value) entries for ``checks.fingerprint``;
- ``oracle(key, inputs, outputs)``: numpy cross-checks, run on a sample.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np

from checks import (
    iterated_outer_sum,
    leaves_problems,
    outer_difference,
    outer_sum,
    saturation_problems,
)


class Workload:
    name = ""
    prefix: tuple[str, ...] = ()
    slots: tuple[tuple[str, ...], ...] = ()

    def item(self, key: str) -> dict:
        """The parameters of one catalog item, read from its key."""
        raise NotImplementedError

    def catalog(self) -> dict[str, dict]:
        keys = list(self.prefix) + [key for slot in self.slots for key in slot]
        return {key: self.item(key) for key in keys}

    def rounds(self, seed: int):
        """Endless stream of rounds, lists of catalog keys, for a run seed.

        A run ends only between rounds, so every run does each slot equally
        often.  Prefix items run once, before the rounds, outside the
        latency figures.
        """
        rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        while True:
            keys = []
            for slot in rng.permutation(len(self.slots)):
                variants = self.slots[slot]
                keys.append(variants[int(rng.integers(len(variants)))])
            yield keys

    def setup_inputs(self):
        return None

    def setup(self, api, inputs):
        return None

    def prepare(self, key: str, state, workdir: str):
        return self.item(key)

    def run(self, api, state, key: str, inputs) -> list:
        raise NotImplementedError

    def oracle(self, key: str, inputs, out: list) -> list[str]:
        return []


def _by_tag(out: list) -> dict:
    return {tag: value for tag, _, value in out}


def _estimates(api, obj, depth: int, tag: str, lower_variant: bool = True) -> list:
    lo = max(1, depth // 2)
    m = max(1, depth // 2)
    out = [(f"{tag}.box_upper", "json", api.box_estimate(obj, lo, depth, "upper").to_json())]
    if lower_variant:
        out.append((f"{tag}.box_lower", "json", api.box_estimate(obj, lo, depth, "lower").to_json()))
    out.append((f"{tag}.assouad", "json", api.assouad_estimate(obj, m).to_json()))
    if lower_variant:
        out.append((f"{tag}.lower", "json", api.lower_estimate(obj, m).to_json()))
    return out


# -- entropy-sweep -------------------------------------------------------


class EntropySweep(Workload):
    """Fresh depth-20 trees through measures, scale profiles and covering
    checks, the job shape of the entropy-covering and chain-rules checks."""

    name = "entropy-sweep"
    DEPTH = 20
    STRATA = 16
    VARIANTS = 4
    # (eps, default window floor(log2(1/eps)))
    EPS = ((0.05, 4), (0.1, 3), (0.2, 2))
    # The full tree is the largest job and sets the memory peak; it runs
    # once per run, so it stays out of the latency figures, whose rounds
    # vary in number.
    prefix = ("full",)

    @property
    def slots(self):
        strata = tuple(
            tuple(f"rand-s{s:02d}-v{v}" for v in range(self.VARIANTS)) for s in range(self.STRATA)
        )
        return strata + (tuple(f"chain-v{v}" for v in range(self.VARIANTS)),)

    def item(self, key):
        if key == "full":
            return {"kind": "full", "masses": False, "roundtrip": False}
        if key.startswith("chain-v"):
            v = int(key[len("chain-v"):])
            return {"kind": "chain", "seed": v, "masses": v % 2 == 1, "roundtrip": True}
        s, v = int(key[6:8]), int(key[10:])
        # p spans [0.05, 0.95], spaced quadratically: cost grows like
        # (1 + p)^20, so even spacing would spend the run on a few trees.
        p = 0.05 + 0.9 * ((s + 1) / self.STRATA) ** 2
        return {"kind": "rand", "p": p, "seed": (s, v), "masses": s % 2 == 1, "roundtrip": s % 3 == 2}

    def _leaves(self, item) -> np.ndarray:
        n = self.DEPTH
        if item["kind"] == "full":
            return np.arange(1 << n, dtype=np.int64)
        if item["kind"] == "chain":
            rng = np.random.default_rng([11, item["seed"]])
            return np.array([int(rng.integers(1 << n))], dtype=np.int64)
        p = item["p"]
        rng = np.random.default_rng([12, *item["seed"]])
        expected = (1.0 + p) ** n
        while True:
            # Branching process: every vertex keeps its left child and keeps
            # its right child with probability p.  For p >= 1/2, where the
            # cost lies, trees more than 5% from the expected size are
            # redrawn, so a round's cost does not hinge on early coin flips.
            idx = np.zeros(1, dtype=np.int64)
            for _ in range(n):
                keep = rng.random(idx.size) < p
                idx = np.sort(np.concatenate([idx << 1, (idx[keep] << 1) | 1]))
            if p < 0.5 or abs(idx.size / expected - 1.0) <= 0.05:
                return idx

    def prepare(self, key, state, workdir):
        item = self.item(key)
        leaves = self._leaves(item)
        masses = None
        if item["masses"]:
            rng = np.random.default_rng([13, zlib.crc32(key.encode())])
            masses = 0.1 + rng.random(leaves.size)
        return {"leaves": leaves, "masses": masses, "roundtrip": item["roundtrip"]}

    def run(self, api, state, key, inputs):
        n = self.DEPTH
        tree = api.from_leaves(n, 1, inputs["leaves"])
        if inputs["masses"] is None:
            mu = api.counting_measure(tree)
        else:
            mu = api.from_leaf_masses(tree, inputs["masses"])
        out = [("tree", "tree", tree)]
        for eps, m in self.EPS:
            prof = api.scale_profile(mu, eps, m)
            rep = api.covering_bounds_check(tree, prof, n)
            body = prof.to_json()
            levels = body.pop("levels")
            out += [
                (f"profile{eps}", "json", body),
                (f"profile{eps}.uniform", "reals", [s["uniform_frac"] for s in levels]),
                (f"profile{eps}.atomic", "reals", [s["atomic_frac"] for s in levels]),
                (f"covering{eps}", "json", rep.to_json()),
            ]
        if inputs["roundtrip"]:
            text = api.dumps_tree(tree)
            back = api.loads_tree(text)
            out += [("text", "bytes", text.encode("ascii")), ("back", "tree", back)]
        return out

    def oracle(self, key, inputs, out):
        got = _by_tag(out)
        problems = leaves_problems(got["tree"], np.unique(inputs["leaves"]), "from_leaves")
        if "back" in got:
            problems += leaves_problems(got["back"], np.unique(inputs["leaves"]), "loads_tree")
        return problems


# -- sumset-growth -------------------------------------------------------

# Homogeneous IFS families as (ratio, translations), written as fractions.
IFS = {
    "c3": ("1/3", ("0", "2/3")),
    "c3f": ("1/3", ("0", "1/3", "2/3")),
    "q2": ("1/4", ("0", "3/4")),
    "q2n": ("1/4", ("0", "1/2")),
    "q3": ("1/4", ("0", "1/4", "3/4")),
    "f2": ("1/5", ("0", "4/5")),
    "f3": ("1/5", ("0", "2/5", "4/5")),
    "f3b": ("1/5", ("0", "1/5", "4/5")),
}


def _ifs_json(name: str) -> dict:
    r, ts = IFS[name]
    return {"type": "ifs", "r": r, "translations": list(ts)}


def _ifs_spec(name: str):
    from dimlab import spec_from_json

    return spec_from_json(_ifs_json(name))


class SumsetGrowth(Workload):
    """Index sums, differences, iterated sums and growth tables on IFS,
    Moran and reciprocal trees, with a share of jobs through the CLI."""

    name = "sumset-growth"
    # Each slot's items have similar cost; the sum slots put operands on
    # both sides of the seed commit's 1/64 density cut.
    slots = (
        ("sum-q2-q2-16", "sum-q2n-q2n-18", "sum-q2-q2n-16"),
        ("sum-c3-c3-16", "sum-f3-f3-16", "sum-c3-f3-16"),
        ("diff-q2n-18", "diff-q2-16"),
        ("diff-f3-16", "diff-q3-16"),
        ("iter-moran-16-2", "iter-moran-14-4", "iter-recip-14-3", "iter-q2n-16-2",
         "growth-moran-14-3", "growth-f2-14-3", "growth-q2n-14-3"),
        ("cli-c3-q2-14-sum", "cli-f3-f2-14-sum", "cli-f2-f3-14-sum", "cli-c3-f3-14-sum"),
        ("config-c3-q2-14-sum", "config-f3-14-iterate", "config-q2-14-iterate", "config-c3-14-difference"),
    )

    def item(self, key):
        parts = key.split("-")
        kind = parts[0]
        if kind == "sum":
            return {"kind": kind, "a": parts[1], "b": parts[2], "depth": int(parts[3])}
        if kind == "diff":
            return {"kind": kind, "a": parts[1], "depth": int(parts[2])}
        if kind in ("iter", "growth"):
            return {"kind": kind, "base": parts[1], "depth": int(parts[2]), "k": int(parts[3])}
        if kind == "cli":
            return {"kind": kind, "a": parts[1], "b": parts[2], "depth": int(parts[3]), "op": parts[4]}
        return {"kind": kind, "gens": parts[1:-2], "depth": int(parts[-2]), "op": parts[-1]}

    def prepare(self, key, state, workdir):
        item = self.item(key)
        kind = item["kind"]
        if kind in ("sum", "diff"):
            item["specs"] = [_ifs_spec(item[x]) for x in ("a", "b") if x in item]
        elif kind in ("iter", "growth"):
            base = item["base"]
            if base == "moran":
                item["spec"] = {"type": "moran", "k": 2, "lengths": "4^-j"}
            elif base == "recip":
                item["spec"] = {"type": "reciprocal"}
            else:
                item["spec"] = _ifs_json(base)
        elif kind in ("cli", "config"):
            os.makedirs(workdir)
            item["workdir"] = workdir
            if kind == "config":
                d = item["depth"]
                stage = {"op": item["op"]} if item["op"] != "iterate" else {"op": "iterate", "k": 2}
                config = {
                    "name": key,
                    "depth": d,
                    "generators": [_ifs_json(g) for g in item["gens"]],
                    "pipeline": [stage],
                    "analyses": [
                        {"kind": "box", "window": [d // 2, d]},
                        {"kind": "assouad", "m": d // 2},
                        {"kind": "lower", "m": d // 2},
                        {"kind": "profile", "eps": 0.1},
                    ],
                    "out": {"tree": "cfg.tree"},
                }
                with open(os.path.join(workdir, "cfg.json"), "w", encoding="utf-8") as fh:
                    json.dump(config, fh)
        return item

    def _build(self, api, spec, depth):
        kind = spec["type"]
        if kind == "moran":
            from dimlab import MoranSpec

            return api.moran_tree(MoranSpec(spec["k"], spec["lengths"]), depth)
        if kind == "reciprocal":
            return api.reciprocal_tree(depth)
        from dimlab import spec_from_json

        return api.ifs_attractor(spec_from_json(spec), depth)

    def run(self, api, state, key, inputs):
        kind = inputs["kind"]
        d = inputs["depth"]
        if kind == "sum":
            a = api.ifs_attractor(inputs["specs"][0], d)
            b = api.ifs_attractor(inputs["specs"][1], d)
            s, report = api.index_sumset(a, b, d)
            return [("a", "tree", a), ("b", "tree", b), ("sum", "tree", s),
                    ("report", "json", report.to_json())] + _estimates(api, s, d, "sum")
        if kind == "diff":
            a = api.ifs_attractor(inputs["specs"][0], d)
            t, offset = api.difference_set(a, d)
            return [("a", "tree", a), ("diff", "tree", t), ("offset", "json", offset)] + _estimates(api, t, d, "diff")
        if kind == "iter":
            base = self._build(api, inputs["spec"], d)
            t = api.iterated_sumset(base, inputs["k"], d)
            return [("base", "tree", base), ("iter", "tree", t)] + _estimates(api, t, d, "iter")
        if kind == "growth":
            table = api.growth_experiment(inputs["spec"], inputs["k"], d)
            return [("growth", "json", table.to_json())]
        return self._run_cli(api, inputs)

    def _run_cli(self, api, inputs):
        d = inputs["depth"]
        home = os.getcwd()
        os.chdir(inputs["workdir"])
        try:
            if inputs["kind"] == "config":
                codes = [api.cli_main(["analyze", "--config", "cfg.json", "--json", "cfg.out.json"])]
                files = ["cfg.tree", "cfg.out.json"]
            else:
                codes = []
                for name, out in ((inputs["a"], "a.tree"), (inputs["b"], "b.tree")):
                    r, ts = IFS[name]
                    codes.append(api.cli_main(
                        ["gen", "--ifs", f"r={r}", "t=" + ",".join(ts), "--depth", str(d), "--out", out]
                    ))
                codes.append(api.cli_main(["sum", "a.tree", "b.tree", "--out", "s.tree", "--report", "s.json"]))
                codes.append(api.cli_main(["diff", "b.tree", "--out", "d.tree", "--report", "d.json"]))
                m = d // 2
                codes.append(api.cli_main(
                    ["analyze", "s.tree", "--box", f"{m},{d}", "--assouad", str(m), "--lower", str(m),
                     "--json", "s.an.json"]
                ))
                codes.append(api.cli_main(["analyze", "a.tree", "--covering-check", "0.1", "--json", "a.an.json"]))
                files = ["a.tree", "b.tree", "s.tree", "s.json", "d.tree", "d.json", "s.an.json", "a.an.json"]
        finally:
            os.chdir(home)
        out = [("exit_codes", "json", codes)]
        for f in files:
            path = os.path.join(inputs["workdir"], f)
            out.append((f, "jsonfile" if f.endswith(".json") else "file", path))
        return out

    def oracle(self, key, inputs, out):
        got = _by_tag(out)
        kind = inputs["kind"]
        def lv(tree):
            return np.asarray(tree.levels[tree.max_depth], dtype=np.int64)

        if kind == "sum":
            return leaves_problems(got["sum"], outer_sum(lv(got["a"]), lv(got["b"])), "index_sumset")
        if kind == "diff":
            want, offset = outer_difference(lv(got["a"]))
            problems = [] if offset == got["offset"] else ["difference_set: offset differs from the oracle"]
            return problems + leaves_problems(got["diff"], want, "difference_set")
        if kind == "iter":
            want = iterated_outer_sum(lv(got["base"]), inputs["k"])
            return leaves_problems(got["iter"], want, "iterated_sumset")
        return []


# -- dust-distance -------------------------------------------------------


class DustDistance(Workload):
    """Planar and 3-d products of Cantor-type trees through the distance
    set, with estimates on both and a grid-format round trip."""

    name = "dust-distance"
    # Items are named by depth and factors; each slot holds products of
    # similar cell counts (noted per slot).
    slots = (
        ("9-f2-f2", "7-c3-q2", "8-q2-q2", "7-q2-f3b"),                          # 0.9k-1.0k cells
        ("7-f3b-f3b", "7-c3-f3b", "7-c3-c3"),                                  # 1.7k-1.8k
        ("8-c3-q2", "8-q2-f3b", "8-f2-f3", "9-q2-q2", "7-f3-f3b"),             # 2.2k
        ("4-c3-c3-c3", "4-q2-f3-f3", "4-q3-q3-f2", "5-c3-f2-f2", "5-c3-q2n-q2n"),  # 3-d, 1.0k
        ("4-q3-q3-f3b", "4-q3-f3-f3", "5-c3-q2-q2", "5-q2-q3-f2"),            # 3-d, 1.9k
    )

    def item(self, key):
        parts = key.split("-")
        return {"depth": int(parts[0]), "factors": parts[1:]}

    def prepare(self, key, state, workdir):
        item = self.item(key)
        return {"depth": item["depth"], "specs": [_ifs_spec(f) for f in item["factors"]]}

    def run(self, api, state, key, inputs):
        d = inputs["depth"]
        trees = [api.ifs_attractor(spec, d) for spec in inputs["specs"]]
        grid = api.grid_product(trees)
        text = api.dumps_grid(grid)
        back = api.loads_grid(text)
        dist = api.distance_set(grid)
        out = [(f"factor{i}", "tree", t) for i, t in enumerate(trees)]
        out += [("grid", "grid", grid), ("text", "bytes", text.encode("ascii")), ("back", "grid", back),
                ("dist", "tree", dist)]
        return out + _estimates(api, grid, d, "grid", False) + _estimates(api, dist, d, "dist", False)

    def oracle(self, key, inputs, out):
        got = _by_tag(out)
        leaves = [np.asarray(got[f"factor{i}"].levels[inputs["depth"]], dtype=np.int64)
                  for i in range(len(inputs["specs"]))]
        want = np.stack([g.ravel() for g in np.meshgrid(*leaves, indexing="ij")], axis=1)
        cells = np.asarray(got["grid"].cells, dtype=np.int64).reshape(want.shape[0], -1)
        problems = [] if np.array_equal(cells, want) else ["grid_product: cells differ from the numpy oracle"]
        return problems + saturation_problems(got["dist"])


# -- vertex-queries ------------------------------------------------------


class VertexQueries(Workload):
    """Per-vertex lookups into warm depth-16 trees carrying measures."""

    name = "vertex-queries"
    DEPTH = 16
    SAMPLE = 640
    VARIANTS = 16
    MORAN = ((2, "4^-j"), (4, "8^-j"), (8, "16^-j"))
    RANDOM_P = (0.6, 0.85)
    RESTRICT_LEVELS = (3, 7, 11)
    # extract_moran_subset (s, eps, m) per Moran tree, chosen so every
    # vertex meets the branching hypothesis.
    EXTRACT = {0: (0.5, 0.1, 4), 1: (0.6, 0.1, 3), 2: (0.75, 0.1, 4)}

    @property
    def slots(self):
        n = len(self.MORAN) + len(self.RANDOM_P)
        return tuple(tuple(f"t{t}-v{v:02d}" for v in range(self.VARIANTS)) for t in range(n))

    def item(self, key):
        t, v = (int(x[1:]) for x in key.split("-"))
        return {
            "tree": t,
            "m": 2 + v % 4,
            "eps": (0.1, 0.25, 0.4)[v % 3],
            "extract": self.EXTRACT.get(t) if v % 4 == 0 else None,
            "seed": (t, v),
        }

    def setup_inputs(self):
        out = []
        for i, p in enumerate(self.RANDOM_P):
            rng = np.random.default_rng([21, i])
            idx = np.zeros(1, dtype=np.int64)
            for _ in range(self.DEPTH):
                keep = rng.random(idx.size) < p
                idx = np.sort(np.concatenate([idx << 1, (idx[keep] << 1) | 1]))
            out.append((idx, 0.1 + rng.random(idx.size)))
        return out

    def setup(self, api, inputs):
        from dimlab import MoranSpec

        pairs = []
        for k, lengths in self.MORAN:
            tree = api.moran_tree(MoranSpec(k, lengths), self.DEPTH)
            pairs.append((tree, api.splitting_measure(tree)))
        for leaves, masses in inputs:
            tree = api.from_leaves(self.DEPTH, 1, leaves)
            pairs.append((tree, api.from_leaf_masses(tree, masses)))
        for _, mu in pairs:
            for n in range(self.DEPTH + 1):
                api.entropy(mu, n)
        return {"pairs": pairs, "eligible": {}}

    def prepare(self, key, state, workdir):
        from dimlab import Vertex

        item = self.item(key)
        t, m = item["tree"], item["m"]
        tree = state["pairs"][t][0]
        eligible = state["eligible"].get((t, m))
        if eligible is None:
            eligible = [(n, int(j)) for n in range(self.DEPTH - m + 1) for j in tree.levels[n]]
            state["eligible"][(t, m)] = eligible
        rng = np.random.default_rng([22, *item["seed"]])
        pick = np.sort(rng.choice(len(eligible), size=min(self.SAMPLE, len(eligible)), replace=False))
        verts = [Vertex(*eligible[i]) for i in pick]
        # Restrictions copy the subtree below a vertex, so their cost depends
        # on its level: take one vertex at each of a few fixed levels.
        restrict = [Vertex(n, int(rng.choice(tree.levels[n]))) for n in self.RESTRICT_LEVELS]
        return {**item, "tree_obj": tree, "verts": verts, "restrict": restrict}

    def run(self, api, state, key, inputs):
        tree, mu = state["pairs"][inputs["tree"]]
        m, eps = inputs["m"], inputs["eps"]
        ent, cls, mass, desc, full = [], [], [], [], []
        for v in inputs["verts"]:
            ent.append(api.local_entropy(mu, v, m))
            cls.append(api.classify_local(mu, v, eps, m))
            mass.append(api.mass(mu, v))
            desc.append(api.descendant_count(tree, v, m))
            full.append(api.is_full_branching(tree, v, eps, m))
        out = [("entropy", "reals", ent), ("class", "json", cls), ("mass", "reals", mass),
               ("desc", "json", desc), ("full", "json", full)]
        for i, v in enumerate(inputs["restrict"]):
            out.append((f"restrict{i}", "measure", api.restrict_renormalize(mu, v)))
            out.append((f"subtree{i}", "tree", api.subtree(tree, v)))
        if inputs["extract"] is not None:
            out.append(("extract", "tree", api.extract_moran_subset(tree, *inputs["extract"])))
        return out

    def oracle(self, key, inputs, out):
        tree = inputs["tree_obj"]
        got = _by_tag(out)
        levels = [np.asarray(level, dtype=np.int64) for level in tree.levels]
        m, eps = inputs["m"], inputs["eps"]
        problems = []
        want = [
            int(np.searchsorted(levels[n + m], (j + 1) << m) - np.searchsorted(levels[n + m], j << m))
            for n, j in inputs["verts"]
        ]
        if want != got["desc"]:
            problems.append("descendant_count differs from the numpy oracle")
        if [c >= 2.0 ** ((1.0 - eps) * m) for c in want] != got["full"]:
            problems.append("is_full_branching differs from the numpy oracle")
        for i, (n, j) in enumerate(inputs["restrict"]):
            deep = levels[self.DEPTH]
            lo, hi = np.searchsorted(deep, [j << (self.DEPTH - n), (j + 1) << (self.DEPTH - n)])
            problems += leaves_problems(got[f"subtree{i}"], deep[lo:hi] - (j << (self.DEPTH - n)), "subtree")
        return problems


WORKLOADS = {w.name: w for w in (EntropySweep(), SumsetGrowth(), DustDistance(), VertexQueries())}
