"""The benchmark's four workloads, as scripts of queries.

A query is one library call or one CLI command, asked the way a user
would ask it, and its verdict is a small JSON value.  Each workload
builds its inputs once (``setup``, timed as set-up), computes oracle
expectations (``prepare``, untimed) and then yields the same query
script for every round; inputs depend only on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys

import oracles


def load_hotring(root):
    """Import hotring from the checkout's ``src``, never from elsewhere."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hotring", "__init__.py")):
        raise SystemExit(f"benchmark: no hotring package under {src}")
    sys.path.insert(0, src)
    import hotring
    import hotring.cli  # binds hotring.cli, .serialize and .store
    if os.path.dirname(os.path.dirname(os.path.abspath(hotring.__file__))) \
            != os.path.abspath(src):
        raise SystemExit(f"benchmark: imported hotring from {hotring.__file__}")
    return hotring


def digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Query:
    """One timed call.  ``check`` adds hand values and oracles to the
    comparison with the recorded reference; ``recorded`` is False for
    verdicts that depend on the seed and are checked by oracle alone."""

    __slots__ = ("qid", "fn", "check", "recorded")

    def __init__(self, qid, fn, check=None, recorded=True):
        self.qid = qid
        self.fn = fn
        self.check = check
        self.recorded = recorded


def expect(**fields):
    def check(verdict):
        bad = {k: verdict.get(k) for k, v in fields.items()
               if verdict.get(k) != v}
        return f"expected {fields}, got {bad}" if bad else None
    return check


class Workload:
    name = ""

    def __init__(self, hotring, seed, scratch):
        self.H = hotring
        self.seed = seed
        self.scratch = scratch

    def rng(self, qid):
        return random.Random(f"{self.seed}:{qid}")

    def setup(self):
        """Build the inputs: everything a user has before the first query."""

    def prepare(self):
        """Oracle expectations; not timed."""

    @contextlib.contextmanager
    def round(self, index):
        yield

    def queries(self):
        raise NotImplementedError

    def cleanup(self):
        pass


# ---------------------------------------------------------------------------


class Simplicial(Workload):
    """R[Delta] identities and contraction witnesses: poly.substitute."""

    name = "simplicial"
    PROBES = 200            # per identity family
    CONTRACTION_PROBES = 4  # per face/degeneracy instance

    def setup(self):
        self.rings = self.H.corpus()

    def queries(self):
        H = self.H
        out = []
        for label in sorted(self.rings):
            ring = self.rings[label]
            for n in range(1, 5):
                qid = f"identities/{label}/n{n}"

                def fn(ring=ring, n=n, qid=qid):
                    checks, failures = H.check_simplicial_identities(
                        ring, n, self.PROBES, self.rng(qid))
                    return {"checks": checks, "failures": len(failures)}
                out.append(Query(qid, fn, expect(failures=0)))
            for n in range(1, 4):
                qid = f"contraction/{label}/n{n}"

                def fn(ring=ring, n=n, qid=qid):
                    checks, failures = H.check_contraction_compatibility(
                        ring, "x", n, self.CONTRACTION_PROBES, self.rng(qid))
                    return {"checks": checks, "failures": len(failures)}
                out.append(Query(qid, fn, expect(failures=0)))
        return out


# ---------------------------------------------------------------------------


SQUARE_ZERO = ("sq0_z2", "sq0_z3", "tower2", "tower3")


class Kv1(Workload):
    """Truncated KV_1 ladder; every query builds its ring afresh, because
    gl_group caches by id(ring) and a CLI invocation never reuses it."""

    name = "kv1"

    def ladder(self):
        labels = sorted(self.H.corpus())
        steps = [(label, 1, d) for label in labels for d in (1, 2, 3)]
        steps += [(label, 2, 1) for label in ("sq0_z2", "sq0_z3", "z2_unital",
                                              "z3_unital", "z4_unital",
                                              "graded_dual")]
        steps += [(label, 2, 2) for label in ("sq0_z2", "sq0_z3", "z2_unital",
                                              "z3_unital")]
        return steps

    def setup(self):
        self.steps = self.ladder()

    def queries(self):
        H = self.H
        out = []
        for label, n, d in self.steps:
            def fn(label=label, n=n, d=d):
                ring = H.corpus()[label]
                pres = H.kv1_approx(ring, n, d)
                verdict = pres.summary()
                if ring.unit is not None:
                    cert = H.determinant_certificate(pres)
                    verdict["determinant"] = {
                        k: cert[k] for k in ("determinant_image_order",
                                             "subgroup_in_kernel",
                                             "lower_bound_matches")}
                return verdict
            check = None
            if label in SQUARE_ZERO or label == "z2_unital":
                check = expect(classes=1)
            elif label == "z3_unital":
                check = expect(classes=2, invariant_factors=[2],
                               determinant={"determinant_image_order": 2,
                                            "subgroup_in_kernel": True,
                                            "lower_bound_matches": True})
            out.append(Query(f"{label}/n{n}/d{d}", fn, check))
        # spread the many small queries over the round, so that their
        # median samples the machine's speed throughout it; the order is
        # fixed, so that seeds differ only in their generated inputs
        random.Random("kv1-order").shuffle(out)
        return out


# ---------------------------------------------------------------------------


class Certificates(Workload):
    """Hom enumeration, homotopy classes, factorization, Puppe towers,
    octahedron and K_0: the homotopy search and wide-ring layers."""

    name = "certificates"
    MAX_DEGREE = 6
    FACTORIZE_HOMS = 200
    K0_DIAGRAMS = 20

    def setup(self):
        H = self.H
        self.rings = H.corpus()
        self.labels = sorted(self.rings)
        self.tower_h, self.tower_k = H.tower_homs(self.rings)
        rng = self.rng("k0-diagrams")
        self.diagrams = []
        for _ in range(self.K0_DIAGRAMS):
            objects = [f"X{i}" for i in range(rng.randint(2, 5))]
            weq = [tuple(rng.sample(objects, 2))
                   for _ in range(rng.randint(0, 2))]
            fib = [tuple(rng.choice(objects) for _ in range(3))
                   for _ in range(rng.randint(1, 3))]
            self.diagrams.append((objects, weq, fib))

    def prepare(self):
        self.hom_counts = {(a, b): oracles.count_homs(self.rings[a],
                                                      self.rings[b])
                           for a in self.labels for b in self.labels}
        self.k0_expected = [oracles.k0_invariants(*d) for d in self.diagrams]

    def queries(self):
        H = self.H
        homs = {}
        out = []
        for a in self.labels:
            for b in self.labels:
                def fn(a=a, b=b):
                    found = H.enumerate_homs(self.rings[a], self.rings[b],
                                             budget=200_000)
                    homs[(a, b)] = found
                    return {"count": len(found),
                            "digest": digest([h.images for h in found])}
                out.append(Query(f"homs/{a}->{b}", fn,
                                 expect(count=self.hom_counts[(a, b)])))
        enumerate_first, out = out, []

        for (a, b), count in sorted(self.hom_counts.items()):
            if count < 2:
                continue
            for d in range(1, self.MAX_DEGREE + 1):
                def fn(a=a, b=b, d=d):
                    result = H.homotopy_classes(homs[(a, b)], d)
                    verified = all(H.verify_certificate(cert).valid
                                   for cert in result.edges.values())
                    return {"classes": len(result.classes()),
                            "merges": sorted(result.edges),
                            "verified": verified}
                check = expect(verified=True)
                if (a, b) == ("z2_unital", "z2_unital") and d <= 3:
                    check = expect(verified=True, classes=2)
                elif (a, b) == ("graded_dual", "graded_dual") and d >= 6:
                    check = expect(refused="BudgetExceeded", required=2 ** 20)
                out.append(Query(f"classes/{a}->{b}/d{d}", fn, check))

        ordered = []
        for a in self.labels:
            for b in self.labels:
                ordered.extend((a, b, i)
                               for i in range(self.hom_counts[(a, b)]))
        for a, b, i in ordered[:self.FACTORIZE_HOMS]:
            qid = f"factorize/{a}->{b}/{i}"

            def fn(a=a, b=b, i=i, qid=qid):
                result = H.factorize(homs[(a, b)][i]).verify(
                    probes=8, rng=self.rng(qid))
                return {"ok": result["ok"],
                        "mode": result["certificate"].mode}
            out.append(Query(qid, fn, expect(ok=True)))

        def puppe():
            seq = H.puppe(self.tower_h, 3)
            return {"ok": seq.verify(probes=12, rng=self.rng("puppe"))["ok"]}
        out.append(Query("puppe/tower_h/3", puppe, expect(ok=True)))

        def truncated():
            tower = H.TruncatedPuppe(self.tower_h, 3, m=2)
            return {"ok": tower.verify_kernel_exactness()["ok"],
                    "stage_gens": [len(r.orders) for r in tower.rings()]}
        out.append(Query("truncated_puppe/tower_h/3/kernel", truncated,
                         expect(ok=True)))

        def pointed():
            tower = H.TruncatedPuppe(self.tower_h, 2, m=2)
            return tower.pointed_set_exactness(self.rings["sq0_z2"], degree=1)
        out.append(Query("truncated_puppe/tower_h/2/pointed", pointed,
                         expect(ok=True)))

        def octahedron():
            report = H.octahedron(self.tower_h, self.tower_k, probes=40,
                                  rng=self.rng("octahedron"))
            return {"ok": report.ok, "orders": report.data["orders"]}
        out.append(Query("octahedron/tower", octahedron, expect(ok=True)))

        for i, (objects, weq, fib) in enumerate(self.diagrams):
            def fn(objects=objects, weq=weq, fib=fib):
                res = H.k0_presentation(H.K0Diagram(objects, weq=weq,
                                                    fib_seq=fib))
                return {"rank": res.rank, "torsion": res.torsion}
            rank, torsion = self.k0_expected[i]
            out.append(Query(f"k0/{i}", fn, expect(rank=rank, torsion=torsion),
                             recorded=False))
        # everything after enumeration only needs its homs; mixing the
        # query kinds spreads each kind over the whole round (fixed order,
        # as for kv1)
        random.Random("certificates-order").shuffle(out)
        return enumerate_first + out


# ---------------------------------------------------------------------------


class CliReplay(Workload):
    """All 13 CLI commands in-process against a fresh result store: one
    pass of misses (compute, write) and HIT_PASSES passes of hits (read,
    emit), plus requests the CLI must refuse."""

    name = "cli-replay"
    HIT_PASSES = 3

    def setup(self):
        H = self.H
        rings = H.corpus()
        self.labels = sorted(rings)
        self.dir = os.path.join(self.scratch, "cli")
        inputs = os.path.join(self.dir, "inputs")
        os.makedirs(inputs)

        def write(name, data):
            H.serialize.dump_json(os.path.join(inputs, name), data)

        for label, ring in rings.items():
            write(f"{label}.json", H.serialize.ring_to_json(ring))
        h, k = H.tower_homs(rings)
        write("tower_h.json", H.serialize.hom_to_json(h))
        write("tower_k.json", H.serialize.hom_to_json(k))
        for label in ("sq0_z2", "z2_unital"):
            ring = rings[label]
            write(f"id_{label}.json",
                  H.serialize.hom_to_json(H.identity_hom(ring)))
            write(f"zero_{label}.json",
                  H.serialize.hom_to_json(H.zero_hom(ring, ring)))
        write("unknown_label.json",
              {"source": "no_such_ring", "target": "sq0_z2",
               "images": [[0]]})
        with open(os.path.join(inputs, "bad.json"), "w") as fh:
            fh.write('{"label": "broken", "orders": [2], "mul": [[[0]]]')
        rng = self.rng("k0-diagrams")
        self.diagrams = []
        for i in range(2):
            objects = [f"X{j}" for j in range(rng.randint(2, 5))]
            diagram = {"objects": objects,
                       "weq": [rng.sample(objects, 2)
                               for _ in range(rng.randint(0, 2))],
                       "fib_seq": [[rng.choice(objects) for _ in range(3)]
                                   for _ in range(rng.randint(1, 3))]}
            write(f"diagram{i}.json", diagram)
            self.diagrams.append(diagram)

    def prepare(self):
        rings = self.H.corpus()
        self.hom_counts = {}
        for a, b in self.homs_pairs():
            self.hom_counts[(a, b)] = oracles.count_homs(rings[a], rings[b])
        self.k0_expected = [oracles.k0_invariants(d["objects"], d["weq"],
                                                  d["fib_seq"])
                            for d in self.diagrams]

    @staticmethod
    def homs_pairs():
        return [("sq0_z2", "two_z8"), ("two_z8", "two_z8"),
                ("tower3", "tower3"), ("upper3_z2", "tower3"),
                ("graded_dual", "graded_dual"), ("z4_unital", "z4_unital"),
                ("tower3", "upper3_z2"), ("z3_unital", "graded_dual")]

    def commands(self):
        """(command id, argv, check) in script order; paths are relative to
        the round directory, so records and payloads repeat exactly."""
        seed = str(self.seed)
        inp = "../inputs/"
        cmds = [("corpus", ["corpus", "--dir", "corpus"], None)]
        for label in self.labels:
            cmds.append((f"check-ring/{label}",
                         ["check-ring", f"{inp}{label}.json"],
                         expect(exit=0)))
        for a, b in self.homs_pairs():
            count = self.hom_counts[(a, b)]

            def check(v, count=count):
                got = v.get("payload", {}).get("count")
                return None if got == count else \
                    f"hom count {got}, oracle {count}"
            cmds.append((f"homs/{a}->{b}",
                         ["homs", "--source", f"{inp}{a}.json",
                          "--target", f"{inp}{b}.json"], check))
        for label, degree in (("sq0_z2", 1), ("z2_unital", 3)):
            cmds.append((f"homotopy/{label}/id~0/d{degree}",
                         ["homotopy", "--source", f"{inp}{label}.json",
                          "--target", f"{inp}{label}.json",
                          "--f0", f"{inp}id_{label}.json",
                          "--f1", f"{inp}zero_{label}.json",
                          "--degree", str(degree)], expect(exit=0)))
        for a, b, degree in (("z2_unital", "z2_unital", 3),
                             ("sq0_z2", "two_z8", 2),
                             ("two_z8", "two_z8", 2),
                             ("graded_dual", "graded_dual", 2)):
            cmds.append((f"classes/{a}->{b}/d{degree}",
                         ["classes", "--source", f"{inp}{a}.json",
                          "--target", f"{inp}{b}.json",
                          "--degree", str(degree)], expect(exit=0)))
        for label, size, degree in (("z3_unital", 2, 1), ("z2_unital", 2, 1),
                                    ("sq0_z2", 2, 1), ("graded_dual", 1, 3)):
            cmds.append((f"kv1/{label}/n{size}/d{degree}",
                         ["kv1", "--ring", f"{inp}{label}.json",
                          "--size", str(size), "--degree", str(degree)],
                         expect(exit=0)))
        for name in ("tower_h", "tower_k"):
            cmds.append((f"factorize/{name}",
                         ["factorize", "--hom", f"{inp}{name}.json",
                          "--seed", seed], expect(exit=0)))
        cmds.append(("puppe/tower_k/3",
                     ["puppe", "--hom", f"{inp}tower_k.json", "--length", "3",
                      "--seed", seed], expect(exit=0)))
        cmds.append(("triangle/tower_k",
                     ["triangle", "--hom", f"{inp}tower_k.json",
                      "--seed", seed], expect(exit=0)))
        cmds.append(("octahedron/tower",
                     ["octahedron", "--h", f"{inp}tower_h.json",
                      "--k", f"{inp}tower_k.json", "--seed", seed],
                     expect(exit=0)))
        for i, (rank, torsion) in enumerate(self.k0_expected):
            def check(v, rank=rank, torsion=torsion):
                p = v.get("payload", {})
                if (p.get("rank"), p.get("invariant_factors")) != \
                        (rank, torsion):
                    return f"K0 {p}, oracle rank {rank} torsion {torsion}"
                return None
            cmds.append((f"k0/diagram{i}",
                         ["k0", "--diagram", f"{inp}diagram{i}.json"], check))
        for label in ("two_z8", "graded_dual"):
            cmds.append((f"simplicial-check/{label}",
                         ["simplicial-check", "--ring", f"{inp}{label}.json",
                          "--levels", "3", "--seed", seed], expect(exit=0)))
        cmds.append(("axioms/tower",
                     ["axioms", "--hom", f"{inp}tower_h.json",
                      "--hom", f"{inp}tower_k.json", "--seed", seed],
                     expect(exit=0)))
        # refusals: never stored, so every pass recomputes them
        cmds.append(("refuse/bad-json", ["check-ring", f"{inp}bad.json"],
                     expect(exit=1)))
        cmds.append(("refuse/unknown-label",
                     ["factorize", "--hom", f"{inp}unknown_label.json"],
                     expect(exit=1)))
        cmds.append(("refuse/budget",
                     ["homs", "--source", f"{inp}tower3.json",
                      "--target", f"{inp}tower3.json", "--budget", "10"],
                     expect(exit=3)))
        return cmds

    @contextlib.contextmanager
    def round(self, index):
        path = os.path.join(self.dir, f"round{index}")
        os.makedirs(path)
        cwd = os.getcwd()
        os.chdir(path)
        try:
            yield
        finally:
            os.chdir(cwd)
            shutil.rmtree(path)

    def queries(self):
        main = self.H.cli.main
        first = {}
        out = []
        for p in range(1 + self.HIT_PASSES):
            for cid, argv, check in self.commands():
                argv = argv + ["--out", "store", "--json"]

                def fn(cid=cid, argv=argv):
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(stdout), \
                            contextlib.redirect_stderr(stderr):
                        code = main(argv)
                    out_text, err_text = stdout.getvalue(), stderr.getvalue()
                    raw = out_text + err_text
                    same = first.setdefault(cid, raw) == raw
                    verdict = {"exit": code, "same_bytes_as_first_pass": same}
                    if out_text:
                        verdict["payload"] = json.loads(out_text)["payload"]
                    if err_text:
                        verdict["error"] = json.loads(err_text)
                    return verdict
                out.append(Query(cid, fn, check,
                                 recorded=not cid.startswith("k0/")))
        return out

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Simplicial, Kv1, Certificates, CliReplay)}
