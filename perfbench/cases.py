"""Workloads of the khsing benchmark: seeded inputs, cases and oracles.

Every input is a braid closure or a corpus diagram.  The seed conjugates
each braid word by a cyclic rotation and relabels the PD edges at random;
neither move changes the isotopy class or the crossing count, so the stored
reference outputs hold for every seed (the double-point index that
``skein-check`` reports moves with the rotation and is recomputed from the
input).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass

# name -> (braid word, strands); letters are (position, +1 | -1 | 0 = double)
BRAIDS = {
    "t27": ([(0, 1)] * 7, 2),
    "t28": ([(0, 1)] * 8, 2),
    "t34": ([(0, 1), (1, 1)] * 4, 3),
    "t35": ([(0, 1), (1, 1)] * 5, 3),
    "s8_2dp": ([(0, 1), (1, 1), (0, 0), (1, 1), (0, 1), (1, 0), (0, 1),
                (1, 1)], 3),
    "s6_3dp": ([(0, 0), (1, 1), (0, 1), (1, 0), (0, 1), (1, 0)], 3),
    "s6_2dp": ([(0, 1), (1, 1), (0, 0), (1, 1), (0, 1), (1, 0)], 3),
    "skein7": ([(0, 0), (1, 1), (0, 1), (1, -1), (0, 1), (1, 1), (0, 1)], 3),
}


@dataclass(frozen=True)
class Case:
    """One command of a pass.

    ``kind`` is ``homology`` (``khsing homology --format json``),
    ``skein`` (``khsing skein-check`` on the triple of ``braid``),
    ``invariance`` (``khsing invariance`` over the relabeled corpus) or
    ``iterated`` (library: homology of ``singular_complex_iterated``).
    """

    name: str
    kind: str
    braid: str = ""
    args: tuple = ()


WORKLOADS = {
    "integral": (
        Case("t27_z", "homology", "t27", ("--ring", "z")),
        Case("t34_z", "homology", "t34", ("--ring", "z")),
        Case("t28_z", "homology", "t28", ("--ring", "z")),
        Case("corpus_invariance_z", "invariance", "", ("--ring", "z")),
    ),
    "field": (
        Case("t35_f2", "homology", "t35", ("--ring", "f2")),
        Case("t28_f2_bar_natan", "homology", "t28",
             ("--ring", "f2", "--h", "1")),
        Case("s8_2dp_f2", "homology", "s8_2dp", ("--ring", "f2")),
    ),
    "singular_q": (
        Case("s6_3dp_q", "homology", "s6_3dp", ("--ring", "q")),
        Case("s6_2dp_q_lee", "homology", "s6_2dp",
             ("--ring", "q", "--t", "1")),
        Case("skein7_q", "skein", "skein7"),
        Case("s6_3dp_q_iterated", "iterated", "s6_3dp"),
    ),
}

# Oracles run once per run after the timed passes, on the last outputs:
# (kind, case); "euler" compares the graded (or, off (0, 0), ungraded)
# Euler characteristic of the output with the Kauffman state sum, "q_vs_z"
# compares a Q (resp. Z) output with the free ranks over the other ring.
ORACLES = {
    "integral": (("euler", "t27_z"), ("euler", "t34_z"), ("euler", "t28_z"),
                 ("q_vs_z", "t27_z")),
    "field": (("euler", "t35_f2"), ("euler", "t28_f2_bar_natan"),
              ("euler", "s8_2dp_f2")),
    "singular_q": (("euler", "s6_3dp_q"), ("euler", "s6_2dp_q_lee"),
                   ("q_vs_z", "s6_3dp_q")),
}


class SetupError(RuntimeError):
    """An input failed a set-up invariant; the run cannot be measured."""


def _require(cond, what):
    if not cond:
        raise SetupError(what)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _relabel(d, rng):
    """PD code of ``d`` with every edge label replaced at random."""
    labels = sorted({e for c in d.crossings for e in c})
    fresh = rng.sample(range(1, 3 * len(labels) + 1), len(labels))
    new = dict(zip(labels, fresh))
    return [[new[e] for e in c] for c in d.crossings]


def _write(K, workdir, name, pd, singular, free_loops, like):
    """Write a diagram file and check that it parses back to ``like``."""
    obj = {"name": name, "pd": pd, "singular": list(singular),
           "free_loops": free_loops}
    text = json.dumps(obj, sort_keys=True)
    (workdir / f"{name}.json").write_text(text)
    back = K.diagram.parse(text)
    _require((back.n_plus, back.n_minus) == (like.n_plus, like.n_minus),
             f"{name}: relabeling changed n_plus/n_minus")
    _require(back.over_entry == like.over_entry and back.kinds == like.kinds,
             f"{name}: relabeling changed the orientation")
    return back


def make_inputs(K, workload, seed, workdir):
    """Write the seeded input files of a workload; returns per-case info.

    The result maps each braid name to its parsed diagram (and, for skein
    triples, the double-point index), plus ``"corpus"`` for the relabeled
    corpus directory when the workload needs it.
    """
    rng = random.Random(f"{workload}:{seed}")
    cases = WORKLOADS[workload]
    out = {}
    for braid in sorted({c.braid for c in cases if c.braid}):
        word, strands = BRAIDS[braid]
        r = rng.randrange(len(word))
        rotated = K.diagram.from_braid(word[r:] + word[:r], strands, braid)
        plain = K.diagram.from_braid(word, strands)
        _require((rotated.n_plus, rotated.n_minus, rotated.n_crossings)
                 == (plain.n_plus, plain.n_minus, plain.n_crossings),
                 f"{braid}: rotation changed the crossing data")
        pd = _relabel(rotated, rng)
        d = _write(K, workdir, braid, pd, rotated.singular_indices,
                   rotated.free_loops, rotated)
        out[braid] = d
        if any(c.kind == "skein" and c.braid == braid for c in cases):
            site = d.singular_indices[0]
            out[braid + ":site"] = site
            for sign, tag in ((-1, "minus"), (1, "plus")):
                r_d = d.resolve_double_point(site, sign)
                _write(K, workdir, f"{braid}_{tag}",
                       [list(c) for c in r_d.crossings],
                       r_d.singular_indices, r_d.free_loops, r_d)
    if any(c.kind == "invariance" for c in cases):
        corpus = K.cli.corpus_dir()
        target = workdir / "corpus"
        target.mkdir(exist_ok=True)
        groups = json.loads((corpus / "groups.json").read_text())
        (target / "groups.json").write_text(json.dumps(groups))
        for g in groups["groups"]:
            for name in g["files"]:
                orig = K.diagram.parse((corpus / f"{name}.json").read_text())
                _write(K, target, name, _relabel(orig, rng),
                       orig.singular_indices, orig.free_loops, orig)
        out["corpus"] = target
    return out


# ---------------------------------------------------------------------------
# Running a case
# ---------------------------------------------------------------------------


def _cli(K, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = K.cli.main(argv)
    return code, buf.getvalue()


def run_case(K, case, inputs, workdir):
    """Run one case; returns ``(exit_code, stdout_text)``."""
    path = str(workdir / f"{case.braid}.json")
    if case.kind == "homology":
        return _cli(K, ["homology", path, "--format", "json", *case.args])
    if case.kind == "skein":
        files = [str(workdir / f"{case.braid}_{t}.json")
                 for t in ("minus", "plus")]
        return _cli(K, ["skein-check", *files, path, *case.args])
    if case.kind == "invariance":
        return _cli(K, ["invariance", "--corpus", str(inputs["corpus"]),
                        *case.args])
    if case.kind == "iterated":
        d = K.diagram.parse((workdir / f"{case.braid}.json").read_text())
        F = K.frobenius.FrobeniusAlgebra(K.exactlinalg.Ring.rationals(), 0, 0)
        summary = K.genusone.singular_complex_iterated(d, F).homology()
        return 0, json.dumps(summary.to_json_dict(), sort_keys=True) + "\n"
    raise ValueError(f"unknown case kind {case.kind!r}")


def expected_output(case, reference, inputs):
    """The reference stdout of a case for these inputs."""
    text = reference[case.name]
    if case.kind == "skein":
        obj = json.loads(text)
        obj["site"] = inputs[case.braid + ":site"]
        text = json.dumps(obj, sort_keys=True) + "\n"
    return text


def compare(expected, got):
    """(attempted, failed) line checks of one output against its reference."""
    want, have = expected.splitlines(), got.splitlines()
    attempted = max(len(want), len(have))
    failed = sum(1 for a, b in zip(want, have) if a != b)
    return attempted, failed + abs(len(want) - len(have))


def cross_checks(workload, outputs):
    """Checks that relate outputs of one pass; list of (what, ok)."""
    if workload != "singular_q":
        return []
    flat = json.loads(outputs["s6_3dp_q"])
    iterated = json.loads(outputs["s6_3dp_q_iterated"])
    return [("iterated vs flattened summary",
             iterated == {"ring": flat["ring"], "groups": flat["groups"]})]


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _skein_bracket(K, d):
    """Kauffman state sum, extended to double points by the skein rule
    value(double point) = value(positive) - value(negative)."""
    if not d.n_singular:
        return K.invariants.kauffman_bracket_oracle(d)
    b = d.singular_indices[0]
    return (_skein_bracket(K, d.resolve_double_point(b, +1))
            - _skein_bracket(K, d.resolve_double_point(b, -1)))


def run_oracles(K, workload, inputs, outputs):
    """Independent checks of the last pass's outputs; list of (what, ok)."""
    cases = {c.name: c for c in WORKLOADS[workload]}
    results = []
    for kind, name in ORACLES[workload]:
        case = cases[name]
        d = inputs[case.braid]
        groups = json.loads(outputs[name])["groups"]
        if kind == "euler":
            poly = _skein_bracket(K, d)
            if all("j" in g for g in groups):
                chi = {}
                for g in groups:
                    sign = -1 if g["i"] % 2 else 1
                    chi[g["j"]] = chi.get(g["j"], 0) + sign * g["free"]
                ok = {j: c for j, c in chi.items() if c} == poly.coeffs
            else:
                chi = sum((-1 if g["i"] % 2 else 1) * g["free"]
                          for g in groups)
                ok = chi == sum(poly.coeffs.values())
            results.append((f"{name}: Euler characteristic vs state sum", ok))
        elif kind == "q_vs_z":
            ring = K.exactlinalg.Ring
            mine_ring = json.loads(outputs[name])["ring"]
            other = ring.rationals() if mine_ring == "Z" else ring.integers()
            summary = K.invariants.homology_signature(d, other)
            mine = {(g["i"], g["j"]): g["free"] for g in groups if g["free"]}
            theirs = {k: free for k, free, _t in summary.groups if free}
            results.append((f"{name}: free ranks over Q and Z", mine == theirs))
        else:
            raise ValueError(f"unknown oracle {kind!r}")
    return results
