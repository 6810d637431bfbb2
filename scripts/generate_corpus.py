"""Regenerate the bundled diagram corpus.

Every file is validated to round-trip through JSON with its orientation
intact (a component that passes over at every crossing carries no
orientation in a PD code; the format's ``over_entry`` field records it
where the parser's convention would orient it the other way).

Run from the repository root:  python scripts/generate_corpus.py
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from khsing.diagram import Diagram, from_braid, parse

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "khsing" / "corpus"


def save(d: Diagram, name: str):
    d = Diagram(d.crossings, d.kinds, d.free_loops, name,
                over_hints=dict(enumerate(d.over_entry)))
    back = parse(d.to_json())
    assert back == d and back.over_entry == d.over_entry, name
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(d.to_dict(), sort_keys=True, indent=1) + "\n")
    print(f"  {name}: {d.n_crossings} crossings "
          f"({d.n_singular} singular), n+={d.n_plus}, n-={d.n_minus}, "
          f"components={d.n_components}")
    return d


def main():
    OUT.mkdir(exist_ok=True)

    unknot = save(Diagram([], free_loops=1), "unknot")
    save(from_braid([(0, 1)], 2), "unknot_kink_pos")
    save(from_braid([(0, -1)], 2), "unknot_kink_neg")
    save(from_braid([(0, 1), (0, -1), (0, 1)], 2), "unknot_r2")
    save(Diagram([], free_loops=2), "unlink2")
    save(from_braid([(0, 1), (0, -1)], 2), "unlink2_clasp")

    save(from_braid([(0, 1)] * 2, 2), "hopf_pos")
    save(from_braid([(0, -1)] * 2, 2), "hopf_neg")
    save(from_braid([(0, 1)] * 3 + [(0, -1)], 2), "hopf_pos_r2")

    save(from_braid([(0, 1)] * 3, 2), "trefoil_pos")
    save(from_braid([(0, -1)] * 3, 2), "trefoil_neg")
    save(from_braid([(0, 1)] * 3 + [(0, 1), (0, -1)], 2), "trefoil_pos_r2")
    save(from_braid([(0, 1)] * 3 + [(1, 1)], 3), "trefoil_pos_stab")

    save(from_braid([(0, 1), (1, -1), (0, 1), (1, -1)], 3), "figure8")
    save(from_braid([(1, -1), (0, 1), (1, -1), (0, 1)], 3), "figure8_conj")
    save(from_braid([(0, 1), (1, -1), (0, 1), (1, -1), (2, 1)], 4),
         "figure8_stab")

    save(from_braid([(0, 1), (1, 1), (0, 1)], 3), "link_r3_a")
    save(from_braid([(1, 1), (0, 1), (1, 1)], 3), "link_r3_b")

    # the singular Hopf family: d3 has two double points; d1/d2 are its
    # resolutions at the second site (negative resp. positive crossing)
    d3 = save(from_braid([(0, 0), (0, 0)], 2), "d3")
    d1 = save(d3.resolve_double_point(1, -1), "d1")
    d2 = save(d3.resolve_double_point(1, +1), "d2")

    # FI configurations: a double point whose loop closes up immediately
    save(parse({"pd": [[1, 2, 2, 1]], "singular": [0]}), "fi_unknot")
    save(parse({"pd": [[1, 4, 2, 5], [3, 8, 4, 1], [5, 2, 6, 3], [6, 7, 7, 8]],
                "singular": [3]}), "fi_trefoil")
    save(parse({"pd": [[2, 4, 3, 1], [4, 2, 1, 6], [3, 5, 5, 6]],
                "singular": [2]}), "fi_hopf")

    # singular trefoil triple
    ts = save(from_braid([(0, 0), (0, 1), (0, 1)], 2), "tref_sing")
    save(ts.resolve_double_point(0, -1), "tref_sing_minus")
    save(ts.resolve_double_point(0, +1), "tref_sing_plus")

    # pairs related by the three singular moves
    save(from_braid([(0, 0), (1, 1), (0, 1)], 3), "ms1_a")
    save(from_braid([(1, 1), (0, 1), (1, 0)], 3), "ms1_b")
    save(from_braid([(0, 0), (1, -1), (0, -1)], 3), "ms2_a")
    save(from_braid([(1, -1), (0, -1), (1, 0)], 3), "ms2_b")
    save(from_braid([(0, 0), (0, 1), (1, 1)], 3), "ms3_a")
    save(from_braid([(0, 1), (0, 0), (1, 1)], 3), "ms3_b")
    save(from_braid([(0, 1), (0, 1), (0, 0), (1, 1), (0, 1)], 3), "ms_big_a")
    save(from_braid([(0, 1), (0, 1), (1, 1), (0, 1), (1, 0)], 3), "ms_big_b")

    groups = {
        "groups": [
            {"name": "unknot",
             "files": ["unknot", "unknot_kink_pos", "unknot_kink_neg",
                       "unknot_r2"]},
            {"name": "unlink2", "files": ["unlink2", "unlink2_clasp"]},
            {"name": "hopf_pos", "files": ["hopf_pos", "hopf_pos_r2"]},
            {"name": "trefoil_pos",
             "files": ["trefoil_pos", "trefoil_pos_r2", "trefoil_pos_stab"]},
            {"name": "figure8",
             "files": ["figure8", "figure8_conj", "figure8_stab"]},
            {"name": "r3_link", "files": ["link_r3_a", "link_r3_b"]},
            {"name": "ms1", "files": ["ms1_a", "ms1_b"]},
            {"name": "ms2", "files": ["ms2_a", "ms2_b"]},
            {"name": "ms3", "files": ["ms3_a", "ms3_b"]},
            {"name": "ms_big", "files": ["ms_big_a", "ms_big_b"]},
        ],
    }
    (OUT / "groups.json").write_text(json.dumps(groups, indent=1) + "\n")
    print("groups.json written")


if __name__ == "__main__":
    main()
