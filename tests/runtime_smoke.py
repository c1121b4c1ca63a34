"""Every command through one command prefix, on a 25-subject cohort.

    python tests/runtime_smoke.py PREFIX...

PREFIX runs abpmix: the console script (``abpmix``) or, from a checkout,
``python -m abpmix.cli`` with ``PYTHONPATH=src``.  Set
``PYTHONWARNINGS=error::RuntimeWarning`` so that a numeric warning in any
command fails the run.  The reader check imports abpmix into this
interpreter, so run the script with the Python that PREFIX uses.  pytest
does not collect this file.  It exits 0 when every check holds.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

POLY2 = {"fixed": {"kind": "orthonormal_poly", "degree": 2},
         "random": {"kind": "orthonormal_poly", "degree": 2}, "random_cov": "diagonal"}
FILES = {
    "sim.json": {"schema_version": 1, "n_subjects": 25, "seed": 5, "sigma2": 16.0,
                 "beta": [500.0, -15.0, 8.0], "sigma_d": [60.0, 30.0, 15.0], "spec": POLY2},
    "m1.json": {"schema_version": 1, "fixed": {"kind": "orthonormal_poly", "degree": 1},
                "random": {"kind": "orthonormal_poly", "degree": 1}, "random_cov": "diagonal"},
    "m2.json": {"schema_version": 1, **POLY2},
    "mc.json": {"schema_version": 1, **POLY2, "group_terms": ["diet"],
                "interaction_terms": ["age"]},
    "th.json": {"all": [-1e6, 1e6]},
}


def rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def same_tree(a: Path, b: Path) -> bool:
    """Whether two directories hold the same relative paths with the same bytes."""
    files = [{p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
             for root in (a, b)]
    return files[0] == files[1]


def smoke(prefix, d: Path):
    def run(*args, code=0):
        done = subprocess.run([*prefix, *map(str, args)])
        if done.returncode != code:
            sys.exit(f"abpmix {' '.join(map(str, args))}: exit {done.returncode}, not {code}")

    for name, body in FILES.items():
        (d / name).write_text(json.dumps(body), encoding="utf-8")
    cohort = d / "sim" / "cohort.csv"
    run("simulate", "--config", d / "sim.json", "--out", d / "sim")
    run("fit", "--model", d / "m2.json", "--data", cohort, "--out", d / "fit")
    run("compare", "--model", d / "m2.json", "--model", d / "m1.json", "--data", cohort,
        "--out", d / "compare", "--force-reml-compare")
    run("profiles", "--fit", d / "fit" / "fit.json", "--data", cohort,
        "--subjects", "s0000,s0001", "--out", d / "profiles", "--svg")
    run("band", "--fit", d / "fit" / "fit.json", "--out", d / "band_fit", "--svg")
    # the band's rows on this numpy: its center is the population curve, as
    # text, between its lower and upper rows, and the SVG shades it once
    band = rows(d / "band_fit" / "band.csv")
    population = {r["time"]: r["value"] for r in band if r["series"] == "population"}
    centers = {r["time"]: r["value"] for r in band if r["series"] == "band"}
    assert population and population == centers, "population and band center differ"
    assert all(float(r["lower"]) <= float(r["value"]) <= float(r["upper"])
               for r in band if r["series"] == "band"), "band rows out of order"
    svg = (d / "band_fit" / "band.svg").read_text(encoding="utf-8")
    assert svg.count("<polygon") == 1, "band.svg holds no single band polygon"
    # profiles with no subjects: the population curve and the band alone
    run("profiles", "--fit", d / "fit" / "fit.json", "--data", cohort,
        "--out", d / "profiles_none")
    series = {r["series"] for r in rows(d / "profiles_none" / "profiles.csv")}
    assert series == {"population", "band"}, series
    run("band", "--model", d / "m2.json", "--thresholds", d / "th.json", "--data", cohort,
        "--out", d / "band_model")
    # the largest double below 1 is a band level whose normal quantile is infinite
    run("band", "--fit", d / "fit" / "fit.json", "--out", d / "band_level",
        "--band-level", "0.99999999999999989", code=2)

    # one input contract on every Python: a NUL in an id is refused, though
    # csv.reader reads it from Python 3.11 on
    text = cohort.read_bytes()
    assert b"\ns0003," in text
    (d / "sim" / "nul.csv").write_bytes(text.replace(b"\ns0003,", b"\ns00\x0003,"))
    run("fit", "--model", d / "m2.json", "--data", d / "sim" / "nul.csv", "--out", d / "fit_nul",
        code=2)

    # the Satterthwaite einsums ran on this numpy: each fixed effect has
    # a p-value and each compared model a model R2 (an empty field is NaN)
    fixed = rows(d / "fit" / "fixed_effects.csv")
    models = rows(d / "compare" / "comparison.csv")
    assert len(fixed) == 3 and all(0.0 <= float(r["p_value"]) <= 1.0 for r in fixed), fixed
    assert len(models) == 2 and all(0.0 <= float(r["model_r2"]) < 1.0 for r in models), models

    # the reader's sort on (subject, time) on this numpy: each subject's rows
    # reversed, subjects in the same order, fit and profile as the plain file
    with open(cohort, encoding="utf-8", newline="") as fh:
        header, *records = list(csv.reader(fh))
    blocks = {}
    for r in records:
        blocks.setdefault(r[0], []).append(r)
    reversed_rows = d / "sim" / "reversed.csv"
    with open(reversed_rows, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header] + [r for block in blocks.values() for r in block[::-1]])
    run("fit", "--model", d / "m2.json", "--data", reversed_rows, "--out", d / "fit_reversed")
    run("profiles", "--fit", d / "fit_reversed" / "fit.json", "--data", reversed_rows,
        "--subjects", "s0000,s0001", "--out", d / "profiles_reversed", "--svg")
    assert same_tree(d / "fit", d / "fit_reversed"), "fit and fit_reversed differ"
    assert same_tree(d / "profiles", d / "profiles_reversed"), "profiles differ when reversed"

    # both k x k forms of the BLUPs on this numpy: V for a 2-observation
    # subject (p < m), B for subjects with some rows dropped and for
    # complete ones (p > m), whose Cholesky factors serve every solve
    kept = [r for k, r in enumerate(records) if r[0] not in ("s0001", "s0002") or k % 3]
    with open(d / "sim" / "sparse.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header] + kept + [["x2", "3.5", "121.0"],
                                                    ["x2", "15.5", "118.0"]])
    run("profiles", "--fit", d / "fit" / "fit.json", "--data", d / "sim" / "sparse.csv",
        "--subjects", "s0000,s0001,s0002,x2", "--out", d / "profiles_sparse")
    series = {r["series"] for r in rows(d / "profiles_sparse" / "profiles.csv")}
    want = {f"subject:{sid}" for sid in ("s0000", "s0001", "s0002", "x2")}
    assert want <= series, series

    # the reader's np.loadtxt path on this numpy: CRLF line ends and a
    # quoted id holding a comma on the last record, read without csv.reader
    import abpmix

    with open(cohort, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    sid, rest = lines[-1].split(",", 1)
    lines[-1] = f'"{sid},x",{rest}'
    with open(cohort, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
    with mock.patch("csv.reader", side_effect=AssertionError("csv.reader called")):
        read = abpmix.read_cohort(cohort)
    assert read.subjects[-1].id == f"{sid},x", read.subjects[-1].id
    run("fit", "--model", d / "m2.json", "--data", cohort, "--out", d / "fit_quoted")
    # --subjects is one CSV record, so a quoted id may hold a comma
    run("profiles", "--fit", d / "fit_quoted" / "fit.json", "--data", cohort,
        "--subjects", f'"{sid},x"', "--out", d / "profiles_quoted")
    # a leading byte-order mark, as in a "CSV UTF-8" export, reads as its plain twin
    (d / "sim" / "bom.csv").write_bytes(b"\xef\xbb\xbf" + cohort.read_bytes())
    run("fit", "--model", d / "m2.json", "--data", d / "sim" / "bom.csv", "--out", d / "fit_bom")
    assert same_tree(d / "fit_quoted", d / "fit_bom"), "fit_quoted and fit_bom differ"
    fixed = rows(d / "fit_quoted" / "fixed_effects.csv")
    assert len(fixed) == 3, fixed
    series = {r["series"] for r in rows(d / "profiles_quoted" / "profiles.csv")}
    assert f"subject:{sid},x" in series, series

    # the batch covariate coding on this numpy: a categorical diet and a
    # numeric age column, static per subject, as a group and an
    # interaction term through fit and profiles
    with open(cohort, encoding="utf-8", newline="") as fh:
        records = list(csv.reader(fh))
    order = {sid: k for k, sid in enumerate(dict.fromkeys(r[0] for r in records[1:]))}
    with open(cohort, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(records[0] + ["diet", "age"])
        for r in records[1:]:
            k = order[r[0]]
            writer.writerow(r + [("control", "dash")[k % 2], 40 + k % 9])
    run("fit", "--model", d / "mc.json", "--data", cohort, "--out", d / "fit_cov")
    run("profiles", "--fit", d / "fit_cov" / "fit.json", "--data", cohort,
        "--subjects", "s0000,s0001", "--out", d / "profiles_cov")
    fixed = [r["parameter"] for r in rows(d / "fit_cov" / "fixed_effects.csv")]
    assert fixed == ["intercept", "time^1", "time^2", "diet=dash", "age:time^1",
                     "age:time^2"], fixed
    saved = json.loads((d / "fit_cov" / "fit.json").read_text(encoding="utf-8"))
    encoder, references = saved["encoder"], saved["spec"]["reference_levels"]
    assert encoder == {"diet": [["diet=dash", "dash"]], "age": [["age", None]]}, encoder
    assert references == {"diet": "control"}, references
    series = {r["series"] for r in rows(d / "profiles_cov" / "profiles.csv")}
    assert {"subject:s0000", "subject:s0001"} <= series, series
    # a diet the fit never saw is refused, not profiled at the reference level
    with open(cohort, encoding="utf-8", newline="") as fh:
        header, *records = list(csv.reader(fh))
    with open(d / "sim" / "fruit.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header] + [r[:3] + ["fruit"] + r[4:] if r[0] == "s0000" else r
                                             for r in records])
    run("profiles", "--fit", d / "fit_cov" / "fit.json", "--data", d / "sim" / "fruit.csv",
        "--subjects", "s0000", "--out", d / "profiles_fruit", code=2)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory(prefix="abpmix-smoke-") as tmp:
        smoke(sys.argv[1:], Path(tmp))
    print("runtime smoke: every command and check passed")
