"""Self-test of the output checks: genuine outputs pass, corrupted ones fail.

    python3 bench/selftest.py

Run from the repository root.  It computes three outputs with the program
(``asymmetric_4`` as text, ``random_k3_v4_s14`` as text and as JSON with
intermediates and lifts), confirms that ``checks.check_output`` accepts them,
then corrupts one thing at a time and confirms that the check meant to catch
it rejects the result:

* a group: a complex-part E2 cell gains a Z_19 summand (UCT over F_19);
* a group: a real-part E2 cell of a family member changes (closed form);
* a lift: one coordinate of an emitted generator moves off the cycles;
* an SNF diagonal: two entries swap, breaking the divisibility chain;
* an MO table: one entry gains a Z_2 summand (exactness re-check).

Exit code 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import io
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402


def produce(workload, name, directory):
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from kktheory import cli
    from worker import job_options

    inp = next(i for i in inputs.write_inputs(workload, 0, directory) if i["name"] == name)
    out = io.StringIO()
    code = cli.run(cli.JobConfig(inp["path"], **job_options(workload)), stdout=out)
    if code:
        raise SystemExit(f"the program failed on {name} with exit code {code}")
    return inp, out.getvalue()


def edit_section(text, title, edit):
    """Apply ``edit`` to every line of the report section ``title``."""
    out, inside = [], False
    for line in text.splitlines():
        if line.startswith("== "):
            inside = line == f"== {title} =="
        out.append(edit(line) if inside else line)
    return "\n".join(out) + "\n"


def corrupt_lift(inp, doc):
    """Move one coordinate of a generator of a cell with p >= 1 off the cycles."""
    for key, data in doc["lifts"].items():
        part, rest = key.split("/")
        p, j = (int(x) for x in rest.split(","))
        if p == 0:
            continue
        b = doc["intermediate"][f"{part}/{j}"]["boundaries"][p - 1]
        base = checks.coordinate_moduli(inp, part, j)
        mods = base * (len(b) // len(base))
        gen = data["generators"][0]
        for i in range(len(gen)):
            column = [row[i] for row in b]
            if any((x % m if m else x) for x, m in zip(column, mods)):
                gen[i] += 1
                return key
    raise SystemExit("no lift could be moved off the cycles")


def main():
    if not os.path.isfile(os.path.join("src", "kktheory", "cli.py")):
        print("bench/selftest.py: run from the repository root", file=sys.stderr)
        return 2
    work = os.path.join(HERE, "out", "selftest")
    fam, fam_text = produce("families", "asymmetric_4", os.path.join(work, "f"))
    lat, lat_text = produce("lattice", "random_k3_v4_s14", os.path.join(work, "l"))
    emi, emi_text = produce("lattice-emit", "random_k3_v4_s14", os.path.join(work, "e"))
    ok = True

    def expect(label, workload, inp, text, pattern):
        nonlocal ok
        fails = checks.check_output(workload, inp, text)
        hit = [f for f in fails if pattern and re.search(pattern, f)]
        if pattern is None:
            good = not fails
            print(f"{'ok  ' if good else 'FAIL'} {label}: "
                  f"{'accepted' if good else 'rejected: ' + '; '.join(fails)}")
        else:
            good = bool(hit)
            print(f"{'ok  ' if good else 'FAIL'} {label}: "
                  f"{'rejected: ' + hit[0] if good else 'not rejected'}")
        ok = ok and good

    expect("genuine families output", "families", fam, fam_text, None)
    expect("genuine lattice output", "lattice", lat, lat_text, None)
    expect("genuine lattice-emit output", "lattice-emit", emi, emi_text, None)

    bad = edit_section(lat_text, "E2 page, complex part (2-periodic, rows q = 7..0)",
                       lambda line: re.sub(r"^(  q=[0246] \| )Z_19 ", r"\1Z_19 + Z_19 ", line))
    expect("complex E2 cell Z_19 -> Z_19 + Z_19", "lattice", lat, bad, r"F_19")

    bad = edit_section(fam_text, "E2 page, real part",
                       lambda line: line.replace("q=6 | Z_2 ", "q=6 | Z_4 "))
    expect("asymmetric_4 real E2(0,6) Z_2 -> Z_4", "families", fam, bad, r"real row q=6")

    doc = json.loads(emi_text)
    key = corrupt_lift(emi, doc)
    expect(f"lift [{key}] generator 1 moved", "lattice-emit", emi, json.dumps(doc),
           r"is not a cycle")

    doc = json.loads(emi_text)
    for data in doc["intermediate"].values():
        for diag in data["snf_diagonals"]:
            nz = [i for i, x in enumerate(diag) if x > 1]
            if nz and nz[0] > 0:
                i = nz[0]
                diag[i - 1], diag[i] = diag[i], diag[i - 1]
                break
        else:
            continue
        break
    expect("SNF diagonal entries swapped", "lattice-emit", emi, json.dumps(doc),
           r"divisibility chain")

    bad = re.sub(r"(  solution 1: .*MO_3=)Z_2;", r"\1Z_2 + Z_2 + Z_2;", fam_text)
    expect("asymmetric_4 MO solution 1: MO_3 gains Z_2 + Z_2", "families", fam, bad,
           r"exactness re-check")

    print("selftest: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
