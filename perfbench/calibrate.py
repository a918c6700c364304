"""A fixed pure-Python workload that measures how fast the machine runs now.

    python3 perfbench/calibrate.py

It does the kinds of work formkit's commands are made of: string-keyed and
int-keyed dict tables built and swept, tuple hashing, and int bitmask tests.
It imports nothing from formkit, so no change to formkit moves its time.
run.py times it in a fresh interpreter before every pass and after the last
one, and scales each pass by how fast the machine ran around it.
"""

from __future__ import annotations

OBJECTS = 5
PER_HOM = 10


def main() -> int:
    names = [[[f"{x}pt->{y}pt:{i}" for i in range(PER_HOM)] for y in range(OBJECTS)] for x in range(OBJECTS)]
    compose = {}
    for x in range(OBJECTS):
        for y in range(OBJECTS):
            for i, f in enumerate(names[x][y]):
                for z in range(OBJECTS):
                    for j, g in enumerate(names[y][z]):
                        compose[(g, f)] = names[x][z][(i * 7 + j * 3) % PER_HOM]
    ids = {m: k for k, m in enumerate(m for row in names for hom in row for m in hom)}
    comp = {(ids[g], ids[f]): ids[h] for (g, f), h in compose.items()}
    by_source = [[ids[m] for y in range(OBJECTS) for m in names[x][y]] for x in range(OBJECTS)]
    cod = [y for x in range(OBJECTS) for y in range(OBJECTS) for _ in range(PER_HOM)]
    acc = 0
    for fi in range(len(ids)):
        for gi in by_source[cod[fi]]:
            gf = comp[(gi, fi)]
            for hi in by_source[cod[gi]]:
                if comp[(hi, gf)] == comp[(comp[(hi, gi)], fi)]:
                    acc += 1
    up = [sum(1 << b for b in range(96) if b % (a + 1) == 0 or b >= a) for a in range(96)]
    for a in range(96):
        ua = up[a]
        for b in range(96):
            acc += ((up[(a * 5 + b) % 96] >> b) & 1) != ((ua >> ((b * 7) % 96)) & 1)
    return 0 if acc >= 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
